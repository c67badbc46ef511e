"""Bi-objective pseudo-Boolean benchmarks with exact landscape analysis.

Eleven problem families over fixed-length bit strings, exhaustive and
exact landscape characterization (Pareto structure, local optima,
separability, front geometry), closed-form predictions verified against
enumeration, and seeded SEMO/GSEMO baselines.
"""

from .bitstring import BitString, blocks, complement, count_ones, neighbors, reverse
from .dominance import (
    LevelAssignment,
    dominates,
    nondominated_filter,
    nondominated_sort,
    weakly_dominates,
)
from .errors import DescriptorError, DomainError, EnumerationCapError, ValidationError
from .evolve import RunConfig, RunResult, Target, hitting_time_experiment
from .landscape import (
    CharacteristicProfile,
    FrontShape,
    LandscapeReport,
    characteristic_profile,
    enumerate_landscape,
    front_shape,
    is_completely_conflicting,
    is_fully_separable,
    is_symmetric_pair,
)
from .oracles import (
    VerificationReport,
    claimed_front_tuples,
    grid_instances,
    ojzj_asymptote,
    ojzj_threshold_k,
    oracle_front,
    oracle_local_optima,
    oracle_pareto_set,
    ratio_ojzj,
    ratio_ojzr,
    verify,
)
from .problems import (
    FamilyInfo,
    ProblemInstance,
    evaluate,
    family_catalog,
    parse_descriptor,
    validate,
)

__version__ = "0.1.0"
