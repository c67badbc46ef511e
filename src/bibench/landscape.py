"""Exhaustive landscape analysis: Pareto structure, local optima, and the
seven characteristic flags, all computed exactly by enumeration.

Enumeration is capped (default 24 bits, env var BIBENCH_ENUM_CAP) so
accidental huge requests fail fast with a clear error.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .bitstring import BitString
from .dominance import nondominated_sort
from .errors import EnumerationCapError, ValidationError
from .problems import ObjectiveVector, ProblemInstance, index_evaluator

DEFAULT_CAP = 24
CAP_ENV_VAR = "BIBENCH_ENUM_CAP"

LOW_RATIO_THRESHOLD = Fraction(1, 2)

# _REV8[b] is the byte b with its eight bits in reverse order.
_REV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def enumeration_cap() -> int:
    """Effective cap: the env var if set, else the default."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValidationError(f"{CAP_ENV_VAR} must be positive, got {value}")
    return value


@dataclass(frozen=True, slots=True)
class OnesSummary:
    """Distribution at a fixed number of ones: objective values and levels."""

    f1_counts: tuple[tuple[int, int], ...]
    f2_counts: tuple[tuple[int, int], ...]
    level_counts: tuple[tuple[int, int], ...]


class FrontShape(Enum):
    LINEAR = "linear"
    NONLINEAR_CONCAVE = "nonlinear_concave"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class SeparabilityReport:
    """Outcome of the per-bit flip-delta constancy check for one objective."""

    objective: int
    separable: bool
    # When separable: per-position (value at 0, value at 1) contributions whose
    # sum over positions reproduces the objective; the constant part sits on
    # position 1. When not: a position and two contexts with different deltas.
    contributions: tuple[tuple[int, int], ...] | None
    witness_position: int | None
    witness: tuple[BitString, BitString] | None
    witness_deltas: tuple[int, int] | None


@dataclass(frozen=True)
class CharacteristicProfile:
    """The seven landscape flags, plus the data behind them."""

    instance: ProblemInstance
    non_symmetric: bool
    non_completely_conflicting: bool
    disjoint_optima: bool
    not_fully_separable: bool
    low_ratio_witness: bool
    nonlinear_front: bool
    has_local_optima: bool
    component_count: int
    ratio: Fraction
    front_shape: FrontShape
    local_optima_count: int

    @property
    def flags(self) -> tuple[bool, ...]:
        return (
            self.non_symmetric,
            self.non_completely_conflicting,
            self.disjoint_optima,
            self.not_fully_separable,
            self.low_ratio_witness,
            self.nonlinear_front,
            self.has_local_optima,
        )


@dataclass(frozen=True)
class LandscapeReport:
    instance: ProblemInstance
    # values[i] is the objective pair of the string with index i.
    values: tuple[ObjectiveVector, ...] = field(repr=False, compare=False)
    pareto_set_indices: tuple[int, ...]
    front_counts: tuple[tuple[ObjectiveVector, int], ...]
    levels: tuple[tuple[ObjectiveVector, ...], ...]
    vector_counts: dict[ObjectiveVector, int]
    local_optima_indices: tuple[int, ...]
    local_front_counts: tuple[tuple[ObjectiveVector, int], ...]
    component_count: int
    ratio: Fraction
    ones_tables: tuple[tuple[int, OnesSummary], ...]

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def pareto_set(self) -> tuple[BitString, ...]:
        return tuple(BitString(self.n, i) for i in self.pareto_set_indices)

    @property
    def local_optima(self) -> tuple[BitString, ...]:
        """Non-global Pareto local optima: no neighbor strictly dominates
        them, yet they are not Pareto-optimal. Equal-valued neighbors do not
        disqualify."""
        return tuple(BitString(self.n, i) for i in self.local_optima_indices)


def _component_count(mask: bytearray, n: int) -> int:
    """Connected components of the Hamming-distance-1 graph on the indices
    whose mask byte is set. Floods each component, clearing the mask as it
    goes, so the mask is all zero on return."""
    bits = [1 << b for b in range(n)]
    components = 0
    start = mask.find(1)
    while start != -1:
        components += 1
        mask[start] = 0
        stack = [start]
        push = stack.append
        pop = stack.pop
        while stack:
            cur = pop()
            for bit in bits:
                nb = cur ^ bit
                if mask[nb]:
                    mask[nb] = 0
                    push(nb)
        start = mask.find(1, start + 1)
    return components


def _bit_reverser(n: int):
    """Map an n-bit index to the index of its mirror image (bit order
    reversed), one byte-table lookup per byte; valid for any n >= 1."""
    width = (n + 7) // 8
    shift = 8 * width - n
    from_bytes = int.from_bytes

    def mirror(i: int) -> int:
        return from_bytes(i.to_bytes(width, "little").translate(_REV8), "big") >> shift

    return mirror


def enumerate_landscape(inst: ProblemInstance) -> LandscapeReport:
    """Full exact analysis of one instance by enumerating all 2^n strings."""
    limit = enumeration_cap()
    if inst.n > limit:
        raise EnumerationCapError(
            f"n={inst.n} exceeds the enumeration cap {limit}; set {CAP_ENV_VAR} to raise it"
        )
    return _report(inst)


# One slot suffices: callers ask for an instance's report and then for its
# predicates, so only the most recent report is read again.
@lru_cache(maxsize=1)
def _report(inst: ProblemInstance) -> LandscapeReport:
    n = inst.n
    ev = index_evaluator(inst)
    # Built from a list: tuple() of an iterator grows the tuple step by step,
    # which costs about a third more at n = 18.
    values = tuple([ev(i) for i in range(1 << n)])
    assignment = nondominated_sort(values)
    level_by_vector = assignment.level_by_vector
    front = set(assignment.levels[0])

    ps = [i for i, v in enumerate(values) if v in front]
    members = bytearray(1 << n)
    for i in ps:
        members[i] = 1

    # A string is a local optimum when no neighbor strictly dominates it;
    # an equal-valued neighbor does not disqualify it.
    bits = [1 << b for b in range(n)]
    local = []
    for i, (a, b) in enumerate(values):
        if members[i]:
            continue
        for bit in bits:
            c, d = values[i ^ bit]
            if c >= a and d >= b and (c > a or d > b):
                break
        else:
            local.append(i)
    # Counting clears the mask, so it comes after the scan that reads it.
    components = _component_count(members, n)

    front_counts = tuple(
        (v, assignment.counts[v]) for v in sorted(front)
    )
    lo_counter = Counter(values[i] for i in local)
    local_front_counts = tuple((v, lo_counter[v]) for v in sorted(lo_counter))

    ones_f1 = [Counter() for _ in range(n + 1)]
    ones_f2 = [Counter() for _ in range(n + 1)]
    ones_level = [Counter() for _ in range(n + 1)]
    by_ones = Counter(zip(map(int.bit_count, range(1 << n)), values))
    for (ones, vec), count in by_ones.items():
        ones_f1[ones][vec[0]] += count
        ones_f2[ones][vec[1]] += count
        ones_level[ones][level_by_vector[vec]] += count

    ones_tables = tuple(
        (
            ones,
            OnesSummary(
                tuple(sorted(ones_f1[ones].items())),
                tuple(sorted(ones_f2[ones].items())),
                tuple(sorted(ones_level[ones].items())),
            ),
        )
        for ones in range(n + 1)
    )

    return LandscapeReport(
        instance=inst,
        values=values,
        pareto_set_indices=tuple(ps),
        front_counts=front_counts,
        levels=assignment.levels,
        vector_counts=dict(assignment.counts),
        local_optima_indices=tuple(local),
        local_front_counts=local_front_counts,
        component_count=components,
        ratio=Fraction(len(ps), 1 << n),
        ones_tables=ones_tables,
    )


def is_completely_conflicting(inst: ProblemInstance) -> bool:
    """True when any improvement in one objective forces a loss in the other:
    distinct image vectors never share a coordinate and are totally ordered
    with f2 strictly falling as f1 rises."""
    distinct = sorted(enumerate_landscape(inst).vector_counts)
    for (a1, a2), (b1, b2) in zip(distinct, distinct[1:]):
        if b1 == a1 or b2 >= a2:
            return False
    return True


def is_symmetric_pair(inst: ProblemInstance) -> bool:
    """True when complementing plus mirroring every string swaps the two
    objectives everywhere."""
    n = inst.n
    values = enumerate_landscape(inst).values
    mirror = _bit_reverser(n)
    mask = (1 << n) - 1
    return all(
        values[mirror(i) ^ mask] == (b, a) for i, (a, b) in enumerate(values)
    )


def is_fully_separable(inst: ProblemInstance, objective: int) -> SeparabilityReport:
    """Check one objective for full separability (bitwise additive form).

    An objective is fully separable iff flipping any one bit changes the value
    by an amount independent of all other bits. On success the report carries
    per-position contribution pairs; on failure, two contexts whose deltas for
    the same position differ.
    """
    if isinstance(objective, bool) or objective not in (1, 2):
        raise ValidationError(f"objective selector must be 1 or 2, got {objective!r}")
    n = inst.n
    values = enumerate_landscape(inst).values
    pick = objective - 1
    deltas = []
    for position in range(1, n + 1):
        bit = 1 << (n - position)
        first_context = None
        first_delta = None
        for i in range(1 << n):
            if i & bit:
                continue
            d = values[i | bit][pick] - values[i][pick]
            if first_delta is None:
                first_context, first_delta = i, d
            elif d != first_delta:
                return SeparabilityReport(
                    objective=objective,
                    separable=False,
                    contributions=None,
                    witness_position=position,
                    witness=(BitString(n, first_context), BitString(n, i)),
                    witness_deltas=(first_delta, d),
                )
        deltas.append(first_delta)
    base = values[0][pick]
    contributions = [(0, d) for d in deltas]
    contributions[0] = (base, base + deltas[0])
    return SeparabilityReport(
        objective=objective,
        separable=True,
        contributions=tuple(contributions),
        witness_position=None,
        witness=None,
        witness_deltas=None,
    )


def _strictly_below_upper_hull(points: list[ObjectiveVector]) -> bool:
    """Whether some point lies strictly under the upper convex hull of points.

    Points must be sorted by f1 ascending with all f1 distinct. All arithmetic
    is exact integer cross products.
    """
    hull: list[ObjectiveVector] = []
    for p in points:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    for p in points:
        # Find the hull segment spanning p's f1 and test the exact side.
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= p[0] <= x2:
                cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
                if cross < 0:
                    return True
                break
    return False


def front_shape(inst: ProblemInstance) -> FrontShape:
    """Classify the Pareto front: collinear, or bent below its upper hull.

    A one-point front is reported as degenerate rather than classified.
    """
    report = enumerate_landscape(inst)
    points = [v for v, _ in report.front_counts]
    if len(points) == 1:
        return FrontShape.DEGENERATE
    o = points[0]
    collinear = all(
        (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]) == 0
        for a, b in zip(points[1:], points[2:])
    )
    if collinear:
        return FrontShape.LINEAR
    if _strictly_below_upper_hull(points):
        return FrontShape.NONLINEAR_CONCAVE
    raise ValidationError(
        f"{inst.descriptor}: front is neither collinear nor concave; not classified"
    )


def characteristic_profile(inst: ProblemInstance) -> CharacteristicProfile:
    """All seven characteristic flags for one instance, computed exactly."""
    report = enumerate_landscape(inst)
    shape = front_shape(inst)
    sep1 = is_fully_separable(inst, 1)
    sep2 = is_fully_separable(inst, 2)
    return CharacteristicProfile(
        instance=inst,
        non_symmetric=not is_symmetric_pair(inst),
        non_completely_conflicting=not is_completely_conflicting(inst),
        disjoint_optima=report.component_count > 1,
        not_fully_separable=not (sep1.separable and sep2.separable),
        low_ratio_witness=report.ratio <= LOW_RATIO_THRESHOLD,
        nonlinear_front=shape is FrontShape.NONLINEAR_CONCAVE,
        has_local_optima=bool(report.local_optima_indices),
        component_count=report.component_count,
        ratio=report.ratio,
        front_shape=shape,
        local_optima_count=len(report.local_optima_indices),
    )


def _fmt_counts(pairs) -> str:
    return ";".join(f"{v}:{c}" for v, c in pairs)


def render_report(report: LandscapeReport) -> str:
    """Stable plain-text serialization of a landscape report."""
    n = report.n
    lines = [
        f"instance: {report.instance.descriptor}",
        f"search_space: {1 << n}",
        f"pareto_set: {len(report.pareto_set_indices)}",
        f"pareto_front: {len(report.front_counts)}",
        f"ratio: {report.ratio.numerator}/{report.ratio.denominator}",
        f"components: {report.component_count}",
        f"local_optima: {len(report.local_optima_indices)}",
        f"levels: {len(report.levels)}",
        "front:",
        "f1,f2,count",
    ]
    lines.extend(f"{a},{b},{c}" for (a, b), c in report.front_counts)
    lines.append("local_optima_strings:")
    lines.extend(str(BitString(n, i)) for i in report.local_optima_indices)
    lines.append("ones_tables:")
    lines.append("ones,f1_value:count,f2_value:count,level:count")
    for ones, summary in report.ones_tables:
        lines.append(
            f"{ones},{_fmt_counts(summary.f1_counts)},"
            f"{_fmt_counts(summary.f2_counts)},{_fmt_counts(summary.level_counts)}"
        )
    return "\n".join(lines) + "\n"


def summary_line(report: LandscapeReport) -> str:
    """One-line overview used by the command line tool."""
    return (
        f"|PS|={len(report.pareto_set_indices)}"
        f" ratio={report.ratio.numerator}/{report.ratio.denominator}"
        f" components={report.component_count}"
        f" |LO|={len(report.local_optima_indices)}"
    )
