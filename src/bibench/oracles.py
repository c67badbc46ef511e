"""Closed-form predictions for each family and their verification.

Every closed form of a family record is a claim under test: brute-force
enumeration is always the ground truth, and verify() compares the two,
reporting concrete counterexamples for any difference. A claim must match
when the record's closed forms are exact, and is informational otherwise.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

from .bitstring import MAX_LENGTH, BitString
from .dominance import ObjectiveVector
from .errors import ValidationError
from .landscape import _image_levels, enumerate_landscape
from .problems import (
    FAMILY_NAMES,
    JUMP_OBJECTIVES,
    ProblemInstance,
    _image_counts,
    family_catalog,
    index_evaluator,
)

DEFAULT_GRID_SIZES = (6, 8, 10, 12, 14)

# Counterexamples shown per direction of each set claim.
MAX_COUNTEREXAMPLES = 5


def claimed_front_tuples(inst: ProblemInstance) -> tuple[ObjectiveVector, ...]:
    """The front exactly as its printed formula states it, for cross-checks.

    These are kept literal even where they disagree with the vectors of the
    closed-form Pareto set (the ojzr family prints a truncated index range
    and an unshifted special point); verify() surfaces any such difference.
    """
    return tuple(sorted(inst.info.front(inst.n, inst.k, inst.l)))


def reference_front(inst: ProblemInstance) -> tuple[ObjectiveVector, ...]:
    """The true Pareto front used as a hitting target by the search loops.

    For the ten families whose closed forms are verified, the printed front
    is exact. The ojzr closed form is unreliable, so its front is the first
    non-dominated level of the counted image, as front_shape reads it.
    Neither enumerates the cube, so targets work beyond the cap.
    """
    if not inst.info.exact:
        return tuple(sorted(_image_levels(inst)[0]))
    return claimed_front_tuples(inst)


@dataclass(frozen=True)
class ClaimResult:
    name: str
    must_match: bool
    matched: bool
    detail: str
    counterexamples: tuple[str, ...]


@dataclass(frozen=True)
class VerificationReport:
    instance: ProblemInstance
    claims: tuple[ClaimResult, ...]
    notes: tuple[str, ...]

    @property
    def must_match_ok(self) -> bool:
        return all(c.matched for c in self.claims if c.must_match)


def _claim(name: str, must_match: bool, sizes, extra, missing, describe) -> ClaimResult:
    """A set claim from its size and the true set's, and the first
    counterexamples in each direction: members the claim wrongly includes
    (extra) and members it leaves out (missing)."""
    examples = [f"claimed but wrong: {describe(v)}" for v in extra[:MAX_COUNTEREXAMPLES]]
    examples += [f"missing from claim: {describe(v)}" for v in missing[:MAX_COUNTEREXAMPLES]]
    return ClaimResult(
        name=name,
        must_match=must_match,
        matched=not extra and not missing,
        detail="claimed={} actual={}".format(*sizes),
        counterexamples=tuple(examples),
    )


def _lowest_bits(x: int) -> list[int]:
    """The positions of the lowest set bits of x, ascending, as many as a
    claim shows."""
    out = []
    while x and len(out) < MAX_COUNTEREXAMPLES:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _bits_claim(name: str, must_match: bool, claimed: int, actual: int, describe) -> ClaimResult:
    """A claim on a set of strings, both sets packed with bit i for index i:
    one comparison decides it, and only a mismatch looks for examples."""
    sizes = (claimed.bit_count(), actual.bit_count())
    if claimed == actual:
        return _claim(name, must_match, sizes, [], [], describe)
    extra = _lowest_bits(claimed & ~actual)
    return _claim(name, must_match, sizes, extra, _lowest_bits(actual & ~claimed), describe)


def verify(inst: ProblemInstance) -> VerificationReport:
    """Compare every closed-form claim for the instance against enumeration."""
    report = enumerate_landscape(inst)
    n = inst.n
    must = inst.info.exact
    pareto = inst.info.pareto_set(n, inst.k, inst.l)
    # Only a claim that lists counterexamples evaluates strings, so the
    # evaluator is built at the first one shown, and index_evaluator's own
    # cache keeps it for the rest.
    evaluator = partial(index_evaluator, inst)

    def show(i: int) -> str:
        return f"{BitString(n, i)} -> {evaluator()(i)}"

    pareto_claim = _bits_claim("pareto_set", must, pareto, report.member_bits, show)
    # The image of the enumerated Pareto set is the front.
    if pareto_claim.matched:
        image = {v for v, _ in report.front_counts}
    else:
        image = set(_image_counts(inst, pareto))
    front = set(claimed_front_tuples(inst))
    claims = [
        pareto_claim,
        _bits_claim(
            "local_optima",
            must,
            inst.info.local_optima(n, inst.k, inst.l),
            report.local_optima_bits,
            show,
        ),
        _claim(
            "claimed_front",
            must,
            (len(front), len(image)),
            sorted(front - image),
            sorted(image - front),
            str,
        ),
    ]

    claims += (
        ClaimResult(name, must, matched, detail, ())
        for name, matched, detail in inst.info.ratio_claims(n, inst.k, inst.l, report.ratio)
    )

    notes = []
    if any(name in JUMP_OBJECTIVES for name in inst.info.objectives):
        notes.append(
            "jump objectives are shifted: value is k plus the bit count outside the valley"
        )
    return VerificationReport(inst, tuple(claims), tuple(notes))


def grid_instances(
    families: tuple[str, ...] | None = None,
    n_values: tuple[int, ...] = DEFAULT_GRID_SIZES,
) -> list[ProblemInstance]:
    """Every valid instance of the requested families on the size grid:
    each parameter k and l runs over 1..n, k then l ascending, and the
    family's rule keeps the valid ones."""
    if isinstance(families, str):
        raise ValidationError(f"families must be a sequence of names, got the string {families!r}")
    if isinstance(n_values, str) or not isinstance(n_values, Sequence):
        raise ValidationError(f"n_values must be a sequence of sizes, got {n_values!r}")
    for n in n_values:
        # Checked before any family's rule runs over 1..n.
        if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_LENGTH:
            raise ValidationError(f"sizes must be integers in [1, {MAX_LENGTH}], got {n!r}")
    wanted = FAMILY_NAMES if families is None else tuple(families)
    for name in wanted:
        if name not in FAMILY_NAMES:
            raise ValidationError(f"unknown family {name!r}")
    out = []
    for info in family_catalog():
        if info.name not in wanted:
            continue
        for n in n_values:
            ks = range(1, n + 1) if "k" in info.params else (None,)
            ls = range(1, n + 1) if "l" in info.params else (None,)
            out.extend(ProblemInstance(info.name, n, k, l)
                       for k in ks for l in ls if info.rule(n, k, l) is None)
    return out


def render_verification(report: VerificationReport) -> str:
    """Stable plain-text rendering of one instance's verification."""
    lines = [report.instance.descriptor]
    for claim in report.claims:
        status = "match" if claim.matched else "MISMATCH"
        kind = "must-match" if claim.must_match else "informational"
        lines.append(f"  {claim.name}: {status} ({kind}) {claim.detail}")
        lines.extend(f"    - {example}" for example in claim.counterexamples)
    for note in report.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"
