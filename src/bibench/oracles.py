"""Closed-form predictions for each family and their verification.

Every closed form here is a claim under test: brute-force enumeration is
always the ground truth, and verify() compares the two, reporting concrete
counterexamples for any difference. Claims for the ojzr family are
informational (their derivations assume block length below the gap, which
not every valid instance satisfies); all other families' claims must match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

from .bitstring import BitString
from .errors import ValidationError
from .landscape import _check_cap, enumerate_landscape
from .problems import (
    FAMILY_NAMES,
    JUMP_OBJECTIVES,
    ObjectiveVector,
    ProblemInstance,
    family_catalog,
    index_evaluator,
    validate,
)

DEFAULT_GRID_SIZES = (6, 8, 10, 12, 14)


def oracle_pareto_set(inst: ProblemInstance, cap: int | None = None) -> tuple[BitString, ...]:
    """Closed-form Pareto set, materialized in ascending index order."""
    _check_cap(inst.n, cap)
    indices = inst.info.pareto_set(inst.n, inst.k, inst.l)
    return tuple(BitString(inst.n, i) for i in sorted(indices))


def oracle_local_optima(inst: ProblemInstance, cap: int | None = None) -> tuple[BitString, ...]:
    """Closed-form non-global Pareto local optima, ascending index order."""
    _check_cap(inst.n, cap)
    indices = inst.info.local_optima(inst.n, inst.k, inst.l)
    return tuple(BitString(inst.n, i) for i in sorted(indices))


def oracle_front(inst: ProblemInstance, cap: int | None = None) -> tuple[ObjectiveVector, ...]:
    """Objective vectors of the closed-form Pareto set, deduplicated and sorted."""
    _check_cap(inst.n, cap)
    ev = index_evaluator(inst)
    return tuple(sorted({ev(i) for i in inst.info.pareto_set(inst.n, inst.k, inst.l)}))


def claimed_front_tuples(inst: ProblemInstance) -> tuple[ObjectiveVector, ...]:
    """The front exactly as its printed formula states it, for cross-checks.

    These are kept literal even where they disagree with oracle_front (the
    ojzr family prints a truncated index range and an unshifted special
    point); verify() surfaces any such difference.
    """
    return tuple(sorted(inst.info.front(inst.n, inst.k, inst.l)))


def ratio_ojzj(n: int, k: int) -> Fraction:
    """Exact Pareto-set share of the search space for the ojzj family."""
    _check_ratio_params(n, k)
    if not (1 <= k and 2 * k < n):
        raise ValidationError(f"ratio_ojzj needs 1 <= k < n/2, got n={n} k={k}")
    inner = sum(math.comb(n, s) for s in range(n - k + 1, n))
    return Fraction((1 << n) - 2 * inner, 1 << n)


def _check_ratio_params(n: int, *params: int) -> None:
    for value in (n, *params):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"ratio parameters must be ints, got {value!r}")
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")


def ojzj_threshold_k(n: int) -> int:
    """Largest gap for which the ojzj Pareto share is guaranteed >= 1/2:
    floor(n/2 - sqrt(n ln(4) / 2)), with the floor certified exact.

    Computed in 60-digit decimal arithmetic with an interval pad; if the two
    interval ends floored differently the value would be numerically
    ambiguous and an error is raised instead of guessing.
    """
    _check_ratio_params(n)
    with localcontext() as ctx:
        ctx.prec = 60
        value = Decimal(n) / 2 - (Decimal(n) * Decimal(4).ln() / 2).sqrt()
        pad = Decimal(10) ** -45
        lo = (value - pad).to_integral_value(rounding=ROUND_FLOOR)
        hi = (value + pad).to_integral_value(rounding=ROUND_FLOOR)
    if lo != hi:
        raise ValidationError(f"threshold floor numerically ambiguous for n={n}")
    return int(lo)


def ojzj_asymptote(n: int) -> float:
    """Limiting Pareto share at the widest interesting gap, by parity of n."""
    _check_ratio_params(n)
    factor = 3.0 if n % 2 == 0 else 4.0
    return factor * math.sqrt(2.0) / math.sqrt(math.pi * n)


def ratio_ojzr(n: int, k: int, l: int) -> Fraction:
    """Exact value of the printed ojzr Pareto-share formula.

    Preconditions follow the formula's stated domain: 1 < k < floor(n/2),
    l divides n with at least two blocks, and n - k is not a multiple of l.
    The formula counts the closed-form Pareto set, which only matches
    enumeration when l < k; verify() reports the difference elsewhere.
    """
    _check_ratio_params(n, k, l)
    if not 1 < k < n // 2:
        raise ValidationError(f"ratio_ojzr needs 1 < k < floor(n/2), got n={n} k={k}")
    if l < 1 or n % l or n // l < 2:
        raise ValidationError(f"ratio_ojzr needs l dividing n with n/l > 1, got n={n} l={l}")
    if (n - k) % l == 0:
        raise ValidationError(
            f"ratio_ojzr needs n - k not divisible by l, got n={n} k={k} l={l}"
        )
    b = n // l
    p = k // l
    ceil_kl = -(-k // l)
    count = 1 + sum(math.comb(b, i) for i in range(ceil_kl, b + 1))
    count += math.comb(b, p) * math.comb(n - p * l, n - k)
    return Fraction(count, 1 << n)


def ojzr_bound(n: int, l: int) -> tuple[Fraction, int]:
    """The bound 2^(-1 + n(1/l - 1/2)) as (squared value, doubled exponent).

    The exponent -1 + n(1/l - 1/2) need not be an integer, but its double is
    once l divides n, so comparisons against the bound square both sides.
    """
    _check_ratio_params(n, l)
    if l < 1 or n % l:
        raise ValidationError(f"bound needs l dividing n, got n={n} l={l}")
    doubled = -2 + (n // l) * (2 - l)
    squared = Fraction(1 << doubled, 1) if doubled >= 0 else Fraction(1, 1 << -doubled)
    return squared, doubled


def ojzr_within_bound(n: int, k: int, l: int) -> bool:
    """Exact check of ratio_ojzr(n,k,l) <= 2^(-1 + n(1/l - 1/2)); needs l > 2."""
    if l <= 2:
        raise ValidationError(f"the bound applies for l > 2, got l={l}")
    ratio = ratio_ojzr(n, k, l)
    squared, _ = ojzr_bound(n, l)
    return ratio * ratio <= squared


def reference_front(inst: ProblemInstance, cap: int | None = None) -> tuple[ObjectiveVector, ...]:
    """The true Pareto front used as a hitting target by the search loops.

    For the ten families whose closed forms are verified, the printed front
    is exact and needs no enumeration, so targets work beyond the cap. The
    ojzr closed form is unreliable, so its front is enumerated.
    """
    if not inst.info.exact:
        return tuple(v for v, _ in enumerate_landscape(inst, cap).front_counts)
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


def _set_claim(
    name: str,
    must_match: bool,
    claimed: set,
    actual: set,
    describe,
    limit: int,
) -> ClaimResult:
    extra = sorted(claimed - actual)
    missing = sorted(actual - claimed)
    examples = [f"claimed but wrong: {describe(v)}" for v in extra[:limit]]
    examples += [f"missing from claim: {describe(v)}" for v in missing[:limit]]
    detail = f"claimed={len(claimed)} actual={len(actual)}"
    return ClaimResult(
        name=name,
        must_match=must_match,
        matched=not extra and not missing,
        detail=detail,
        counterexamples=tuple(examples),
    )


def verify(
    inst: ProblemInstance, cap: int | None = None, max_counterexamples: int = 5
) -> VerificationReport:
    """Compare every closed-form claim for the instance against enumeration."""
    limit = max_counterexamples
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
        raise ValidationError(f"max_counterexamples must be a non-negative int, got {limit!r}")
    report = enumerate_landscape(inst, cap)
    values = report.values
    n = inst.n
    must = inst.info.exact
    pareto = inst.info.pareto_set(n, inst.k, inst.l)

    def show(i: int) -> str:
        return f"{BitString(n, i)} -> {values[i]}"

    claims = [
        _set_claim(
            "pareto_set",
            must,
            pareto,
            set(report.pareto_set_indices),
            show,
            limit,
        ),
        _set_claim(
            "local_optima",
            must,
            inst.info.local_optima(n, inst.k, inst.l),
            set(report.local_optima_indices),
            show,
            limit,
        ),
        _set_claim(
            "claimed_front",
            must,
            set(claimed_front_tuples(inst)),
            {values[i] for i in pareto},
            str,
            limit,
        ),
    ]

    if inst.family == "ojzj":
        formula = ratio_ojzj(n, inst.k)
        claims.append(
            ClaimResult(
                "ratio_formula",
                True,
                formula == report.ratio,
                f"formula={formula} enumerated={report.ratio}",
                (),
            )
        )
        threshold = ojzj_threshold_k(n)
        guaranteed = inst.k <= threshold
        claims.append(
            ClaimResult(
                "ratio_threshold",
                True,
                (not guaranteed) or report.ratio >= Fraction(1, 2),
                f"threshold_k={threshold} k={inst.k} ratio={report.ratio}",
                (),
            )
        )
    if inst.family == "ojzr":
        try:
            formula = ratio_ojzr(n, inst.k, inst.l)
        except ValidationError:
            formula = None
        if formula is not None:
            claims.append(
                ClaimResult(
                    "ratio_formula",
                    False,
                    formula == report.ratio,
                    f"formula={formula} enumerated={report.ratio}",
                    (),
                )
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
            out.extend(validate(info.name, n, k, l)
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
