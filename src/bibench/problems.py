"""Bi-objective problem families, instance validation, and evaluation.

Each family composes two scalar objectives into a maximized pair and is
defined by one record in the catalog: its objectives, parameter rule and
closed forms. Instances are value objects; a compact text descriptor
("ojzr:n=12,k=5,l=3") names an instance uniquely and round-trips through
parse_descriptor/descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

from .bitstring import MAX_LENGTH, BitString
from .errors import DescriptorError, ValidationError

ObjectiveVector = tuple[int, int]


@dataclass(frozen=True, slots=True)
class ProblemInstance:
    family: str
    n: int
    k: int | None = None
    l: int | None = None

    @property
    def descriptor(self) -> str:
        parts = [f"{self.family}:n={self.n}"]
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.l is not None:
            parts.append(f"l={self.l}")
        return parts[0] + ("," + ",".join(parts[1:]) if parts[1:] else "")

    @property
    def info(self) -> FamilyInfo:
        """The catalog record of this instance's family."""
        return _BY_NAME[self.family]


# Each scalar objective, all maximized, is a value table read at one integer
# statistic of the string. A statistic maps a raw index in [0, 2^n) to a
# count in 0..n (index bit n-1 is string position 1); its builder takes the
# parameters (n, l). A table builder takes (n, k, l) and returns the list of
# objective values by statistic value.


def _leading_ones(n, l):
    mask = (1 << n) - 1
    return lambda i: n - (i ^ mask).bit_length()


def _half_mix(n, l):
    half = n // 2
    half_mask = (1 << half) - 1
    return lambda i: (i >> half).bit_count() + (half - (i & half_mask).bit_count())


def _blocks(want_ones: bool, n, l):
    mask = (1 << l) - 1
    full = mask if want_ones else 0
    shifts = tuple(n - (j + 1) * l for j in range(n // l))
    return lambda i: sum(1 for s in shifts if (i >> s) & mask == full)


STATISTICS = {
    "ones": lambda n, l: int.bit_count,
    "leading ones": _leading_ones,
    "trailing zeroes": lambda n, l: lambda i: n if i == 0 else (i & -i).bit_length() - 1,
    "first-half ones plus second-half zeroes": _half_mix,
    "all-ones blocks": partial(_blocks, True),
    "all-zeroes blocks": partial(_blocks, False),
}


def _identity(n, k, l):
    return list(range(n + 1))


def _jump(n, k, l):
    """The shifted jump of gap k over a count c: k + c outside the valley
    n - k < c < n and n - c inside it, so the optimum dominates the plateau
    by exactly k and every value stays non-negative."""
    return [k + c if c <= n - k or c == n else n - c for c in range(n + 1)]


def _block_values(n, k, l):
    return list(range(0, n + 1, l))


OBJECTIVES = {
    "ones": ("ones", _identity),
    "zeroes": ("ones", lambda n, k, l: _identity(n, k, l)[::-1]),
    "leading ones": ("leading ones", _identity),
    "trailing zeroes": ("trailing zeroes", _identity),
    "one-jump": ("ones", _jump),
    "zero-jump": ("ones", lambda n, k, l: _jump(n, k, l)[::-1]),
    "ones in first half plus zeroes in second half":
        ("first-half ones plus second-half zeroes", _identity),
    "all-ones blocks": ("all-ones blocks", _block_values),
    "all-zeroes blocks": ("all-zeroes blocks", _block_values),
}

JUMP_OBJECTIVES = ("one-jump", "zero-jump")


def _block_length(n, k, l):
    if l < 1 or n % l:
        return "l must be a positive divisor of n"
    if n // l < 2:
        return "needs at least two blocks (n/l > 1)"
    return None


def _block_profile(n: int, l: int, index: int) -> list[int]:
    """Ones count per block, left to right."""
    b = n // l
    mask = (1 << l) - 1
    return [((index >> (n - (j + 1) * l)) & mask).bit_count() for j in range(b)]


def _completed_indices(n, k, l) -> set[int]:
    """All strings whose blocks are each all-ones or all-zeroes."""
    out = {0}
    for j in range(n // l):
        block = ((1 << l) - 1) << (j * l)
        out |= {i | block for i in out}
    return out


def _prefixes(n, k, l):
    """All strings of leading ones then zeroes."""
    return {((1 << i) - 1) << (n - i) for i in range(n + 1)}


def _block_prefixes(n, k, l):
    return {i for i in _prefixes(n, k, l) if i.bit_count() % l == 0}


def _ojzr_pareto_set(n, k, l):
    # A completed string with n - k ones has exactly k // l zero blocks, so
    # the two sets overlap only when l divides k.
    zero_blocks = _blocks(False, n, l)
    keep = {i for i in _completed_indices(n, k, l) if i.bit_count() <= n - k}
    keep |= {i for i in range(1 << n) if i.bit_count() == n - k and zero_blocks(i) == k // l}
    return keep | {(1 << n) - 1}


def _orzr_local_optima(n, k, l):
    out = set()
    for i in range(1 << n):
        open_blocks = [
            ones for ones in _block_profile(n, l, i) if 0 < ones < l
        ]
        if open_blocks and all(2 <= ones <= l - 2 for ones in open_blocks):
            out.add(i)
    return out


def _lozr_local_optima(n, k, l):
    lead_of = _leading_ones(n, l)
    candidates = set()
    for i in range(1 << n):
        lead = lead_of(i)
        if lead % l or lead == n:
            continue
        profile = _block_profile(n, l, i)
        head = lead // l
        if profile[head] != 0:
            continue
        if all(profile[j] != 1 for j in range(head + 1, n // l)):
            candidates.add(i)
    return candidates - _block_prefixes(n, k, l)


def _ojzr_local_optima(n, k, l):
    zero_blocks = _blocks(False, n, l)
    return {i for i in range(1 << n) if i.bit_count() == n - k and zero_blocks(i) < k // l}


def _diagonal_front(n, k, l):
    return {(i, n - i) for i in range(n + 1)}


def _block_front(n, k, l):
    b = n // l
    return {(i * l, (b - i) * l) for i in range(b + 1)}


def _zero_jump_front(n, k, l):
    return {(0, n + k)} | {(i, n + k - i) for i in range(k, n + 1)}


def _ojzr_front(n, k, l):
    p = k // l
    front = {(n + k, 0)} | {(i * l + k, n - i * l) for i in range(p + 1)}
    if (n - k) % l:
        front |= {(n - k, p * l)}
    return front


@dataclass(frozen=True, slots=True)
class FamilyInfo:
    """One family, defined in one place.

    `objectives` name its two scalar objectives, keys of OBJECTIVES;
    `rule(n, k, l)` returns why parameters of the right kinds are invalid,
    or None, and `constraints` states it for people. The closed forms take
    (n, k, l): `pareto_set` and `local_optima` give index sets, `front` the
    front as printed. They are exact oracles unless `exact` is False.
    """

    name: str
    objectives: tuple[str, str]
    params: tuple[str, ...]
    constraints: str
    pareto_set: Callable[..., set[int]]
    front: Callable[..., set[ObjectiveVector]]
    rule: Callable[..., str | None] = lambda n, k, l: None
    local_optima: Callable[..., set[int]] = lambda n, k, l: set()
    exact: bool = True


_CATALOG = (
    FamilyInfo("omm", ("ones", "zeroes"), (), "1 <= n <= 63",
               pareto_set=lambda n, k, l: set(range(1 << n)), front=_diagonal_front),
    FamilyInfo("lotz", ("leading ones", "trailing zeroes"), (), "1 <= n <= 63",
               pareto_set=_prefixes, front=_diagonal_front),
    FamilyInfo("ojzj", ("one-jump", "zero-jump"), ("k",), "1 <= k < n/2",
               rule=lambda n, k, l: None if 1 <= k and 2 * k < n else "requires 1 <= k < n/2",
               pareto_set=lambda n, k, l: {0, (1 << n) - 1}
               | {i for i in range(1 << n) if k <= i.bit_count() <= n - k},
               front=lambda n, k, l: {(k, n + k), (n + k, k)}
               | {(k + s, n + k - s) for s in range(k, n - k + 1)}),
    FamilyInfo("cocz", ("ones", "ones in first half plus zeroes in second half"), (), "n even",
               rule=lambda n, k, l: "n must be even" if n % 2 else None,
               pareto_set=lambda n, k, l: {
                   ((1 << n // 2) - 1) << n // 2 | low for low in range(1 << n // 2)
               },
               front=lambda n, k, l: {(n // 2 + j, n - j) for j in range(n // 2 + 1)}),
    FamilyInfo("orzr", ("all-ones blocks", "all-zeroes blocks"), ("l",), "l divides n, n/l > 1",
               rule=_block_length, pareto_set=_completed_indices,
               local_optima=_orzr_local_optima, front=_block_front),
    FamilyInfo("omtz", ("ones", "trailing zeroes"), (), "1 <= n <= 63",
               pareto_set=_prefixes, front=_diagonal_front),
    FamilyInfo("omzj", ("ones", "zero-jump"), ("k",), "1 < k < n/2",
               rule=lambda n, k, l: None if 1 < k and 2 * k < n else "requires 1 < k < n/2",
               pareto_set=lambda n, k, l: {0} | {i for i in range(1 << n) if i.bit_count() >= k},
               front=_zero_jump_front),
    FamilyInfo("omzr", ("ones", "all-zeroes blocks"), ("l",), "l divides n, n/l > 1",
               rule=_block_length, pareto_set=_completed_indices, front=_block_front),
    FamilyInfo("lozj", ("leading ones", "zero-jump"), ("k",), "1 < k < n/2",
               rule=lambda n, k, l: None if 1 < k and 2 * k < n else "requires 1 < k < n/2",
               pareto_set=lambda n, k, l: {0}
               | {i for i in _prefixes(n, k, l) if i.bit_count() >= k},
               local_optima=lambda n, k, l: {
                   i for i in range(1 << n) if i.bit_count() == k and i >> (n - k) != (1 << k) - 1
               },
               front=_zero_jump_front),
    FamilyInfo("lozr", ("leading ones", "all-zeroes blocks"), ("l",), "l divides n, n/l > 1",
               rule=_block_length, pareto_set=_block_prefixes,
               local_optima=_lozr_local_optima, front=_block_front),
    # The ojzr closed forms assume the block length is below the gap, which
    # not every valid instance satisfies, so they are informational.
    FamilyInfo("ojzr", ("one-jump", "all-zeroes blocks"), ("k", "l"),
               "1 < k <= floor(n/2), l divides n, n/l > 1",
               rule=lambda n, k, l: _block_length(n, k, l) if 1 < k and 2 * k <= n
               else "requires 1 < k <= floor(n/2)",
               pareto_set=_ojzr_pareto_set, local_optima=_ojzr_local_optima, front=_ojzr_front,
               exact=False),
)

_BY_NAME = {info.name: info for info in _CATALOG}

FAMILY_NAMES = tuple(info.name for info in _CATALOG)


def family_catalog() -> tuple[FamilyInfo, ...]:
    """All supported families with their parameter requirements."""
    return _CATALOG


def _fail(family: str, n: int, k: int | None, l: int | None, reason: str) -> None:
    given = f"n={n}" + (f", k={k}" if k is not None else "") + (
        f", l={l}" if l is not None else ""
    )
    raise ValidationError(f"{family}: {reason} (got {given})")


def validate(family: str, n: int, k: int | None = None, l: int | None = None) -> ProblemInstance:
    """Check all family constraints and return the instance, or raise ValidationError."""
    name = family.lower()
    info = _BY_NAME.get(name)
    if info is None:
        raise ValidationError(
            f"unknown family {family!r}; valid: {', '.join(FAMILY_NAMES)}"
        )
    for label, value in (("n", n), ("k", k), ("l", l)):
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            _fail(name, n, k, l, f"{label} must be an integer")
    if not 1 <= n <= MAX_LENGTH:
        _fail(name, n, k, l, f"n must be in [1, {MAX_LENGTH}]")
    for label, value in (("k", k), ("l", l)):
        if (label in info.params) != (value is not None):
            verb = "requires" if label in info.params else "does not take"
            _fail(name, n, k, l, f"{verb} parameter {label}")
    reason = info.rule(n, k, l)
    if reason is not None:
        _fail(name, n, k, l, reason)
    return ProblemInstance(name, n, k, l)


def parse_descriptor(text: str) -> ProblemInstance:
    """Parse "family:n=..,k=..,l=.." (family and keys case-insensitive)."""
    head, sep, tail = text.partition(":")
    if not sep or not head:
        raise DescriptorError(f"descriptor must look like 'family:n=..', got {text!r}")
    params: dict[str, int] = {}
    for item in tail.split(","):
        key, eq, value = item.partition("=")
        key = key.strip().lower()
        if not eq or key not in ("n", "k", "l"):
            raise DescriptorError(f"bad descriptor parameter {item!r} in {text!r}")
        if key in params:
            raise DescriptorError(f"duplicate parameter {key!r} in {text!r}")
        try:
            params[key] = int(value)
        except ValueError:
            raise DescriptorError(f"parameter {key!r} needs an integer, got {value!r}") from None
    if "n" not in params:
        raise DescriptorError(f"descriptor must set n, got {text!r}")
    return validate(head.strip().lower(), params["n"], params.get("k"), params.get("l"))


@lru_cache(maxsize=128)
def index_evaluator(inst: ProblemInstance):
    """Closure mapping a raw index in [0, 2^n) to the instance's objective pair.

    This is the hot path for exhaustive enumeration and the evolutionary
    loops; it must agree with evaluate() everywhere (tests pin that).
    """
    (s1, t1), (s2, t2) = (
        (STATISTICS[statistic](inst.n, inst.l), table(inst.n, inst.k, inst.l))
        for statistic, table in (OBJECTIVES[name] for name in inst.info.objectives)
    )
    return lambda i: (t1[s1(i)], t2[s2(i)])


def evaluate(inst: ProblemInstance, x: BitString) -> ObjectiveVector:
    """Objective pair of x under the instance's two objectives."""
    if x.n != inst.n:
        raise ValidationError(
            f"string length {x.n} does not match instance n={inst.n}"
        )
    return index_evaluator(inst)(x.index)
