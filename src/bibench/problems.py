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
from itertools import compress
from typing import Callable

from .bitstring import MAX_LENGTH, BitString
from .dominance import ObjectiveVector
from .errors import DescriptorError, ValidationError


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
        return ",".join(parts)

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
    # Adding 1 at the bottom of a block whose top bit is cleared carries
    # into that top bit exactly when the block's other bits are all ones.
    low = sum(1 << s for s in range(0, n, l))
    high = low << (l - 1)
    flip = 0 if want_ones else (1 << n) - 1

    def count(i):
        x = i ^ flip
        return (((x & ~high) + low) & x & high).bit_count()

    return count


STATISTICS = {
    "ones": lambda n, l: int.bit_count,
    "leading ones": _leading_ones,
    "trailing zeroes": lambda n, l: lambda i: n if i == 0 else (i & -i).bit_length() - 1,
    "first-half ones plus second-half zeroes": _half_mix,
    "all-ones blocks": partial(_blocks, True),
    "all-zeroes blocks": partial(_blocks, False),
}

# The same statistics as byte planes: a plane builder takes (n, l) and
# returns 2^n bytes whose byte i is the statistic at index i. Each builder
# starts from the empty string's plane and doubles it, prepending one index
# bit (or one block) at a time: the lower half of the new plane is the new
# bit clear, the upper half set.

_INC = bytes(range(1, 256)) + b"\0"


def _ones_plane(n, l, p=b"\0"):
    for _ in range(n):
        p = p + p.translate(_INC)
    return p


def _leading_ones_plane(n, l):
    p = b"\0"
    for m in range(n):
        p = bytes(1 << m) + p.translate(_INC)
    return p


def _trailing_zeroes_plane(n, l):
    # Only the all-zero string gains a trailing zero when a 0 is prepended.
    p = b"\0"
    for m in range(n):
        p = bytes([m + 1]) + p[1:] + p
    return p


def _half_mix_plane(n, l):
    half = n // 2
    p = b"\0"
    for _ in range(half):
        p = p.translate(_INC) + p
    return _ones_plane(n - half, l, p)


def _blocks_plane(want_ones: bool, n, l):
    p = b"\0"
    for _ in range(n // l):
        rest = p * ((1 << l) - 1)
        p = rest + p.translate(_INC) if want_ones else p.translate(_INC) + rest
    return p


STATISTIC_PLANES = {
    "ones": _ones_plane,
    "leading ones": _leading_ones_plane,
    "trailing zeroes": _trailing_zeroes_plane,
    "first-half ones plus second-half zeroes": _half_mix_plane,
    "all-ones blocks": partial(_blocks_plane, True),
    "all-zeroes blocks": partial(_blocks_plane, False),
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


# The closed forms below that filter the whole cube read statistic planes:
# each test is a 256-entry table applied to a plane with bytes.translate.


def _mark(plane: bytes, test) -> bytes:
    """Byte i is 1 where test holds for byte i of the plane, else 0."""
    return plane.translate(bytes(test(v) for v in range(256)))


def _where(*marks: bytes) -> set[int]:
    """The indices marked in every one of the marks."""
    both = marks[0]
    for mark in marks[1:]:
        both = (int.from_bytes(both, "little") & int.from_bytes(mark, "little")).to_bytes(
            len(mark), "little"
        )
    return set(compress(range(len(both)), both))


def _block_automaton(n, l, move) -> bytes:
    """Plane of the state an automaton reaches from state 0 by reading the
    blocks left to right; move(state, ones) is its step on a block with that
    many ones. Appending a block at the low end of the index puts the states
    after block value v at every 2^l-th byte from byte v."""
    width = 1 << l
    by_ones = [bytes(move(s, ones) for s in range(256)) for ones in range(l + 1)]
    moves = [by_ones[v.bit_count()] for v in range(width)]
    p = b"\0"
    for _ in range(n // l):
        q = bytearray(len(p) * width)
        for v, table in enumerate(moves):
            q[v::width] = p.translate(table)
        p = bytes(q)
    return p


def _ojzr_pareto_set(n, k, l):
    # A completed string with n - k ones has exactly k // l zero blocks, so
    # the two sets overlap only when l divides k.
    keep = {i for i in _completed_indices(n, k, l) if i.bit_count() <= n - k}
    keep |= _where(
        _mark(_ones_plane(n, l), lambda s: s == n - k),
        _mark(_blocks_plane(False, n, l), lambda z: z == k // l),
    )
    return keep | {(1 << n) - 1}


def _orzr_local_optima(n, k, l):
    # State 0: every block so far all-ones or all-zeroes; 1: some block
    # open with 2 to l - 2 ones, none with 1 or l - 1; 2: one with 1 or l - 1.
    def move(state, ones):
        if ones in (0, l):
            return state
        return max(state, 1) if 2 <= ones <= l - 2 else 2

    return _where(_mark(_block_automaton(n, l, move), lambda state: state == 1))


def _lozr_local_optima(n, k, l):
    # Full blocks, then an all-zero block, then blocks none of which holds
    # exactly one 1, not all zero (those strings are block prefixes).
    # State 0: only full blocks so far; 1: then a zero block and zero blocks;
    # 2: then some block with two or more ones; 3: rejected.
    def move(state, ones):
        if state == 0:
            return 0 if ones == l else 1 if ones == 0 else 3
        if state == 3 or ones == 1:
            return 3
        return 1 if state == 1 and ones == 0 else 2

    return _where(_mark(_block_automaton(n, l, move), lambda state: state == 2))


def _ojzr_local_optima(n, k, l):
    return _where(
        _mark(_ones_plane(n, l), lambda s: s == n - k),
        _mark(_blocks_plane(False, n, l), lambda z: z < k // l),
    )


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
               pareto_set=lambda n, k, l: _where(
                   _mark(_ones_plane(n, l), lambda s: s in (0, n) or k <= s <= n - k)
               ),
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
               pareto_set=lambda n, k, l: _where(
                   _mark(_ones_plane(n, l), lambda s: s == 0 or s >= k)
               ),
               front=_zero_jump_front),
    FamilyInfo("omzr", ("ones", "all-zeroes blocks"), ("l",), "l divides n, n/l > 1",
               rule=_block_length, pareto_set=_completed_indices, front=_block_front),
    FamilyInfo("lozj", ("leading ones", "zero-jump"), ("k",), "1 < k < n/2",
               rule=lambda n, k, l: None if 1 < k and 2 * k < n else "requires 1 < k < n/2",
               pareto_set=lambda n, k, l: {0}
               | {i for i in _prefixes(n, k, l) if i.bit_count() >= k},
               local_optima=lambda n, k, l: _where(
                   _mark(_ones_plane(n, l), lambda s: s == k),
                   _mark(_leading_ones_plane(n, l), lambda lead: lead < k),
               ),
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


def objective_planes(inst: ProblemInstance) -> tuple[bytes, bytes]:
    """Both objectives as byte planes: byte i of each is that objective's
    value at index i, the values index_evaluator gives."""
    return tuple(
        STATISTIC_PLANES[statistic](inst.n, inst.l).translate(
            bytes(table(inst.n, inst.k, inst.l)).ljust(256, b"\0")
        )
        for statistic, table in (OBJECTIVES[name] for name in inst.info.objectives)
    )


def evaluate(inst: ProblemInstance, x: BitString) -> ObjectiveVector:
    """Objective pair of x under the instance's two objectives."""
    if x.n != inst.n:
        raise ValidationError(
            f"string length {x.n} does not match instance n={inst.n}"
        )
    return index_evaluator(inst)(x.index)
