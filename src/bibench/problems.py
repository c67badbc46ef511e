"""Bi-objective problem families, their instances, and evaluation.

Each family composes two scalar objectives into a maximized pair and is
defined by one record in the catalog: its objectives, parameter rule and
closed forms. Instances are value objects, checked when built; a compact
text descriptor ("ojzr:n=12,k=5,l=3") names an instance uniquely and
round-trips through parse_descriptor/descriptor.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

from .bitstring import MAX_LENGTH, BitString
from .dominance import ObjectiveVector
from .errors import DescriptorError, ValidationError


@dataclass(frozen=True, slots=True)
class ProblemInstance:
    family: str
    n: int
    k: int | None = None
    l: int | None = None

    def __post_init__(self) -> None:
        family, n, k, l = self.family, self.n, self.k, self.l
        info = _BY_NAME.get(family) if isinstance(family, str) else None
        if info is None:
            raise ValidationError(f"unknown family {family!r}; valid: {', '.join(FAMILY_NAMES)}")
        for label, value in (("n", n), ("k", k), ("l", l)):
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                _fail(family, n, k, l, f"{label} must be an integer")
        if n is None or not 1 <= n <= MAX_LENGTH:
            _fail(family, n, k, l, f"n must be in [1, {MAX_LENGTH}]")
        for label, value in (("k", k), ("l", l)):
            if (label in info.params) != (value is not None):
                verb = "requires" if label in info.params else "does not take"
                _fail(family, n, k, l, f"{verb} parameter {label}")
        reason = info.rule(n, k, l)
        if reason is not None:
            _fail(family, n, k, l, reason)

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
# count in 0..n (index bit n-1 is string position 1). It has two forms, each
# built from the parameters (n, l):
#
# - its index form in STATISTICS, a function of one index, which evaluation
#   and search call string by string;
# - its automaton in AUTOMATA, which reads the index bits from bit 0 upward.
#   step(state, bit, m) is the state after index bit m, given the state after
#   the bits below m (state 0 before any bit), and value(state) is the
#   statistic once all n bits are read. Every state fits in a byte.
#
# Whole-cube work runs the automata through their step tables: per index bit
# m and bit value, one table indexed by state, filled over the states that
# can occur before bit m and padded to 256 bytes where bytes.translate reads
# it. The same tables build a statistic's byte plane by doubling
# (statistic_plane) and count the image of an instance by a DP over the
# index bits (image_counts).
#
# A table builder takes (n, k, l) and returns the list of objective values by
# statistic value.


class Automaton(NamedTuple):
    step: Callable[[int, int, int], int]
    value: Callable[[int], int] = lambda state: state


def _ones_automaton(n, l):
    return Automaton(lambda s, bit, m: s + bit)


def _leading_ones(n, l):
    mask = (1 << n) - 1
    return lambda i: n - (i ^ mask).bit_length()


def _leading_ones_automaton(n, l):
    # The run of ones that ends at the latest bit read; after bit n-1 it is
    # the run that starts at string position 1.
    return Automaton(lambda s, bit, m: s + 1 if bit else 0)


def _trailing_zeroes_automaton(n, l):
    # The zero bits below the lowest one bit: the state is m while every bit
    # below m is zero, and stays below m once a one has been read.
    return Automaton(lambda s, bit, m: s + 1 if s == m and not bit else s)


def _half_mix(n, l):
    half = n // 2
    half_mask = (1 << half) - 1
    return lambda i: (i >> half).bit_count() + (half - (i & half_mask).bit_count())


def _half_mix_automaton(n, l):
    # The low half of the index is the second half of the string.
    half = n // 2
    return Automaton(lambda s, bit, m: s + (bit if m >= half else 1 - bit))


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


def _blocks_automaton(want_ones: bool, n, l):
    # State 2c + d: c blocks closed with every bit the wanted one, and d = 1
    # once the open block holds an unwanted bit. Bit m closes a block when
    # m + 1 is a multiple of l.
    want = int(want_ones)

    def step(s, bit, m):
        s |= bit != want
        return s if (m + 1) % l else (s >> 1) + 1 - (s & 1) << 1

    return Automaton(step, lambda s: s >> 1)


STATISTICS = {
    "ones": lambda n, l: int.bit_count,
    "leading ones": _leading_ones,
    "trailing zeroes": lambda n, l: lambda i: n if i == 0 else (i & -i).bit_length() - 1,
    "first-half ones plus second-half zeroes": _half_mix,
    "all-ones blocks": partial(_blocks, True),
    "all-zeroes blocks": partial(_blocks, False),
}

AUTOMATA = {
    "ones": _ones_automaton,
    "leading ones": _leading_ones_automaton,
    "trailing zeroes": _trailing_zeroes_automaton,
    "first-half ones plus second-half zeroes": _half_mix_automaton,
    "all-ones blocks": partial(_blocks_automaton, True),
    "all-zeroes blocks": partial(_blocks_automaton, False),
}


def _automaton_tables(automaton: Automaton, n: int):
    """The automaton as tables indexed by state: for each bit read, m = 0 to
    n - 1, the pair of tables of its step on bit 0 and on bit 1, filled over
    the states that can occur before that bit and zero elsewhere. Also
    returns the value table, over the states that can occur after the last
    bit."""
    step, value = automaton
    states = {0}
    tables = []
    for m in range(n):
        pair = (bytearray(max(states) + 1), bytearray(max(states) + 1))
        for bit, table in enumerate(pair):
            for s in states:
                table[s] = step(s, bit, m)
        tables.append(tuple(map(bytes, pair)))
        states = {table[s] for table in pair for s in states}
    values = bytearray(max(states) + 1)
    for s in states:
        values[s] = value(s)
    return tuple(tables), bytes(values)


# Instances of one size share their statistics' tables, so a grid of
# instances builds few of them.
@lru_cache(maxsize=64)
def _step_tables(statistic: str, n: int, l: int | None):
    """The step and value tables of the statistic's automaton."""
    return _automaton_tables(AUTOMATA[statistic](n, l), n)


def _translate(plane: bytes, table: bytes) -> bytes:
    """Byte i is table[plane[i]], every byte of the plane indexing table."""
    return plane.translate(table.ljust(256, b"\0"))


def _state_plane(tables, downward: bool = False) -> bytes:
    """Byte i is the automaton's state after reading every bit of index i,
    from bit 0 upward: each bit read becomes the new high bit of the index.
    Downward, each bit read becomes the new low bit, so the first bit read
    is index bit n-1."""
    p = b"\0"
    for t0, t1 in tables:
        if downward:
            q = bytearray(2 * len(p))
            q[::2] = _translate(p, t0)
            q[1::2] = _translate(p, t1)
            p = q
        else:
            p = _translate(p, t0) + _translate(p, t1)
    return p


def statistic_plane(statistic: str, n: int, l: int | None) -> bytes:
    """The statistic as a byte plane: 2^n bytes whose byte i is the
    statistic at index i."""
    tables, values = _step_tables(statistic, n, l)
    return _translate(_state_plane(tables), values)


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


# The closed forms below give packed bits: an int whose bit i is set when
# the string with index i is in the set. They are built by whole-plane
# operations only: marks of statistic planes, their AND and OR, doubling and
# runs of ones; the few strings of a prefix family are set one by one.


def _pack_bits(flags: bytes) -> int:
    """The int whose bit i is byte i of flags, every byte 0 or 1."""
    packed = 0
    for k in range(8):
        packed |= int.from_bytes(flags[k::8], "little") << k
    return packed


def _completed(n, k, l) -> int:
    """The strings whose blocks are each all-ones or all-zeroes. Each block
    added at the high end of the index repeats the set at block values 0
    and 2^l - 1."""
    mask = width = 1
    for _ in range(n // l):
        mask |= mask << (width * ((1 << l) - 1))
        width <<= l
    return mask


def _prefixes(n, counts) -> int:
    """The strings of leading ones then zeroes with each of the given numbers
    of ones."""
    mask = 0
    for c in counts:
        mask |= 1 << (((1 << c) - 1) << (n - c))
    return mask


def _mark(plane: bytes, values) -> int:
    """The indices whose byte in the plane is one of the values: one
    bytes.translate, by a table set at those values alone, then packed."""
    table = bytearray(256)
    for v in values:
        table[v] = 1
    return _pack_bits(plane.translate(table))


def _block_automaton(n, l, move) -> bytes:
    """Plane of the state an automaton reaches from state 0 by reading the
    blocks left to right; move(state, ones) is its step on a block with that
    many ones. It runs bit by bit from index bit n-1 down, on the state
    (l + 1) * (state before the open block) + (ones in the open block)."""
    width = l + 1

    def step(s, bit, m):
        s += bit
        return s if (m + 1) % l else move(s // width, s % width) * width

    tables, values = _automaton_tables(Automaton(step, lambda s: s // width), n)
    return _translate(_state_plane(tables, downward=True), values)


def _ojzr_pareto_set(n, k, l):
    # A completed string with n - k ones has exactly k // l zero blocks, so
    # the two sets overlap only when l divides k.
    ones = statistic_plane("ones", n, l)
    completed = _completed(n, k, l) & _mark(ones, (*range(n - k + 1), n))
    middle = _mark(ones, (n - k,)) & _mark(statistic_plane("all-zeroes blocks", n, l), (k // l,))
    return completed | middle


def _orzr_move(l, state, ones):
    # State 0: every block so far all-ones or all-zeroes; 1: some block
    # open with 2 to l - 2 ones, none with 1 or l - 1; 2: one with 1 or l - 1.
    if ones in (0, l):
        return state
    return max(state, 1) if 2 <= ones <= l - 2 else 2


def _lozr_move(l, state, ones):
    # Full blocks, then an all-zero block, then blocks none of which holds
    # exactly one 1, not all zero (those strings are block prefixes).
    # State 0: only full blocks so far; 1: then a zero block and zero blocks;
    # 2: then some block with two or more ones; 3: rejected.
    if state == 0:
        return 0 if ones == l else 1 if ones == 0 else 3
    if state == 3 or ones == 1:
        return 3
    return 1 if state == 1 and ones == 0 else 2


def _ojzr_local_optima(n, k, l):
    return _mark(statistic_plane("ones", n, l), (n - k,)) & _mark(
        statistic_plane("all-zeroes blocks", n, l), range(k // l)
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
    (n, k, l): `pareto_set` and `local_optima` give packed bits, an int whose
    bit i is set when the string with index i is in the set, and `front`
    gives the front as printed. They are exact oracles unless
    `exact` is False.
    """

    name: str
    objectives: tuple[str, str]
    params: tuple[str, ...]
    constraints: str
    pareto_set: Callable[..., int]
    front: Callable[..., set[ObjectiveVector]]
    rule: Callable[..., str | None] = lambda n, k, l: None
    local_optima: Callable[..., int] = lambda n, k, l: 0
    exact: bool = True


_CATALOG = (
    FamilyInfo("omm", ("ones", "zeroes"), (), "1 <= n <= 63",
               pareto_set=lambda n, k, l: (1 << (1 << n)) - 1, front=_diagonal_front),
    FamilyInfo("lotz", ("leading ones", "trailing zeroes"), (), "1 <= n <= 63",
               pareto_set=lambda n, k, l: _prefixes(n, range(n + 1)), front=_diagonal_front),
    FamilyInfo("ojzj", ("one-jump", "zero-jump"), ("k",), "1 <= k < n/2",
               rule=lambda n, k, l: None if 1 <= k and 2 * k < n else "requires 1 <= k < n/2",
               pareto_set=lambda n, k, l: _mark(
                   statistic_plane("ones", n, l), (0, *range(k, n - k + 1), n)
               ),
               front=lambda n, k, l: {(k, n + k), (n + k, k)}
               | {(k + s, n + k - s) for s in range(k, n - k + 1)}),
    # The Pareto set is the strings whose first half is all ones: the last
    # 2^(n/2) indices.
    FamilyInfo("cocz", ("ones", "ones in first half plus zeroes in second half"), (), "n even",
               rule=lambda n, k, l: "n must be even" if n % 2 else None,
               pareto_set=lambda n, k, l: ((1 << (1 << n // 2)) - 1)
               << ((1 << n) - (1 << n // 2)),
               front=lambda n, k, l: {(n // 2 + j, n - j) for j in range(n // 2 + 1)}),
    FamilyInfo("orzr", ("all-ones blocks", "all-zeroes blocks"), ("l",), "l divides n, n/l > 1",
               rule=_block_length, pareto_set=_completed,
               local_optima=lambda n, k, l: _mark(
                   _block_automaton(n, l, partial(_orzr_move, l)), (1,)
               ),
               front=_block_front),
    FamilyInfo("omtz", ("ones", "trailing zeroes"), (), "1 <= n <= 63",
               pareto_set=lambda n, k, l: _prefixes(n, range(n + 1)), front=_diagonal_front),
    FamilyInfo("omzj", ("ones", "zero-jump"), ("k",), "1 < k < n/2",
               rule=lambda n, k, l: None if 1 < k and 2 * k < n else "requires 1 < k < n/2",
               pareto_set=lambda n, k, l: _mark(
                   statistic_plane("ones", n, l), (0, *range(k, n + 1))
               ),
               front=_zero_jump_front),
    FamilyInfo("omzr", ("ones", "all-zeroes blocks"), ("l",), "l divides n, n/l > 1",
               rule=_block_length, pareto_set=_completed, front=_block_front),
    FamilyInfo("lozj", ("leading ones", "zero-jump"), ("k",), "1 < k < n/2",
               rule=lambda n, k, l: None if 1 < k and 2 * k < n else "requires 1 < k < n/2",
               pareto_set=lambda n, k, l: _prefixes(n, (0, *range(k, n + 1))),
               local_optima=lambda n, k, l: _mark(statistic_plane("ones", n, l), (k,))
               & _mark(statistic_plane("leading ones", n, l), range(k)),
               front=_zero_jump_front),
    FamilyInfo("lozr", ("leading ones", "all-zeroes blocks"), ("l",), "l divides n, n/l > 1",
               rule=_block_length, pareto_set=lambda n, k, l: _prefixes(n, range(0, n + 1, l)),
               local_optima=lambda n, k, l: _mark(
                   _block_automaton(n, l, partial(_lozr_move, l)), (2,)
               ),
               front=_block_front),
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
    return ProblemInstance(head.strip().lower(), params["n"], params.get("k"), params.get("l"))


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


def _objective_tables(inst: ProblemInstance):
    """Per objective, the step tables of its statistic and the table from a
    state after the last bit to the objective value."""
    out = []
    for statistic, table in (OBJECTIVES[name] for name in inst.info.objectives):
        tables, values = _step_tables(statistic, inst.n, inst.l)
        out.append((tables, _translate(values, bytes(table(inst.n, inst.k, inst.l)))))
    return out


def objective_planes(inst: ProblemInstance) -> tuple[bytes, bytes]:
    """Both objectives as byte planes: byte i of each is that objective's
    value at index i, the values index_evaluator gives."""
    (tables1, final1), (tables2, final2) = _objective_tables(inst)
    # Objectives of one statistic (omm, ojzj) share its state plane.
    states = _state_plane(tables1)
    other = states if tables2 == tables1 else _state_plane(tables2)
    return _translate(states, final1), _translate(other, final2)


def image_counts(inst: ProblemInstance) -> dict[tuple[int, int, int], int]:
    """How many strings have each (f1, f2, ones): a DP over the index bits,
    from bit 0 upward, on the triples of automaton states of both
    objectives' statistics and of the ones count, each with the number of
    index prefixes that reach it."""
    (tables1, final1), (tables2, final2) = _objective_tables(inst)
    ones_tables, ones = _step_tables("ones", inst.n, None)
    counts = {(0, 0, 0): 1}
    for (a0, a1), (b0, b1), (c0, c1) in zip(tables1, tables2, ones_tables):
        after = defaultdict(int)
        for (a, b, c), count in counts.items():
            after[a0[a], b0[b], c0[c]] += count
            after[a1[a], b1[b], c1[c]] += count
        counts = after
    image = defaultdict(int)
    for (a, b, c), count in counts.items():
        image[final1[a], final2[b], ones[c]] += count
    return dict(image)


def evaluate(inst: ProblemInstance, x: BitString) -> ObjectiveVector:
    """Objective pair of x under the instance's two objectives."""
    if not isinstance(x, BitString):
        raise ValidationError(f"x must be a BitString, got {x!r}")
    if x.n != inst.n:
        raise ValidationError(
            f"string length {x.n} does not match instance n={inst.n}"
        )
    return index_evaluator(inst)(x.index)
