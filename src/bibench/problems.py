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
from functools import lru_cache, partial, reduce
from itertools import compress
from operator import or_
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
# count in 0..n (index bit n-1 is string position 1). Its record in
# STATISTICS holds two forms, each built from the parameters (n, l), and
# whether it reads l:
#
# - its index form, a function of one index, which evaluation and search
#   call string by string;
# - its automaton, a step function that reads the index bits from bit 0
#   upward: step(state, bit, m) is the state after index bit m, given the
#   state after the bits below m (state 0 before any bit). The state after
#   bit n-1 is the statistic, and every state fits in a byte.
#
# Whole-cube work runs the automata through their step tables: per index bit
# m and bit value, one table indexed by state, filled over the states that
# can occur before bit m and padded to 256 bytes where bytes.translate reads
# it. After the last bit the objective's own value table (OBJECTIVES) maps
# the state to the objective value. The same tables count the image of an
# instance by ones count in one DP over the index bits on pairs of both
# objectives' states (image_polys), and, run over packed bits instead of
# bytes, give the set of indices that reaches each state (_index_sets), over
# blocks of at most 2^_SET_BITS indices with the state each block ends in
# (_cells). The cells hold states only. Unions of their sets are selected by
# pairs of final states, every Pareto set and two local-optimum closed forms
# (_pair_bits), and by a table over final states (_select), the block closed
# forms (_where) and, through the value tables, the local-optimum scan's bit
# planes. Read as they are, with no cube, the tables also decide symmetry,
# by a DP that reads f2's tables in reverse, and separability, by DPs on
# pairs of one objective's states (landscape.is_symmetric_pair,
# landscape.is_fully_separable), and the image's levels decide complete
# conflict and the front's shape (landscape._image_levels).
#
# A table builder takes (n, k, l) and returns the list of objective values by
# statistic value.


class _Statistic(NamedTuple):
    index: Callable[[int, int | None], Callable[[int], int]]
    automaton: Callable[[int, int | None], Callable[[int, int, int], int]]
    reads_l: bool = False


def _leading_ones(n, l):
    mask = (1 << n) - 1
    return lambda i: n - (i ^ mask).bit_length()


def _leading_ones_automaton(n, l):
    # The run of ones that ends at the latest bit read; after bit n-1 it is
    # the run that starts at string position 1.
    return lambda s, bit, m: s + 1 if bit else 0


def _trailing_zeroes_automaton(n, l):
    # The zero bits below the lowest one bit: the state is m while every bit
    # below m is zero, and stays below m once a one has been read.
    return lambda s, bit, m: s + 1 if s == m and not bit else s


def _half_mix(n, l):
    half = n // 2
    half_mask = (1 << half) - 1
    return lambda i: (i >> half).bit_count() + (half - (i & half_mask).bit_count())


def _half_mix_automaton(n, l):
    # The low half of the index is the second half of the string.
    half = n // 2
    return lambda s, bit, m: s + (bit if m >= half else 1 - bit)


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
    # State c, the blocks closed with every bit the wanted one, while the
    # open block holds none other, and c + b once it does, b above every
    # count of blocks. Bit m closes a block when m + 1 is a multiple of l,
    # and l divides n, so bit n-1 closes one.
    want, b = int(want_ones), n // l + 1

    def step(s, bit, m):
        c, dirty = s % b, s >= b or bit != want
        return c + b * dirty if (m + 1) % l else c + (not dirty)

    return step


STATISTICS = {
    "ones": _Statistic(lambda n, l: int.bit_count, lambda n, l: lambda s, bit, m: s + bit),
    "leading ones": _Statistic(_leading_ones, _leading_ones_automaton),
    "trailing zeroes": _Statistic(
        lambda n, l: lambda i: n if i == 0 else (i & -i).bit_length() - 1,
        _trailing_zeroes_automaton,
    ),
    "first-half ones plus second-half zeroes": _Statistic(_half_mix, _half_mix_automaton),
    "all-ones blocks": _Statistic(
        partial(_blocks, True), partial(_blocks_automaton, True), reads_l=True
    ),
    "all-zeroes blocks": _Statistic(
        partial(_blocks, False), partial(_blocks_automaton, False), reads_l=True
    ),
}


# Instances of one size share their automata's tables, so a grid of
# instances builds few of them; an automaton that does not read l is asked
# for with l None. The verification grid asks for 88.
@lru_cache(maxsize=128)
def _step_tables(automaton: Callable[..., Callable], n: int, l: int | None):
    """The step function automaton(n, l) as tables indexed by state: for
    each bit read, m = 0 to n - 1, the pair of tables of its step on bit 0
    and on bit 1, filled over the states that can occur before that bit and
    zero elsewhere."""
    step = automaton(n, l)
    states = {0}
    tables = []
    for m in range(n):
        pair = (bytearray(max(states) + 1), bytearray(max(states) + 1))
        for bit, table in enumerate(pair):
            for s in states:
                table[s] = step(s, bit, m)
        tables.append(tuple(map(bytes, pair)))
        states = {table[s] for table in pair for s in states}
    return tuple(tables)


def _translate(plane: bytes, table: bytes) -> bytes:
    """Byte i is table[plane[i]], every byte of the plane indexing table."""
    return plane.translate(table.ljust(256, b"\0"))


def _state_plane(tables, p: bytes) -> bytes:
    """From a start plane p of states, byte r * len(p) + j is the
    automaton's state reached from p[j] by reading the bits of r, from bit 0
    upward: each bit read becomes the new high bit of r."""
    for t0, t1 in tables:
        p = _translate(p, t0) + _translate(p, t1)
    return p


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


def _block_moves(move, n, l):
    # The automaton that reads the blocks right to left, as the statistics'
    # automata read bits, with move(l, outer, ones) its step on a block with
    # that many ones, outer below 5: state outer + 5 * (3 * ones + zeroes),
    # outer the state before the open block and the open block's ones and
    # zeroes each capped at 2. A closing bit returns the move, so the state
    # after bit n-1 is the last block's. The moves tell apart only 0, 1,
    # 2..l-2, l-1 and l ones, so a closed block passes 0, l, 1, l-1 or 2.
    def step(s, bit, m):
        outer, ones, zeroes = s % 5, min(s // 15 + bit, 2), min(s // 5 % 3 + 1 - bit, 2)
        if (m + 1) % l:
            return outer + 5 * (3 * ones + zeroes)
        if ones and zeroes:
            ones = 1 if ones == 1 else l - 1 if zeroes == 1 else 2
        elif ones:
            ones = l
        return move(l, outer, ones)

    return step


def _orzr_move(l, state, ones):
    # State 0: every block so far all-ones or all-zeroes; 1: some block
    # with 2 to l - 2 ones, none with 1 or l - 1; 2: one with 1 or l - 1.
    # The order of the blocks does not matter.
    if ones in (0, l):
        return state
    return max(state, 1) if 2 <= ones <= l - 2 else 2


def _lozr_move(l, state, ones):
    # Read right to left, the strings are: blocks none of which holds
    # exactly one 1, not all zero (those strings are block prefixes), then
    # an all-zero block, then full blocks. State 4: a block with exactly one
    # 1 was read. 0: only zero blocks so far. 2: a block with two or more
    # ones, later a zero block, read last; 3: only full blocks since that
    # zero block. 1: any other blocks. 2 and 3 accept.
    if state == 4 or ones == 1:
        return 4
    if ones == 0:
        return 0 if state == 0 else 2
    return 3 if ones == l and state >= 2 else 1


_ORZR_OPTIMA = partial(_block_moves, _orzr_move)
_LOZR_OPTIMA = partial(_block_moves, _lozr_move)


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


def _block_pairs(n, k, l):
    # s ones or leading ones, s a multiple of l, the other bits in zero blocks.
    return [(s, (n - s) // l) for s in range(0, n + 1, l)]


def _ojzr_pareto(n, k, l):
    # The completed strings with at most n - k or n ones, and those with
    # n - k ones and k // l zero blocks, a completed string when l divides k.
    pairs = [(s, z) for s, z in _block_pairs(n, k, l) if s <= n - k or s == n]
    return pairs + [(n - k, k // l)]


@dataclass(frozen=True, slots=True)
class FamilyInfo:
    """One family, defined in one place.

    `objectives` name its two scalar objectives, keys of OBJECTIVES;
    `rule(n, k, l)` returns why parameters of the right kinds are invalid,
    or None, and `constraints` states it for people. The closed forms take
    (n, k, l): `pareto` gives the Pareto set as pairs (s1, s2) of the two
    objectives' statistics, and `local_optima` as packed bits, an int whose
    bit i is set when the string with index i is in the set, as pareto_set
    builds from the pairs; `front` gives the front as printed. They are
    exact oracles unless `exact` is False.
    """

    name: str
    objectives: tuple[str, str]
    params: tuple[str, ...]
    constraints: str
    pareto: Callable[..., list[tuple[int, int]]]
    front: Callable[..., set[ObjectiveVector]]
    rule: Callable[..., str | None] = lambda n, k, l: None
    local_optima: Callable[..., int] = lambda n, k, l: 0
    exact: bool = True

    def pareto_set(self, n: int, k: int | None, l: int | None) -> int:
        """The strings of the pairs of `pareto`, as packed bits."""
        return _statistic_pairs(self.objectives, self.pareto(n, k, l), n, l)


_CATALOG = (
    FamilyInfo("omm", ("ones", "zeroes"), (), "1 <= n <= 63",
               pareto=lambda n, k, l: [(s, s) for s in range(n + 1)], front=_diagonal_front),
    # 1^a 0^(n-a): a leading ones and n - a trailing zeroes.
    FamilyInfo("lotz", ("leading ones", "trailing zeroes"), (), "1 <= n <= 63",
               pareto=lambda n, k, l: [(a, n - a) for a in range(n + 1)], front=_diagonal_front),
    FamilyInfo("ojzj", ("one-jump", "zero-jump"), ("k",), "1 <= k < n/2",
               rule=lambda n, k, l: None if 1 <= k and 2 * k < n else "requires 1 <= k < n/2",
               pareto=lambda n, k, l: [(s, s) for s in (0, *range(k, n - k + 1), n)],
               front=lambda n, k, l: {(k, n + k), (n + k, k)}
               | {(k + s, n + k - s) for s in range(k, n - k + 1)}),
    # First half all ones: ones plus the mixed count, 2 (first-half ones) + n/2, is 3n/2.
    FamilyInfo("cocz", ("ones", "ones in first half plus zeroes in second half"), (), "n even",
               rule=lambda n, k, l: "n must be even" if n % 2 else None,
               pareto=lambda n, k, l: [(s, 3 * n // 2 - s) for s in range(n // 2, n + 1)],
               front=lambda n, k, l: {(n // 2 + j, n - j) for j in range(n // 2 + 1)}),
    # The completed strings: each of the n/l blocks all ones or all zeroes.
    FamilyInfo("orzr", ("all-ones blocks", "all-zeroes blocks"), ("l",), "l divides n, n/l > 1",
               rule=_block_length,
               pareto=lambda n, k, l: [(c, n // l - c) for c in range(n // l + 1)],
               local_optima=lambda n, k, l: _where(_ORZR_OPTIMA, n, l, (1,)),
               front=_block_front),
    # 1^a 0^(n-a): a ones, all before n - a trailing zeroes.
    FamilyInfo("omtz", ("ones", "trailing zeroes"), (), "1 <= n <= 63",
               pareto=lambda n, k, l: [(a, n - a) for a in range(n + 1)], front=_diagonal_front),
    FamilyInfo("omzj", ("ones", "zero-jump"), ("k",), "1 < k < n/2",
               rule=lambda n, k, l: None if 1 < k and 2 * k < n else "requires 1 < k < n/2",
               pareto=lambda n, k, l: [(s, s) for s in (0, *range(k, n + 1))],
               front=_zero_jump_front),
    # The completed strings: the blocks not all zero hold every one.
    FamilyInfo("omzr", ("ones", "all-zeroes blocks"), ("l",), "l divides n, n/l > 1",
               rule=_block_length, pareto=_block_pairs, front=_block_front),
    # 1^a 0^(n-a) for a in {0, k..n}: a leading ones and a ones in all.
    FamilyInfo("lozj", ("leading ones", "zero-jump"), ("k",), "1 < k < n/2",
               rule=lambda n, k, l: None if 1 < k and 2 * k < n else "requires 1 < k < n/2",
               pareto=lambda n, k, l: [(a, a) for a in (0, *range(k, n + 1))],
               local_optima=lambda n, k, l: _statistic_pairs(
                   ("leading ones", "zero-jump"), [(a, k) for a in range(k)], n, l),
               front=_zero_jump_front),
    # 1^s 0^(n-s), s a multiple of l: s leading ones, every later block all zero.
    FamilyInfo("lozr", ("leading ones", "all-zeroes blocks"), ("l",), "l divides n, n/l > 1",
               rule=_block_length, pareto=_block_pairs,
               local_optima=lambda n, k, l: _where(_LOZR_OPTIMA, n, l, (2, 3)),
               front=_block_front),
    # The ojzr closed forms assume the block length is below the gap, which
    # not every valid instance satisfies, so they are informational.
    FamilyInfo("ojzr", ("one-jump", "all-zeroes blocks"), ("k", "l"),
               "1 < k <= floor(n/2), l divides n, n/l > 1",
               rule=lambda n, k, l: _block_length(n, k, l) if 1 < k and 2 * k <= n
               else "requires 1 < k <= floor(n/2)",
               pareto=_ojzr_pareto, front=_ojzr_front, exact=False,
               local_optima=lambda n, k, l: _statistic_pairs(
                   ("one-jump", "all-zeroes blocks"), [(n - k, z) for z in range(k // l)], n, l)),
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
        (STATISTICS[statistic].index(inst.n, inst.l), table(inst.n, inst.k, inst.l))
        for statistic, table in (OBJECTIVES[name] for name in inst.info.objectives)
    )
    return lambda i: (t1[s1(i)], t2[s2(i)])


def _statistic_tables(objective: str, n: int, l: int | None):
    """The step tables of the automaton of the objective's statistic."""
    record = STATISTICS[OBJECTIVES[objective][0]]
    return _step_tables(record.automaton, n, l if record.reads_l else None)


def _objective_tables(inst: ProblemInstance):
    """Per objective, the step tables of its statistic's automaton and the
    objective's value table, which maps the state after the last bit, the
    statistic, to the objective value."""
    n, k, l = inst.n, inst.k, inst.l
    return [
        (_statistic_tables(name, n, l), bytes(OBJECTIVES[name][1](n, k, l)))
        for name in inst.info.objectives
    ]


# The index sets span at most the first 2^16 indices, 8 KiB a set; a larger
# cube is read as blocks of that many indices. So the sets of every state
# stay small beside a whole-cube set (sets over half the cube at n = 24
# raised the peak resident memory of a landscape analysis by up to a fifth),
# and, like the step tables, they can be kept for the instances of one size:
# at most 137 KiB an automaton at n = 24, 293 KiB for the 83 sets of the
# whole verification grid.
_SET_BITS = 16


@lru_cache(maxsize=128)
def _index_sets(tables) -> tuple[int, ...]:
    """The automaton run over packed bits: per state it can reach after the
    given bits' tables, m = 0 to j - 1, the packed set of the indices below
    2^j whose bits lead there, 0 for a state that none reaches. Reading bit
    m sends state s's set x to t0[s] as it is and to t1[s] as x << 2^m, the
    same indices with bit m set."""
    sets = [1]
    for m, (t0, t1) in enumerate(tables):
        after = [0] * (max(t0 + t1) + 1)
        for x, a, b in zip(sets, t0, t1):
            after[a] |= x
            after[b] |= x << (1 << m)
        sets = after
    return tuple(sets)


def _cells(tables) -> tuple[tuple[int, ...], list[bytes]]:
    """The automaton's index sets and the states the cube's blocks of 2^low
    indices end in, low = min(n, _SET_BITS): sets[s] is the packed set of
    the indices below 2^low whose bits lead the automaton to state s, and
    ends[r][s] is the state it ends in from those indices plus r * 2^low."""
    low = min(len(tables), _SET_BITS)
    sets = _index_sets(tables[:low])
    # The state after the block's high bits, from each state after its low.
    width = len(sets)
    ends = _state_plane(tables[low:], bytes(range(width)))
    return sets, [ends[r : r + width] for r in range(0, len(ends), width)]


def _union(sets) -> int:
    """The union of packed sets."""
    return reduce(or_, sets, 0)


def _join(blocks, n: int) -> int:
    """The packed set over the cube whose r-th block of 2^n / len(blocks)
    indices is blocks[r]. Several blocks each span a whole number of bytes."""
    if len(blocks) == 1:
        return blocks[0]
    width = (1 << n) // len(blocks) >> 3
    return int.from_bytes(b"".join([x.to_bytes(width, "little") for x in blocks]), "little")


def _select(cells, table: bytes, n: int) -> int:
    """The packed set of the indices whose final state s has table[s] set,
    table bytes of 0 or 1 (0 beyond its end), from the cells (_cells): in
    each block of the cube, the union of the index sets of the states it
    marks."""
    sets, ends = cells
    return _join([_union(compress(sets, _translate(e, table))) for e in ends], n)


def _pair_bits(cells, pairs, n: int) -> int:
    """The packed set of the indices whose final states (a, b) in two
    automata's cells (_cells) form one of the pairs."""
    (sets1, ends1), (sets2, ends2) = cells
    wanted = defaultdict(set)
    for a, b in pairs:
        wanted[a].add(b)
    blocks = []
    for e1, e2 in zip(ends1, ends2):
        by_b = defaultdict(int)
        for y, b in zip(sets2, e2):
            by_b[b] |= y
        blocks.append(_union(x & by_b[b] for x, a in zip(sets1, e1) for b in wanted.get(a, ())))
    return _join(blocks, n)


def _statistic_pairs(objectives: tuple[str, str], pairs, n: int, l: int | None) -> int:
    """The packed set of the strings whose two objectives' statistics form
    one of the pairs (_pair_bits)."""
    return _pair_bits([_cells(_statistic_tables(name, n, l)) for name in objectives], pairs, n)


def _where(automaton: Callable[..., Callable], n: int, l: int | None, states) -> int:
    """The packed set of the indices at which automaton(n, l) ends in one of
    the given states."""
    wanted = bytes(s in states for s in range(256))
    return _select(_cells(_step_tables(automaton, n, l)), wanted, n)


def image_polys(inst: ProblemInstance) -> dict[ObjectiveVector, int]:
    """How many strings have each image vector (f1, f2), by ones count, in
    ascending (f1, f2) order: each vector's value is a packed int whose
    digit j, n + 1 bits wide, counts the strings with j ones. A DP over the
    index bits, from bit 0 upward, on the pairs of both objectives' automaton
    states, each with the same packed count of the index prefixes that reach
    it: reading a 0 keeps a prefix's ones count, reading a 1 moves it up a
    digit."""
    width = inst.n + 1
    (tables1, final1), (tables2, final2) = _objective_tables(inst)
    polys = {(0, 0): 1}
    for (a0, a1), (b0, b1) in zip(tables1, tables2):
        after = defaultdict(int)
        for (a, b), poly in polys.items():
            after[a0[a], b0[b]] += poly
            after[a1[a], b1[b]] += poly << width
        polys = after
    image = defaultdict(int)
    for (a, b), poly in polys.items():
        image[final1[a], final2[b]] += poly
    return dict(sorted(image.items()))


def evaluate(inst: ProblemInstance, x: BitString) -> ObjectiveVector:
    """Objective pair of x under the instance's two objectives."""
    if not isinstance(x, BitString):
        raise ValidationError(f"x must be a BitString, got {x!r}")
    if x.n != inst.n:
        raise ValidationError(
            f"string length {x.n} does not match instance n={inst.n}"
        )
    return index_evaluator(inst)(x.index)
