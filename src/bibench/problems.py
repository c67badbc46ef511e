"""Bi-objective problem families, their instances, and evaluation.

Each family composes two scalar objectives into a maximized pair and is
defined by one record in the catalog: its objectives, parameter rule,
closed forms and claims on its Pareto-set share. Instances are value
objects, checked when built; a compact text descriptor ("ojzr:n=12,k=5,l=3")
names an instance uniquely and round-trips through
parse_descriptor/descriptor.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import compress
from operator import or_
from typing import Callable, Iterable, NamedTuple

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
# objectives' states (an automaton that counts the ones left out, since the
# count is its state), kept per pair of step tables (_state_pair_polys) and
# summed through the instance's value tables on each call (image_polys),
# and, run over packed bits instead of bytes, give the cells, kept per
# automaton (_cells): the set of indices that reaches each state over a block
# of at most 2^_SET_BITS indices, and the state each block of the cube ends
# in. The cells hold states only. Unions of their sets are selected block
# by block: by pairs of final states, every Pareto set and two
# local-optimum closed forms (_statistic_pairs), which the records join and
# enumeration joins once, handing the blocks to the local-optimum scan; and
# by a table over final states (_select): the block closed forms (_where),
# which join the blocks, and, through the value tables, the local-optimum
# scan's bit planes, which stay in blocks. Met in pairs, both objectives'
# sets count the image of a packed set cut into the same blocks (_split,
# _image_counts). Read as they are, with no cube, the tables also decide
# symmetry, by a DP that reads f2's tables in reverse, and separability, by
# DPs on pairs of one objective's states (landscape.is_symmetric_pair,
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


# _COUNTS[c : c + len(t)] is the table that sends each state s to c + s.
_COUNTS = bytes(range(256))


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


# Bounds the ratio formulas' cost and the digits of the printed fractions,
# which must stay below Python's int-to-str limit.
MAX_RATIO_N = 4096

# The decimal digits ojzj_threshold_k computes in, and ln 4 at them, once.
_PRECISION = 60
_LN4 = Decimal(4).ln(Context(prec=_PRECISION))

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
    if not 1 <= n <= MAX_RATIO_N:
        raise ValidationError(f"n must be in [1, {MAX_RATIO_N}], got {n}")


def ojzj_threshold_k(n: int) -> int:
    """Largest gap for which the ojzj Pareto share is guaranteed >= 1/2:
    floor(n/2 - sqrt(n ln(4) / 2)), with the floor certified exact.

    Computed in 60-digit decimal arithmetic with an interval pad; if the two
    interval ends floored differently the value would be numerically
    ambiguous and an error is raised instead of guessing.
    """
    _check_ratio_params(n)
    with localcontext() as ctx:
        ctx.prec = _PRECISION
        value = Decimal(n) / 2 - (Decimal(n) * _LN4 / 2).sqrt()
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


def _share_line(ratio: Fraction) -> str:
    return f"ratio = {ratio.numerator}/{ratio.denominator} ({float(ratio):.6f})"


def _ojzj_claims(n, k, l, ratio):
    formula = ratio_ojzj(n, k)
    yield "ratio_formula", formula == ratio, f"formula={formula} enumerated={ratio}"
    threshold = ojzj_threshold_k(n)
    matched = k > threshold or ratio >= Fraction(1, 2)
    yield "ratio_threshold", matched, f"threshold_k={threshold} k={k} ratio={ratio}"


def _ojzj_lines(n, k, l):
    ratio = ratio_ojzj(n, k)
    yield _share_line(ratio)
    yield f"threshold_k = {ojzj_threshold_k(n)}"
    yield f"ratio >= 1/2: {'true' if ratio >= Fraction(1, 2) else 'false'}"


def _ojzr_claims(n, k, l, ratio):
    # The formula's stated domain is narrower than the family's rule; outside
    # it there is no claim.
    try:
        formula = ratio_ojzr(n, k, l)
    except ValidationError:
        return
    yield "ratio_formula", formula == ratio, f"formula={formula} enumerated={ratio}"


def _ojzr_lines(n, k, l):
    yield _share_line(ratio_ojzr(n, k, l))
    if l > 2:
        _, doubled = ojzr_bound(n, l)
        shown = f"2^({doubled // 2})" if doubled % 2 == 0 else f"2^({doubled}/2)"
        yield f"bound = {shown} ({2.0 ** (doubled / 2):.6f})"
        yield f"within_bound: {'true' if ojzr_within_bound(n, k, l) else 'false'}"


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

    `ratio_claims(n, k, l, ratio)` yields the family's claims on the
    Pareto-set share `ratio` that enumeration counted, as (name, matched,
    detail) triples, must-match exactly when the closed forms are exact; it
    yields none by default. `ratio_lines(n, k, l)` yields the lines that
    `bibench ratio` prints for the family's share formula, and is None for a
    family that has none.
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
    ratio_claims: Callable[..., Iterable[tuple[str, bool, str]]] = lambda n, k, l, ratio: ()
    ratio_lines: Callable[..., Iterable[str]] | None = None

    def pareto_set(self, n: int, k: int | None, l: int | None) -> int:
        """The strings of the pairs of `pareto`, as packed bits."""
        return _join(_statistic_pairs(self.objectives, self.pareto(n, k, l), n, l), n)


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
               | {(k + s, n + k - s) for s in range(k, n - k + 1)},
               ratio_claims=_ojzj_claims, ratio_lines=_ojzj_lines),
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
               local_optima=lambda n, k, l: _join(_statistic_pairs(
                   ("leading ones", "zero-jump"), [(a, k) for a in range(k)], n, l), n),
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
               ratio_claims=_ojzr_claims, ratio_lines=_ojzr_lines,
               local_optima=lambda n, k, l: _join(_statistic_pairs(
                   ("one-jump", "all-zeroes blocks"), [(n - k, z) for z in range(k // l)], n, l),
                   n)),
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
# cube is read as blocks of that many indices. So the sets stay small beside
# a whole-cube set (sets over half the cube at n = 24 raised the peak
# resident memory of a landscape analysis by up to a fifth), and the cells
# are kept per automaton, like the step tables. The blocks' end states grow
# as 2^(n - 16): the six automata of the table instances keep 0.59 MiB at
# n = 16, 0.67 at n = 24 and 1.85 at n = 28, the grid's 83 keep 0.30 MiB.
# Keyed by the tables alone, cells would go stale if the span changed; only
# tests change it, and they clear the cells.
_SET_BITS = 16


@lru_cache(maxsize=128)
def _cells(tables) -> tuple[tuple[int, ...], tuple[bytes, ...]]:
    """The automaton run over packed bits on the cube's blocks of 2^low
    indices, low = min(n, _SET_BITS), as (sets, ends): sets[s] is the packed
    set of the indices below 2^low whose bits lead the automaton to state s,
    0 for a state that none reaches, and ends[r][s] is the state it ends in
    from those indices plus r * 2^low. Reading bit m sends state s's set x
    to t0[s] as it is and to t1[s] as x << 2^m, the same indices with bit m
    set."""
    low = min(len(tables), _SET_BITS)
    sets = [1]
    for m, (t0, t1) in enumerate(tables[:low]):
        after = [0] * (max(t0 + t1) + 1)
        for x, a, b in zip(sets, t0, t1):
            after[a] |= x
            after[b] |= x << (1 << m)
        sets = after
    # The state after the block's high bits, from each state after its low.
    width = len(sets)
    ends = _state_plane(tables[low:], bytes(range(width)))
    return tuple(sets), tuple(ends[r : r + width] for r in range(0, len(ends), width))


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


def _split(bits: int, n: int) -> list[int]:
    """The inverse of _join: packed bits over the cube as its blocks of
    2^min(n, _SET_BITS) indices, as _cells cuts it."""
    if n <= _SET_BITS:
        return [bits]
    raw = bits.to_bytes(1 << n >> 3, "little")
    width = 1 << _SET_BITS >> 3
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _select(cells, table: bytes) -> list[int]:
    """Per block of the cube, the packed set of its indices (bit i for the
    block's i-th) whose final state s has table[s] set, table bytes of 0 or
    1 (0 beyond its end), from the cells (_cells): the union of the index
    sets of the states it marks. _join makes them one set over the cube."""
    sets, ends = cells
    return [_union(compress(sets, _translate(e, table))) for e in ends]


def _statistic_pairs(objectives: tuple[str, str], pairs, n: int, l: int | None) -> list[int]:
    """Per block of the cube (_cells), as _select gives them, the packed set
    of the strings whose two objectives' statistics, the final states of
    their automata, form one of the pairs (a, b); a first state or a pair
    may repeat. _join makes them one set over the cube. The one kernel that
    selects strings by statistic pairs: in each block, the indices that the
    first automaton's sets send to a, met with those the second's send to b."""
    (sets1, ends1), (sets2, ends2) = (_cells(_statistic_tables(name, n, l)) for name in objectives)
    wanted = defaultdict(set)
    for a, b in pairs:
        wanted[a].add(b)
    blocks = []
    for e1, e2 in zip(ends1, ends2):
        by_b = defaultdict(int)
        for y, b in zip(sets2, e2):
            by_b[b] |= y
        blocks.append(_union(x & by_b[b] for x, a in zip(sets1, e1) for b in wanted.get(a, ())))
    return blocks


def _where(automaton: Callable[..., Callable], n: int, l: int | None, states) -> int:
    """The packed set of the indices at which automaton(n, l) ends in one of
    the given states."""
    wanted = bytes(s in states for s in range(256))
    return _join(_select(_cells(_step_tables(automaton, n, l)), wanted), n)


def _image_counts(inst: ProblemInstance, bits: int) -> dict[ObjectiveVector, int]:
    """How many strings of packed bits over the cube have each image vector
    (f1, f2), in ascending order, with no string evaluated: per block of the
    cells (_cells), the members in the index sets of each pair of the two
    automata's states, counted to the vector their blocks' ends give."""
    (tables1, final1), (tables2, final2) = _objective_tables(inst)
    (sets1, ends1), (sets2, ends2) = _cells(tables1), _cells(tables2)
    counts = defaultdict(int)
    for block, e1, e2 in zip(_split(bits, inst.n), ends1, ends2):
        for x, a in zip(sets1, e1):
            if x := x & block:
                for y, b in zip(sets2, e2):
                    if c := (x & y).bit_count():
                        counts[final1[a], final2[b]] += c
    return dict(sorted(counts.items()))


# Instances that mix the same single-objective functions read the same pair
# of automata: the verification grid's 191 instances read 71 pairs, as omm,
# ojzj and omzj all read (ones, ones) at each n, and ojzr's instances share
# (ones, all-zeroes blocks) across k. So the DP on pairs of states is kept per
# pair of step tables, keyed by their contents: a changed automaton gives
# other tables and never reads an old entry. The n=63 grid's 18 pairs keep
# 4.9 MiB in all under tracemalloc, at most 0.94 MiB an entry (lotz).
@lru_cache(maxsize=32)
def _state_pair_polys(tables1, tables2) -> tuple[tuple[tuple[int, int], int], ...]:
    """Per pair (a, b) of the two automata's final states, the packed count
    by ones count of the indices that lead there, as ((a, b), poly): digit j
    of poly, n + 1 bits wide, counts the indices with j ones. A DP over the
    index bits, from bit 0 upward, on the pairs of both automata's states,
    each with the same packed count of the index prefixes that reach it:
    reading a 0 keeps a prefix's ones count, reading a 1 moves it up a
    digit.

    Where an automaton is the ones counter, whose final state is the ones
    count j itself (the ones statistic of omm, ojzj, omzj, cocz, omtz, omzr,
    lozj and ojzr, and all-ones blocks at l = 1), the digits already keep
    that state: the DP runs with an automaton that stays in state 0 in its
    place, and pair (j, b), (a, j) or (j, j) is digit j of the packed count
    of the states left, in place."""
    width = len(tables1) + 1
    still = ((b"\0", b"\0"),) * (width - 1)
    first, second = (
        all(t0 == _COUNTS[: len(t0)] and t1 == _COUNTS[1 : len(t1) + 1] for t0, t1 in tables)
        for tables in (tables1, tables2)
    )
    polys = {(0, 0): 1}
    for (a0, a1), (b0, b1) in zip(still if first else tables1, still if second else tables2):
        after = defaultdict(int)
        for (a, b), poly in polys.items():
            after[a0[a], b0[b]] += poly
            after[a1[a], b1[b]] += poly << width
        polys = after
    if not (first or second):
        return tuple(polys.items())
    mask = (1 << width) - 1
    return tuple(
        ((j if first else a, j if second else b), digit)
        for (a, b), poly in polys.items()
        for j in range(width)
        if (digit := poly & mask << j * width)
    )


def image_polys(inst: ProblemInstance) -> dict[ObjectiveVector, int]:
    """How many strings have each image vector (f1, f2), by ones count, in
    ascending (f1, f2) order: each vector's value is a packed int whose
    digit j, n + 1 bits wide, counts the strings with j ones. The counts of
    the pairs of final states (_state_pair_polys), kept per pair of
    automata, summed to the vectors that the instance's value tables give
    them on each call."""
    (tables1, final1), (tables2, final2) = _objective_tables(inst)
    image = defaultdict(int)
    for (a, b), poly in _state_pair_polys(tables1, tables2):
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
