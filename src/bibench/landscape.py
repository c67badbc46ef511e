"""Exhaustive landscape analysis: Pareto structure, local optima, and the
seven characteristic flags, all computed exactly. Symmetry and separability
are decided on the objectives' automata (problems._objective_tables), and
complete conflict and the front's shape on the image they count
(problems.image_polys), with no enumeration, so these answer at every n up
to 63; the rest enumerates the cube.

Enumeration holds a set of strings, such as the Pareto set or the local
optima, as packed bits: an int whose bit i is set when string i is in the
set. The stages work on such ints and on bit planes, whose bit i belongs
to string i (bytes.translate, slicing, compress, big-int arithmetic). The
local-optimum scan (_local_optima) works on the blocks of at most 2^16
indices that the automata's cells (problems._cells) cut the cube into, so
that its operands stay small enough for the cache, and reads the blocks'
width from their count. It takes the Pareto set in the same blocks, as
their selection leaves it (problems._statistic_pairs), compares across the
blocks first, and scans inside only the blocks that still hold a string to
mark; it joins only its result. The other stages work on the whole cube.

Where both objectives read one count (_one_count: omm, ojzj and omzj, and
orzr, omzr and ojzr at l = 1), the cube falls into levels, one per pair of
final states that the image DP reaches (_levels), and each string's
neighbours lie in exactly the levels next to its own. There the local
optima are the levels that neither neighbouring level dominates, selected
from the first objective's cells with no scan (_local_optima), and
LandscapeReport.component_count counts the Pareto set from its levels;
neither touches a string. Every other Pareto set, on the grid at most 1/16
of the cube beyond n = 10, takes the one stage that loops in Python per
string: a flood from member to member (_component_count). No stage
evaluates a string: the image of a packed set, the local optima's
(LandscapeReport.local_front_counts) or verify's claimed Pareto set's, is
counted on the same blocks (problems._image_counts).

No set is unpacked into a mask of the cube. The sparse readers above and the
index arrays take the members from the nonzero bytes of the packed set, each
found by bytes.find (_members), a Python step per member; the report text,
whose set may fill most of the cube, takes them from byte lanes of index
bits selected from the packed bytes (_set_lanes), with no Python step per
member. The text is listed span by span, up to _SPAN nonzero packed bytes at
a time, and the landscape command writes each span as it comes, so it never
holds the whole list; render_report joins the spans.

No objective is held as a byte plane. The image, its multiplicities and
the ones tables come from the packed ones counts per image vector that
problems.image_polys counts by one DP over the index bits, the ones tables
on first read. The Pareto set and the sets of the local-optimum scan are
unions of the packed index sets that reach each state of the statistics'
automata (problems._cells), selected by states: the Pareto set by the
statistic pairs that the value tables send onto the front, through the
kernel that builds every Pareto closed form (problems._statistic_pairs),
and the scan's sets per block through a table over final states
(problems._select). The scan knows two kinds of objective. A counting one
(the ones count, the half-mix statistic) moves its automaton's final state
by a fixed +1 or -1 when a given index bit is set, so a neighbour's value
follows from the string's own final state: where the value rises and where
it falls across that bit are two selections, and it needs no planes. Any
other (leading ones, trailing zeroes, block counts) is compared bit-sliced,
on a plane per bit of each value's rank among the value table's values.

Enumeration is capped (default 24 bits, env var BIBENCH_ENUM_CAP) so
accidental huge requests fail fast with a clear error.
"""

from __future__ import annotations

import os
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from operator import or_

from .dominance import LevelAssignment, ObjectiveVector, dominates, nondominated_sort
from .errors import EnumerationCapError, ValidationError
from .problems import (
    ProblemInstance,
    _cells,
    _image_counts,
    _join,
    _objective_tables,
    _select,
    _state_pair_polys,
    _statistic_pairs,
    _translate,
    image_polys,
)

DEFAULT_CAP = 24
CAP_ENV_VAR = "BIBENCH_ENUM_CAP"

# Budget for the peak resident memory of enumerate_landscape plus
# characteristic_profile per string of the cube. The largest measured over
# the families at n = 24 is 33 MB, 2.1 bytes per string, on orzr (lotz
# 31 MB), set by enumeration; the component count takes a sparse Pareto
# set's members from its packed bytes, and counts a dense one from its
# levels, with no pass over the cube (see README). The landscape command
# adds one span of the report text at a time, written as it is listed:
# orzr:n=24,l=12, whose 16.6 M local optima fill 99% of the cube, peaks at
# 38 MB, 2.4 bytes per string.
BYTES_PER_STRING = 24
# The largest cap the env var may set, a stated constant: at the budget its
# estimate is 12 GiB.
MAX_CAP = 29

LOW_RATIO_THRESHOLD = Fraction(1, 2)


def _estimated_memory(n: int) -> str:
    """Estimated peak memory of analysing all 2^n strings, n <= 63, for messages."""
    size = BYTES_PER_STRING << n
    scale = min((size.bit_length() - 1) // 10, 6)
    unit = ("B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB")[scale]
    return f"about {size / 1024**scale:.0f} {unit}"


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
    if value > MAX_CAP:
        raise ValidationError(
            f"{CAP_ENV_VAR} must be at most {MAX_CAP}, got {value}"
            f" (n={MAX_CAP} already needs {_estimated_memory(MAX_CAP)})"
        )
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
    """Exact analysis of one instance. The Pareto set and the local optima
    are kept once each, as packed bits (`member_bits`, `local_optima_bits`).
    Their index arrays (4 bytes per member, from _members) are built on each
    read and kept by neither the report nor its memo (_report); no command
    reads them. The local optima's image (counted on the automata's cells),
    the component count and the ones tables are computed on first access and
    kept: the objective-space figure reads the image, the report text, the
    summary line and the profile the component count, the report text and
    the ones figures the ones tables, and verify only sizes, the bit counts."""

    instance: ProblemInstance
    front_counts: tuple[tuple[ObjectiveVector, int], ...]
    levels: tuple[tuple[ObjectiveVector, ...], ...]
    # Image vector to its number of strings, in ascending (f1, f2) order.
    vector_counts: dict[ObjectiveVector, int]
    # Bit i of each is set when string i is in the Pareto set, or is a
    # non-global local optimum.
    member_bits: int = field(repr=False)
    local_optima_bits: int = field(repr=False)
    # Image vector to its packed ones counts (problems.image_polys).
    image_polys: dict[ObjectiveVector, int] = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def ratio(self) -> Fraction:
        """The Pareto set's share of the search space."""
        return Fraction(self.member_bits.bit_count(), 1 << self.n)

    @cached_property
    def component_count(self) -> int:
        """The Pareto set's connected components under Hamming-1 moves.
        Where both objectives read one count (_one_count), each pair (a, b)
        of final states is one level of the cube, the strings with a fixed
        number of ones once the bits that count down are complemented, and
        consecutive states a are consecutive levels. Two consecutive levels
        are connected, and no two strings of one level are adjacent; so each
        maximal run of two or more front-selected levels is one component,
        and each string of a level with no selected neighbour level is one.
        A level's size is the digit sum of its packed ones counts
        (_levels), their remainder modulo 2^(n + 1) - 1 as in
        _report. Any other Pareto set is flooded from member to member
        (_component_count), a step per member, found from the nonzero bytes
        of the packed set (_members)."""
        n = self.n
        objective_tables = _objective_tables(self.instance)
        if not _one_count([_counting_steps(tables) for tables, _ in objective_tables]):
            return _component_count(set(_members(self.member_bits, n)), n)
        front = {v for v, _ in self.front_counts}
        modulus = (1 << n + 1) - 1
        levels = _levels(objective_tables)
        sizes = {a: poly % modulus for a, (v, poly) in levels.items() if v in front}
        return sum(1 if a + 1 in sizes else size for a, size in sizes.items() if a - 1 not in sizes)

    @cached_property
    def ones_tables(self) -> tuple[tuple[int, OnesSummary], ...]:
        """For each number of ones, ascending, the counts of the f1 values,
        the f2 values and the levels of the strings with that many ones,
        each sorted by value: the digits of the packed ones counts, summed
        per value first. No digit carries, since digit j's sum is at most
        C(n, j) < 2^(n + 1)."""
        width = self.n + 1
        mask = (1 << width) - 1
        level_by_vector = LevelAssignment(self.levels).level_by_vector
        sums = (defaultdict(int), defaultdict(int), defaultdict(int))
        f1, f2, by_level = sums
        for (a, b), poly in self.image_polys.items():
            f1[a] += poly
            f2[b] += poly
            by_level[level_by_vector[a, b]] += poly
        tables = [([], [], []) for _ in range(width)]
        for column, by_value in enumerate(sums):
            for value in sorted(by_value):
                poly = by_value[value]
                for row in tables:
                    if count := poly & mask:
                        row[column].append((value, count))
                    poly >>= width
        return tuple(
            (ones, OnesSummary(*map(tuple, row))) for ones, row in enumerate(tables)
        )

    @property
    def pareto_set_indices(self) -> array:
        """The indices of the Pareto set, ascending."""
        return array("I", _members(self.member_bits, self.n))

    @property
    def local_optima_indices(self) -> array:
        """The indices of the non-global Pareto local optima, ascending: no
        neighbor strictly dominates them, yet they are not Pareto-optimal.
        Equal-valued neighbors do not disqualify."""
        return array("I", _members(self.local_optima_bits, self.n))

    @cached_property
    def local_front_counts(self) -> tuple[tuple[ObjectiveVector, int], ...]:
        """The local optima's image vectors, ascending, with their counts."""
        return tuple(_image_counts(self.instance, self.local_optima_bits).items())


def _component_count(members: set[int], n: int) -> int:
    """Connected components of the Hamming-distance-1 graph on the indices
    in members. Floods each component, removing what it reaches, so the set
    is empty on return."""
    bits = [1 << b for b in range(n)]
    components = 0
    while members:
        components += 1
        stack = [members.pop()]
        push = stack.append
        pop = stack.pop
        while stack:
            cur = pop()
            for bit in bits:
                nb = cur ^ bit
                if nb in members:
                    members.remove(nb)
                    push(nb)
    return components


def _bit_clears(n: int):
    """Per bit b of an index below 2^n, from b = n - 1 down to 0, the pair
    of b and the int whose bit i, for every index i < 2^n, is set when bit
    b of i is clear. Each mask comes from the one before it, 2^b set bits
    and 2^b clear ones in turn: a copy of it 2^(b-1) bits up differs from
    it exactly where bit b - 1 of i is set. One shift and one xor per mask,
    and no mask outlives its caller's hold on it: at n = 16 the 16 masks
    fill 120 KiB, which at n = 18 is 0.47 bytes per string."""
    clear = (1 << (1 << n >> 1)) - 1
    for b in reversed(range(n)):
        yield b, clear
        clear ^= clear << (1 << b >> 1)


# _BITS[k] maps a byte to its bit k; _ZERO maps a zero byte to 128 and any
# other to 0, and _OFFSETS[v] lists the set bits of byte v, ascending.
# _COUNTS[c : c + len(t)] is the table that sends each state s to c + s.
_BITS = [bytes(v >> k & 1 for v in range(256)) for k in range(8)]
_ZERO = bytes([128]).ljust(256, b"\0")
_OFFSETS = [[k for k in range(8) if v >> k & 1] for v in range(256)]
_COUNTS = bytes(range(256))


def _counting_steps(tables) -> list[int] | None:
    """Per index bit m, the move d_m of a counting automaton, or None for
    any other: one whose table on 1 is its table on 0 moved by d_m = +1 or
    -1 at every bit, each table sending consecutive states to consecutive
    states (state s to c + s). Setting bit m of an index then moves the
    final state by exactly d_m, since each later bit moves both states
    alike. The ones count and the half-mix statistic count, and so do the
    block counts at l = 1, where each bit is a block."""
    steps = []
    for t0, t1 in tables:
        c0, c1 = t0[0], t1[0]
        step = c1 - c0
        if step not in (1, -1):
            return None
        if t0 != _COUNTS[c0 : c0 + len(t0)] or t1 != _COUNTS[c1 : c1 + len(t1)]:
            return None
        steps.append(step)
    return steps


def _one_count(steps) -> bool:
    """True when both objectives' automata count, given the pair of their
    moves per index bit (_counting_steps, None for one that does not), and
    the moves are equal at every index bit or opposite at every bit: omm,
    ojzj and omzj, and orzr, omzr and ojzr at l = 1. Complementing the
    bits at which the first counts down then makes its final state the
    ones count plus a constant, and the second's final state follows from
    the first's."""
    steps1, steps2 = steps
    if steps1 is None or steps2 is None:
        return False
    return steps1 == steps2 or steps1 == [-d for d in steps2]


def _levels(objective_tables) -> dict[int, tuple[ObjectiveVector, int]]:
    """The levels of the cube of a one-count instance (_one_count), each
    keyed by its first final state a, as its vector and its packed ones
    counts: the pairs (a, b) of final states that the image DP reaches
    (problems._state_pair_polys, kept by image_polys), where b follows
    from a."""
    (tables1, final1), (tables2, final2) = objective_tables
    return {
        a: ((final1[a], final2[b]), poly) for (a, b), poly in _state_pair_polys(tables1, tables2)
    }


def _local_optima(objective_tables, members: list[int], n: int) -> int:
    """The int whose bit i is set exactly when string i is a non-global
    local optimum: not a member and no neighbour strictly dominates it (an
    equal-valued neighbour does not count). The members come in the blocks
    of the objectives' cells, as problems._statistic_pairs selects them. A
    Pareto set that holds the whole cube leaves no string to mark, and
    returns before any cell is read.

    Where both objectives read one count (_one_count), the strings of one
    level (_levels), those that end in the first automaton's final state a,
    share one vector, and each has neighbours in exactly the reached levels
    a - 1 and a + 1: with the bits at which the first objective counts down
    complemented, a is the ones count plus a constant, a string with j
    ones, 0 < j < n, reaches j - 1 by clearing a bit and j + 1 by setting
    one, and the strings with 0 or n ones have neighbours on one side only,
    where the other level is not reached. So the strings of a level are
    local optima together, exactly when neither neighbouring level's
    vector dominates its own. Those levels are selected through a table
    over the first objective's final states (_select), the members dropped
    block by block, and the blocks joined over the cube; nothing is
    scanned.

    Any other instance is scanned block by block, in the blocks of 2^low
    indices of the objectives' cells (problems._cells), so bit i of every
    int below belongs to string i of its block. Per block, the members and
    the strings marked so far are one int, which is full once the block
    has no string left to mark; the result is its complement. The block
    bits, b >= low, go first, from the top down: block r, with bit b - low
    of r clear, meets block r + 2^(b - low) at the same positions, and a
    pair of full blocks is skipped. Then, for index bit b below low, the
    strings of a block with bit b clear meet their neighbours 2^b bits up,
    in the blocks that are not full; where none is left, no mask of these
    bits is made. Marks only accumulate, and the comparison at one bit
    marks only the blocks it reads, so neither the order of the bits nor
    a skipped pair changes the result. On lotz, the top block bit fills
    every block whose top index bit is clear, each later block bit visits
    half as many pairs, and only the block of all ones is scanned inside.
    Per objective, two sets tell where the neighbour's value is greater and
    where it is smaller, and they are found in one of two ways.

    A counting objective, whose automaton moves its final state by d_b when
    bit b is set (_counting_steps: the ones count, the half-mix statistic),
    fixes the neighbour's value by the string's own final state s: it is
    greater where the value table rises from s to s + d_b and smaller where
    it falls. So both sets are unions of the cells' index sets (_select),
    and no plane of the objective is built or shifted; the counting
    objectives' sets are kept united, one pair per distinct tuple of their
    moves across a bit. Any other objective (leading ones, trailing zeroes,
    block counts) is bit-sliced: its plane for bit k of each value's rank
    among the value table's distinct values is the set of strings whose
    rank has bit k set (_select through the ranks and _BITS[k]), and the
    shifted planes tell whether the two ranks differ and which is greater
    at the highest bit where they do. Ranks keep the order, which is all the
    comparison reads, in fewer planes than the values. Only the blocks'
    results are joined into one int over the cube."""
    if sum(x.bit_count() for x in members) == 1 << n:
        return 0
    objective_steps = [_counting_steps(tables) for tables, _ in objective_tables]
    if _one_count(objective_steps):
        vectors = {a: v for a, (v, _) in _levels(objective_tables).items()}
        table = bytearray(max(vectors) + 1)
        # A level that is not reached has no strings; its stand-in v does
        # not dominate v.
        for a, v in vectors.items():
            table[a] = not any(dominates(vectors.get(c, v), v) for c in (a - 1, a + 1))
        selected = _select(_cells(objective_tables[0][0]), table)
        return _join([(x | m) ^ m for x, m in zip(selected, members)], n)
    ranked, counting = [], []
    for (tables, final), steps in zip(objective_tables, objective_steps):
        cells = _cells(tables)
        if steps is None:
            values = sorted(set(final))
            ranks = bytes(map(values.index, final))
            planes = _BITS[: (len(values) - 1).bit_length()]
            ranked.append([_select(cells, _translate(ranks, table)) for table in planes])
        else:
            counting.append((cells, final, steps))
    count = len(cells[1])
    low = n + 1 - count.bit_length()
    # Per index bit, the counting objectives' moves across it, and per
    # distinct moves, the strings whose neighbour is greater in some
    # counting objective and those whose neighbour is smaller in some.
    moves = list(zip(*(steps for _, _, steps in counting))) or [()] * n
    by_moves = {}
    for move in set(moves):
        rise = fall = [0] * count
        for (cells, final, _), d in zip(counting, move):
            change = [
                final[s + d] - v if 0 <= s + d < len(final) else 0 for s, v in enumerate(final)
            ]
            rise = list(map(or_, rise, _select(cells, bytes(c > 0 for c in change))))
            fall = list(map(or_, fall, _select(cells, bytes(c < 0 for c in change))))
        by_moves[move] = rise, fall
    moved = [by_moves[move] for move in moves]
    del by_moves
    # blocks[r]: per bit-sliced objective, its rank planes in block r.
    blocks = [[[p[r] for p in planes] for planes in ranked] for r in range(count)]
    # marked[r]: the members of block r and the strings marked in it.
    marked = list(members)
    full = (1 << (1 << low)) - 1
    for h in reversed(range(count.bit_length() - 1)):
        step = 1 << h
        # up: the neighbour is greater in some objective; down: smaller.
        rise, fall = moved[low + h]
        for r in range(count):
            s = r | step
            if r == s or marked[r] == full and marked[s] == full:
                continue
            up, down = rise[r], fall[r]
            for planes, above in zip(blocks[r], blocks[s]):
                differ = greater = 0
                for p, q in zip(planes, above):
                    d = p ^ q
                    if d:
                        # Where they differ, a higher bit plane overrides.
                        greater ^= (greater ^ q) & d
                        differ |= d
                up |= greater
                down |= differ ^ greater
            # Better in one direction only is strictly dominating.
            strict = up ^ down
            marked[r] |= strict & up
            marked[s] |= strict & down
    # Bit by bit, so that one mask is held at a time, over the blocks that
    # are not full.
    live = [(r, block) for r, block in enumerate(blocks) if marked[r] != full]
    if live:
        for b, low_clear in _bit_clears(low):
            step = 1 << b
            rise, fall = moved[b]
            for r, block in live:
                up, down = rise[r], fall[r]
                for planes in block:
                    differ = greater = 0
                    for p in planes:
                        q = p >> step
                        d = p ^ q
                        if d:
                            greater ^= (greater ^ q) & d
                            differ |= d
                    up |= greater
                    down |= differ ^ greater
                strict = (up ^ down) & low_clear
                marked[r] |= strict & up | (strict & down) << step
    # The planes and sets go before the marks are joined, which lowers the
    # peak.
    del ranked, moved, blocks, live, rise, fall
    return _join([m ^ full for m in marked], n)


def _members(bits: int, n: int):
    """The set bits of packed bits over 2^n strings, ascending, one at a
    time: find takes each packed byte that _ZERO leaves unflagged, and
    _OFFSETS its set bits. A Python step per member, so for sparse sets."""
    if not bits:
        return
    raw = bits.to_bytes((1 << n) + 7 >> 3, "little")
    # The int goes before the flags are made, which lowers the peak where
    # the caller holds it no longer.
    del bits
    zero = raw.translate(_ZERO)
    j = zero.find(0)
    while j != -1:
        for k in _OFFSETS[raw[j]]:
            yield j << 3 | k
        j = zero.find(0, j + 1)


# Bit 7 of a byte is the omit flag of the lane selections, and deleting
# _OMITTED drops every flagged byte. _ZERO flags a zero byte; _CLEAR[k]
# flags a byte whose bit k is clear, and _OFFSET[k] does too, but maps a
# byte whose bit k is set to k.
_CLEAR = [table.translate(bytes([128, 0]).ljust(256, b"\0")) for table in _BITS]
_OFFSET = [table.translate(bytes([128, k]).ljust(256, b"\0")) for k, table in enumerate(_BITS)]
_OMITTED = bytes(range(128, 256))
# Nonzero packed bytes per span of _set_lanes: 8 slots each, so a span's
# work stays within 16 KiB a lane, and its members within 16,384.
_SPAN = 1 << 11


def _periodic(size: int, shift: int) -> int:
    """The int of size bytes whose byte j is (j >> shift) & 127."""
    run = b"".join([bytes([v]) * (1 << shift) for v in range(min(128, size >> shift))])
    return int.from_bytes(run * (size // len(run)), "little")


def _set_lanes(bits: int, n: int):
    """The set bits of packed bits over 2^n strings, ascending, as byte
    lanes, one byte per member in each: lane 0 holds the member's index
    bits 0 to 2, lane q >= 1 the 7 bits from 7q - 4. Yields the lanes of the
    members of up to _SPAN nonzero packed bytes at a time. Each lane is
    selected by deleting flagged bytes, and no mask of the cube is built.

    Level 1, run once, flags the zero packed bytes and selects, from the
    periodic bytes (j >> 7p) & 127 over the packed bytes' indices j, those
    of the nonzero bytes: lane p + 1 of their members. Level 2, per span,
    gives each byte 8 slots, slot k flagged when its bit k is clear: lane 0
    is selected from the slots' offsets k, and each higher lane from its
    level-1 lane, each byte in all 8 slots."""
    raw = bits.to_bytes((1 << n) + 7 >> 3, "little")
    size = len(raw)
    zero = int.from_bytes(raw.translate(_ZERO), "little")
    nonzero = raw.translate(None, b"\0")
    del raw
    high = [
        (_periodic(size, shift) | zero).to_bytes(size, "little").translate(None, _OMITTED)
        for shift in range(0, n - 3, 7)
    ]
    del zero
    for start in range(0, len(nonzero), _SPAN):
        span = nonzero[start : start + _SPAN]
        slots = bytearray(len(span) << 3)
        for k, table in enumerate(_OFFSET):
            slots[k::8] = span.translate(table)
        lanes = [slots.translate(None, _OMITTED)]
        clear = [int.from_bytes(span.translate(table), "little") for table in _CLEAR]
        for lane in high:
            value = int.from_bytes(lane[start : start + _SPAN], "little")
            for k, flag in enumerate(clear):
                slots[k::8] = (value | flag).to_bytes(len(span), "little")
            lanes.append(slots.translate(None, _OMITTED))
        yield lanes


def enumerate_landscape(inst: ProblemInstance) -> LandscapeReport:
    """Full exact analysis of one instance by enumerating all 2^n strings."""
    limit = enumeration_cap()
    if inst.n > limit:
        raise EnumerationCapError(
            f"n={inst.n} exceeds the enumeration cap {limit} and would need"
            f" {_estimated_memory(inst.n)}; set {CAP_ENV_VAR} (at most {MAX_CAP}) to raise it"
        )
    return _report(inst)


# One slot suffices: callers ask for an instance's report and then for its
# profile or its verification, so only the most recent report is read again.
@lru_cache(maxsize=1)
def _report(inst: ProblemInstance) -> LandscapeReport:
    n = inst.n

    # The image with its multiplicities comes from the packed ones counts of
    # image_polys, in ascending (f1, f2) order. A vector's count is the sum
    # of its digits, and since 2^(n+1) is 1 modulo 2^(n+1) - 1, that sum is
    # the packed int's remainder: it cannot wrap, as it is at most 2^n.
    polys = image_polys(inst)
    modulus = (1 << n + 1) - 1
    vector_counts = {v: poly % modulus for v, poly in polys.items()}
    assignment = nondominated_sort(vector_counts)
    front = set(assignment.levels[0])

    # The statistic pairs that the value tables send onto the front.
    objective_tables = _objective_tables(inst)
    (_, final1), (_, final2) = objective_tables
    pairs = [(a, b) for a, v in enumerate(final1) for b, w in enumerate(final2) if (v, w) in front]
    member_blocks = _statistic_pairs(inst.info.objectives, pairs, n, inst.l)
    member_bits = _join(member_blocks, n)

    front_counts = tuple((v, vector_counts[v]) for v in sorted(front))

    return LandscapeReport(
        instance=inst,
        front_counts=front_counts,
        levels=assignment.levels,
        vector_counts=vector_counts,
        member_bits=member_bits,
        local_optima_bits=_local_optima(objective_tables, member_blocks, n),
        image_polys=polys,
    )


def _image_levels(inst: ProblemInstance) -> tuple[tuple[ObjectiveVector, ...], ...]:
    """The non-dominated levels of the image that image_polys counts, with
    no cube."""
    return nondominated_sort(image_polys(inst)).levels


def is_completely_conflicting(inst: ProblemInstance) -> bool:
    """True when any improvement in one objective forces a loss in the other:
    distinct image vectors never share a coordinate and are totally ordered
    with f2 strictly falling as f1 rises, that is, none dominates another
    and they all form one non-dominated level."""
    return len(_image_levels(inst)) == 1


def is_symmetric_pair(inst: ProblemInstance) -> bool:
    """True when complementing plus mirroring every string swaps the two
    objectives everywhere."""
    # Complementing and mirroring is an involution, so f1 equal to f2 after
    # it everywhere also gives f2 equal to f1 after it. Index bit n - 1 - j
    # of the mirror is bit j of x complemented, so f2 reads x's bits
    # downward. One DP reads them upward on pairs of f1's state and g, the
    # table from f2's state before it reads bit j's mirror to f2's final
    # value: reading bit c of x puts f2's step on 1 - c in front of g. Each
    # g is an element of the transition monoid of f2's reversed automaton,
    # so the pairs stay few.
    (tables1, final1), (tables2, final2) = _objective_tables(inst)
    pairs = {(0, final2)}
    for (t0, t1), (u0, u1) in zip(tables1, reversed(tables2)):
        pairs = {(t[s], _translate(u, g)) for s, g in pairs for t, u in ((t0, u1), (t1, u0))}
    return all(final1[s] == g[0] for s, g in pairs)


def is_fully_separable(inst: ProblemInstance, objective: int) -> bool:
    """True when flipping any one bit changes the objective by an amount
    independent of all other bits (bitwise additive form).

    Per index bit b, a DP over the index bits from bit 0 upward on the pairs
    of the automaton's states on a context (an index with bit b clear) and
    on the context with bit b set. Context 0 is one of them, so the
    objective is separable when the final pairs of every b share one delta.
    """
    if type(objective) is not int or objective not in (1, 2):
        raise ValidationError(f"objective selector must be 1 or 2, got {objective!r}")
    tables, final = _objective_tables(inst)[objective - 1]
    for b in range(len(tables)):
        # At bit b the context reads 0 and its flip 1; elsewhere both read
        # the context's bit.
        reached = {(0, 0)}
        for m, (t0, t1) in enumerate(tables):
            moves = ((t0, t1),) if m == b else ((t0, t0), (t1, t1))
            reached = {(u[s], v[r]) for s, r in reached for u, v in moves}
        if len({final[r] - final[s] for s, r in reached}) > 1:
            return False
    return True


def front_shape(inst: ProblemInstance) -> FrontShape:
    """Classify the Pareto front: collinear, or bent below its upper hull.

    A one-point front is reported as degenerate rather than classified.
    """
    return _front_shape(inst, sorted(_image_levels(inst)[0]))


def _front_shape(inst: ProblemInstance, points: list[ObjectiveVector]) -> FrontShape:
    """front_shape of inst's front, given as its points sorted by f1. The
    exact cross product of each consecutive triple (o, a, p) is positive
    exactly when a lies strictly below the chord from o to p."""
    if len(points) == 1:
        return FrontShape.DEGENERATE
    turns = [
        (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
        for o, a, p in zip(points, points[1:], points[2:])
    ]
    if not any(turns):
        return FrontShape.LINEAR
    # A polyline with no point below its neighbours' chord is concave, so it
    # is its own upper hull and no point lies strictly below that hull.
    if max(turns) > 0:
        return FrontShape.NONLINEAR_CONCAVE
    raise ValidationError(
        f"{inst.descriptor}: front is neither collinear nor concave; not classified"
    )


def characteristic_profile(inst: ProblemInstance) -> CharacteristicProfile:
    """All seven characteristic flags for one instance, computed exactly."""
    report = enumerate_landscape(inst)
    shape = _front_shape(inst, [v for v, _ in report.front_counts])
    separable = is_fully_separable(inst, 1) and is_fully_separable(inst, 2)
    return CharacteristicProfile(
        instance=inst,
        non_symmetric=not is_symmetric_pair(inst),
        non_completely_conflicting=len(report.levels) > 1,
        disjoint_optima=report.component_count > 1,
        not_fully_separable=not separable,
        low_ratio_witness=report.ratio <= LOW_RATIO_THRESHOLD,
        nonlinear_front=shape is FrontShape.NONLINEAR_CONCAVE,
        has_local_optima=bool(report.local_optima_bits),
        component_count=report.component_count,
        ratio=report.ratio,
        front_shape=shape,
        local_optima_count=report.local_optima_bits.bit_count(),
    )


# _DIGITS[k] maps a byte to the ASCII digit of its bit k.
_DIGITS = [bytes(48 | v >> k & 1 for v in range(256)) for k in range(8)]


def _binary_lines(bits: int, n: int):
    """The set bits of packed bits over 2^n strings, ascending, each as n
    binary digits, most significant first, one line each with its newline.
    Yields the lines of one span of _set_lanes at a time, as a str built
    from an (n + 1)-column byte matrix: index bit b is bit k of lane q, and
    that lane translated to digits is assigned into column n - 1 - b."""
    if not bits:
        return
    width = n + 1
    for lanes in _set_lanes(bits, n):
        lines = bytearray(b"\n" * (width * len(lanes[0])))
        for b in range(n):
            q, k = divmod(b + 4, 7) if b > 2 else (0, b)
            lines[n - 1 - b :: width] = lanes[q].translate(_DIGITS[k])
        yield lines.decode("ascii")


def _fmt_counts(pairs) -> str:
    return ";".join(f"{v}:{c}" for v, c in pairs)


def _report_pieces(report: LandscapeReport):
    """The text of render_report in pieces: the head, the local optima span
    by span (_binary_lines), and the tail. The head and the tail are built
    before this returns, so an error in them comes before any text does."""
    n = report.n
    head = [
        f"instance: {report.instance.descriptor}",
        f"search_space: {1 << n}",
        f"pareto_set: {report.member_bits.bit_count()}",
        f"pareto_front: {len(report.front_counts)}",
        f"ratio: {report.ratio.numerator}/{report.ratio.denominator}",
        f"components: {report.component_count}",
        f"local_optima: {report.local_optima_bits.bit_count()}",
        f"levels: {len(report.levels)}",
        "front:",
        "f1,f2,count",
    ]
    head.extend(f"{a},{b},{c}" for (a, b), c in report.front_counts)
    head.append("local_optima_strings:")
    tail = ["ones_tables:", "ones,f1_value:count,f2_value:count,level:count"]
    for ones, summary in report.ones_tables:
        tail.append(
            f"{ones},{_fmt_counts(summary.f1_counts)},"
            f"{_fmt_counts(summary.f2_counts)},{_fmt_counts(summary.level_counts)}"
        )
    head, tail = "\n".join(head) + "\n", "\n".join(tail) + "\n"
    return chain((head,), _binary_lines(report.local_optima_bits, n), (tail,))


def render_report(report: LandscapeReport) -> str:
    """Stable plain-text serialization of a landscape report: the pieces of
    _report_pieces joined, which the landscape command writes one by one."""
    return "".join(_report_pieces(report))


def summary_line(report: LandscapeReport) -> str:
    """One-line overview used by the command line tool."""
    return (
        f"|PS|={report.member_bits.bit_count()}"
        f" ratio={report.ratio.numerator}/{report.ratio.denominator}"
        f" components={report.component_count}"
        f" |LO|={report.local_optima_bits.bit_count()}"
    )
