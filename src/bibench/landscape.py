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
local-optimum scan (_local_optima) and the bit flood that counts the
components of a Pareto set holding more than 1/16 of the cube
(_bit_component_count) work on the blocks of at most 2^16 indices that
problems._cells splits the cube into, so that their operands stay small
enough for the cache; the scan joins only its marks, and the flood visits
only the blocks a component reaches. The other stages work on the whole
cube. Two stages loop in Python per string: where at most 1/64 of the cube
lies outside the Pareto set, its non-members and their neighbours are
evaluated one by one (problems.index_evaluator) to check their local
optimality (_local_optima_by_string); and where the Pareto set holds at
most 1/16 of the cube, LandscapeReport.component_count floods it from
member to member (_component_count). The image of a packed set, the local
optima's (LandscapeReport.local_front_counts) or verify's claimed Pareto
set's, is counted on the same blocks (problems._image_counts), with no
string evaluated.

No set is unpacked into a mask of the cube. The sparse readers above and
the index arrays take the members from the nonzero bytes of the packed set
(_members), a Python step per member; the report text, whose set may fill
most of the cube, takes them from byte lanes of index bits selected from
the packed bytes (_set_lanes), with no Python step per member. The text is
listed span by span, up to _SPAN nonzero packed bytes at a time, and the
landscape command writes each span as it comes, so it never holds the
whole list; render_report joins the spans.

No objective is held as a byte plane. The image, its multiplicities and
the ones tables come from the packed ones counts per image vector that
problems.image_polys counts by one DP over the index bits, the ones tables
on first read. The Pareto set and the bit planes of the local-optimum scan
are unions of the packed index sets that reach each state of the
statistics' automata (problems._cells), selected by states: the Pareto set
by the statistic pairs that the value tables send onto the front, through
the kernel that builds every Pareto closed form (problems._statistic_pairs),
and a bit plane per value bit and block through the value table
(problems._select).

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
from itertools import chain, compress

from . import problems
from .bitstring import BitString
from .dominance import LevelAssignment, ObjectiveVector, nondominated_sort
from .errors import EnumerationCapError, ValidationError
from .problems import (
    ProblemInstance,
    _cells,
    _image_counts,
    _join,
    _objective_tables,
    _select,
    _split,
    _statistic_pairs,
    _translate,
    image_polys,
    index_evaluator,
)

DEFAULT_CAP = 24
CAP_ENV_VAR = "BIBENCH_ENUM_CAP"

# Budget for the peak resident memory of enumerate_landscape plus
# characteristic_profile per string of the cube. The largest measured over
# the families at n = 24 is 43 MB, 2.7 bytes per string, on cocz, set by
# enumeration's local-optimum scan; the component count takes a sparse
# Pareto set's members from its packed bytes, and floods a dense one block
# by block (see README). The landscape command adds one span of the report
# text at a time, written as it is listed: orzr:n=24,l=12, whose 16.6 M
# local optima fill 99% of the cube, peaks at 37 MB, 2.3 bytes per string.
# The budget stays at 24, since 16 or less would raise MAX_CAP, the largest
# n whose estimate fits MEMORY_LIMIT, from 29 to 30.
BYTES_PER_STRING = 24
MEMORY_LIMIT = 16 << 30
MAX_CAP = (MEMORY_LIMIT // BYTES_PER_STRING).bit_length() - 1

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
        The bit flood costs a pass over each block a component reaches, per
        sweep; the set flood costs a step per member, found from the nonzero
        bytes of the packed set (_members). Sparse Pareto sets, with their
        many isolated members (orzr, ojzr), take the set flood."""
        n, members = self.n, self.member_bits
        if members.bit_count() > (1 << n) >> 4:
            return _bit_component_count(members, n)
        return _component_count(set(_members(members, n)), n)

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


def _bit_clear(n: int, b: int) -> int:
    """The int whose bit i, for every index i < 2^n, is set when bit b of i
    is clear."""
    size = 1 << n
    if b < 3:
        pattern = bytes([(0x55, 0x33, 0x0F)[b]]) * max(1, size >> 3)
    else:
        half = 1 << (b - 3)
        pattern = (b"\xff" * half + bytes(half)) * (size >> (b + 1))
    clear = int.from_bytes(pattern, "little")
    return clear & ((1 << size) - 1) if size < 8 else clear


def _bit_component_count(members: int, n: int) -> int:
    """Connected components of the Hamming-distance-1 graph on the set bits
    of members (bit i set when index i is a member), on the cube's blocks of
    2^low indices, low = min(n, problems._SET_BITS), as problems._cells
    splits it. Each component grows from its lowest member over a worklist
    of blocks: a block is swept, one shift pair per index bit below low,
    until a sweep adds nothing; then the strings it reached meet the
    members at the same positions of each block that differs from it in
    one higher index bit, and a block that grows is queued. Only the blocks
    a component reaches are visited."""
    low = min(n, problems._SET_BITS)
    blocks = _split(members, n, 1 << n - low)
    clear = [_bit_clear(low, b) for b in range(low)]
    steps = [1 << h for h in range(n - low)]
    components = 0
    for r, block in enumerate(blocks):
        while block:
            components += 1
            # grown[s]: the component's strings in block s; swept[s]: those
            # of them already passed on to the neighbouring blocks.
            grown, swept = {r: block & -block}, {}
            queue = [r]
            while queue:
                s = queue.pop()
                reached = grown[s]
                if swept.get(s) == reached:
                    continue
                # A block stops growing once it holds all its members.
                member, seen = blocks[s], 0
                while reached != seen and reached != member:
                    seen = reached
                    for b, mask in enumerate(clear):
                        step = 1 << b
                        reached |= ((reached & mask) << step | (reached >> step) & mask) & member
                grown[s] = swept[s] = reached
                for step in steps:
                    t = s ^ step
                    before = grown.get(t, 0)
                    after = before | reached & blocks[t]
                    if after != before:
                        grown[t] = after
                        queue.append(t)
            for s, reached in grown.items():
                blocks[s] ^= reached
            block = blocks[r]
    return components


# _BITS[k] maps a byte to its bit k; _NONZERO maps a byte to 1 when it is
# not 0, and _OFFSETS[v] lists the set bits of byte v, ascending.
_BITS = [bytes(v >> k & 1 for v in range(256)) for k in range(8)]
_NONZERO = bytes(v > 0 for v in range(256))
_OFFSETS = [[k for k in range(8) if v >> k & 1] for v in range(256)]


def _local_optima(objective_tables, member: int, n: int) -> int:
    """The int whose bit i is set exactly when string i is a non-global
    local optimum: not a member (bit i of member) and no neighbour strictly
    dominates it (an equal-valued neighbour does not count).

    Bit-sliced, block by block: from each objective's step tables, its cells
    (problems._cells), and its value table, the objective's bit planes in
    each of the cells' blocks of 2^low indices, low value bit first: the
    plane for value bit k is the set of strings whose value has bit k set,
    the final states that the value table composed with _BITS[k] marks
    (_select), so bit i of every int below belongs to string i of its block.
    For index bit b below low, the strings of a block with bit b clear meet
    their neighbours 2^b bits up; for a higher bit, block r, with bit b - low
    of r clear, meets block r + 2^(b - low) at the same positions. The bit
    planes in turn tell, per objective, whether the two values differ and
    which is greater at the highest bit where they do. Only the blocks'
    marks are joined into one int over the cube."""
    sliced = []
    for tables, final in objective_tables:
        cells, planes = _cells(tables), _BITS[: max(final).bit_length()]
        sliced.append([_select(cells, _translate(final, table)) for table in planes])
    count = len(cells[1])
    low = n + 1 - count.bit_length()
    # blocks[r]: per objective, its bit planes in block r.
    blocks = [[[p[r] for p in planes] for planes in sliced] for r in range(count)]
    clear = [_bit_clear(low, b) for b in range(low)]
    marked = []
    for block in blocks:
        marks = 0
        for b, low_clear in enumerate(clear):
            step = 1 << b
            # up: the neighbour is greater in some objective; down: smaller.
            up = down = 0
            for planes in block:
                differ = greater = 0
                for p in planes:
                    q = p >> step
                    d = p ^ q
                    if d:
                        # Where they differ, a higher bit plane overrides.
                        greater ^= (greater ^ q) & d
                        differ |= d
                up |= greater
                down |= differ ^ greater
            # Better in one direction only is strictly dominating.
            strict = (up ^ down) & low_clear
            marks |= strict & up | (strict & down) << step
        marked.append(marks)
    for h in range(count.bit_length() - 1):
        step = 1 << h
        for r in range(count):
            if r & step:
                continue
            up = down = 0
            for planes, above in zip(blocks[r], blocks[r | step]):
                differ = greater = 0
                for p, q in zip(planes, above):
                    d = p ^ q
                    if d:
                        greater ^= (greater ^ q) & d
                        differ |= d
                up |= greater
                down |= differ ^ greater
            strict = up ^ down
            marked[r] |= strict & up
            marked[r | step] |= strict & down
    # The planes go before the marks are joined, which lowers the peak.
    del sliced, blocks
    return (_join(marked, n) | member) ^ ((1 << (1 << n)) - 1)


def _local_optima_by_string(evaluate, member: int, n: int) -> int:
    """The same set as _local_optima, found by checking each non-member
    against its n neighbours, evaluated one by one (index_evaluator): a step
    per non-member and neighbour, against the scan's passes over the cube's
    blocks, so it pays for a dense Pareto set. The non-members come from
    the packed bytes of their set (_members)."""
    if member.bit_count() == 1 << n:
        return 0
    packed = bytearray((1 << n) + 7 >> 3)
    bits = [1 << b for b in range(n)]
    # No name holds the non-members' int, so _members can drop it.
    for i in _members(member ^ ((1 << (1 << n)) - 1), n):
        a, b = evaluate(i)
        for bit in bits:
            c, d = evaluate(i ^ bit)
            if c >= a and d >= b and (c > a or d > b):
                break
        else:
            packed[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(packed, "little")


# Zero bytes that end a run of a mask. Compressing a shorter gap costs less
# than the find and the call that skipping it takes.
_GAP = bytes(64)


def _indices(mask: bytes) -> array:
    """The indices of the set bytes of a 0/1 mask, ascending. One compress
    per run of the mask that holds no gap of len(_GAP) zero bytes; find
    skips the gaps."""
    indices = array("I")
    start = mask.find(1)
    while start != -1:
        end = mask.find(_GAP, start)
        if end == -1:
            end = len(mask)
        indices.extend(compress(range(start, end), mask[start:end]))
        start = mask.find(1, end)
    return indices


def _members(bits: int, n: int):
    """The set bits of packed bits over 2^n strings, ascending, one at a
    time: _indices finds the nonzero packed bytes, and _OFFSETS the set bits
    of each. A Python step per member, so for sparse sets; none if empty."""
    if not bits:
        return
    raw = bits.to_bytes((1 << n) + 7 >> 3, "little")
    # The int goes before the mask of nonzero bytes is made, which lowers
    # the peak where the caller holds it no longer.
    del bits
    for j in _indices(raw.translate(_NONZERO)):
        for k in _OFFSETS[raw[j]]:
            yield j << 3 | k


# Bit 7 of a byte is the omit flag of the lane selections, and deleting
# _OMITTED drops every flagged byte. _ZERO flags a zero byte; _CLEAR[k]
# flags a byte whose bit k is clear, and _OFFSET[k] does too, but maps a
# byte whose bit k is set to k.
_ZERO = bytes([128]).ljust(256, b"\0")
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
    size = 1 << n

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
    member_bits = _statistic_pairs(inst.info.objectives, pairs, n, inst.l)

    # On the grid's instances with n = 17..22, the per-string check beats
    # the block scan on all but two with at most 1/64 of the cube outside
    # the Pareto set, and loses on each from 1/32 to 1/8. Between them the
    # scan won on 8 of the 10, and took 340-360 ms in all against the
    # check's 437-465 ms; on the verification grid's seven (n <= 14),
    # 0.83-0.92 ms against 0.96-1.04 ms. So the check takes every instance
    # with at most 1/64 of the cube outside.
    if size - member_bits.bit_count() <= size >> 6:
        local_optima_bits = _local_optima_by_string(index_evaluator(inst), member_bits, n)
    else:
        local_optima_bits = _local_optima(objective_tables, member_bits, n)

    front_counts = tuple((v, vector_counts[v]) for v in sorted(front))

    return LandscapeReport(
        instance=inst,
        front_counts=front_counts,
        levels=assignment.levels,
        vector_counts=vector_counts,
        member_bits=member_bits,
        local_optima_bits=local_optima_bits,
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


def is_fully_separable(inst: ProblemInstance, objective: int) -> SeparabilityReport:
    """Check one objective for full separability (bitwise additive form).

    An objective is fully separable iff flipping any one bit changes the value
    by an amount independent of all other bits. On success the report carries
    per-position contribution pairs; on failure, two contexts whose deltas for
    the same position differ.
    """
    if type(objective) is not int or objective not in (1, 2):
        raise ValidationError(f"objective selector must be 1 or 2, got {objective!r}")
    tables, final = _objective_tables(inst)[objective - 1]
    return _separability(tables, final, objective)


def _separability(tables, final, objective: int) -> SeparabilityReport:
    """The report of is_fully_separable for the objective whose automaton
    has the given step tables and final values. On failure it names the
    first position, index bit b from n - 1 down, whose flip delta differs
    between context 0 and some context (an index with bit b clear), and the
    smallest such context.

    Per bit b, a DP over the index bits from bit 0 upward on the pairs of
    the automaton's states on a context and on the context with bit b set,
    which also follows context 0's own pair. The final pairs with another
    delta than context 0's are bad. A walk from the top bit down then keeps,
    bit by bit, the lower bit value from which some reached pair still
    leads into a bad pair, and which one."""
    n = len(tables)
    contributions = []
    for b in reversed(range(n)):
        # Per index bit, the pair's moves on each bit value of the context;
        # at bit b the context reads 0 and its flip 1.
        moves = [
            ((t0, t1),) if m == b else ((t0, t0), (t1, t1)) for m, (t0, t1) in enumerate(tables)
        ]
        zero = (0, 0)
        reached = [{zero}]
        for pair_moves in moves:
            reached.append({(u[s], v[r]) for s, r in reached[-1] for u, v in pair_moves})
            u, v = pair_moves[0]
            zero = u[zero[0]], v[zero[1]]
        base, top = final[zero[0]], final[zero[1]]
        # Each pair that leads into a bad final pair maps to that pair.
        bad = {(s, r): (s, r) for s, r in reached.pop() if final[r] - final[s] != top - base}
        if bad:
            i = 0
            for m in reversed(range(n)):
                for c, (u, v) in enumerate(moves[m]):
                    before = {(s, r): end for s, r in reached[m] if (end := bad.get((u[s], v[r])))}
                    if before:
                        i |= c << m
                        bad = before
                        break
            s, r = bad[0, 0]
            return SeparabilityReport(
                objective=objective,
                separable=False,
                contributions=None,
                witness_position=n - b,
                witness=(BitString(n, 0), BitString(n, i)),
                witness_deltas=(top - base, final[r] - final[s]),
            )
        contributions.append((0, top - base))
    contributions[0] = (base, base + contributions[0][1])
    return SeparabilityReport(
        objective=objective,
        separable=True,
        contributions=tuple(contributions),
        witness_position=None,
        witness=None,
        witness_deltas=None,
    )


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
    separable = all(is_fully_separable(inst, objective).separable for objective in (1, 2))
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
