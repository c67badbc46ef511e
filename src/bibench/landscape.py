"""Exhaustive landscape analysis: Pareto structure, local optima, and the
seven characteristic flags, all computed exactly. Symmetry and separability
are decided on the objectives' automata (problems._objective_tables), and
complete conflict and the front's shape on the image they count
(problems.image_polys), with no enumeration, so these answer at every n up
to 63; the rest enumerates the cube.

Enumeration holds a set of strings, such as the Pareto set or the local
optima, as packed bits: an int whose bit i is set when string i is in the
set. Most stages are whole-cube operations (bytes.translate, slicing,
compress, big-int arithmetic on packed bits or on bit planes, whose bit i
belongs to string i). Three stages loop in Python per string: where at most
1/32 of the cube lies outside the Pareto set, its non-members and their
neighbours are evaluated one by one (problems.index_evaluator) to check
their local optimality (_local_optima_by_string); where the Pareto set holds
at most 1/16 of the cube, LandscapeReport.component_count floods it from
member to member (_component_count); and LandscapeReport.local_front_counts,
read only by the objective_space figure, evaluates every local optimum.

No objective is held as a byte plane. The image, its multiplicities and
the ones tables come from the packed ones counts per image vector that
problems.image_polys counts by one DP over the index bits, the ones tables
on first read. The Pareto set and the bit planes of the local-optimum scan
are unions of the packed index sets that reach each state of the
statistics' automata (problems._cells), selected by states: the Pareto set
by the statistic pairs that the value tables send onto the front, as every
Pareto closed form is built (problems._pair_bits), and a bit plane per
value bit through the value table (problems._select).

Enumeration is capped (default 24 bits, env var BIBENCH_ENUM_CAP) so
accidental huge requests fail fast with a clear error.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress

from .bitstring import BitString
from .dominance import LevelAssignment, ObjectiveVector, nondominated_sort
from .errors import EnumerationCapError, ValidationError
from .problems import (
    ProblemInstance,
    _cells,
    _objective_tables,
    _pair_bits,
    _select,
    _translate,
    image_polys,
    index_evaluator,
)

DEFAULT_CAP = 24
CAP_ENV_VAR = "BIBENCH_ENUM_CAP"

# Budget for the peak resident memory of enumerate_landscape plus
# characteristic_profile per string of the cube. The largest measured over
# the families at n = 24 is 85 MB, 5.3 bytes per string, on a dense Pareto
# set, whose component count floods with a whole-cube mask per index bit
# (see README); the budget stays at 24, since 16 or less would raise
# MAX_CAP, the largest n whose estimate fits MEMORY_LIMIT, from 29 to 30.
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
    Their index arrays (4 bytes per member) are built on each read and kept
    by neither the report nor its memo (_report): no caller reads one twice.
    The local optima's image, the Pareto set's component count and the ones
    tables are computed on first access and kept: the objective-space
    figure reads the image, the report text, the summary line and the
    profile the component count, the report text and the ones figures the
    ones tables, and verify only sizes, the bit counts."""

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
        Whole-cube floods cost a pass over the cube per sweep and component;
        the byte flood costs a step per member. Sparse Pareto sets, with
        their many isolated members (orzr, ojzr), take the byte flood."""
        n, members = self.n, self.member_bits
        if members.bit_count() > (1 << n) >> 4:
            return _bit_component_count(members, n)
        return _component_count(_unpack_bits(members, 1 << n), n)

    @cached_property
    def ones_tables(self) -> tuple[tuple[int, OnesSummary], ...]:
        """For each number of ones, ascending, the counts of the f1 values,
        the f2 values and the levels of the strings with that many ones,
        each sorted by value: the digits of the packed ones counts."""
        n = self.n
        mask = (1 << n + 1) - 1
        level_by_vector = LevelAssignment(self.levels).level_by_vector
        tables = [(Counter(), Counter(), Counter()) for _ in range(n + 1)]
        for (a, b), poly in self.image_polys.items():
            level = level_by_vector[a, b]
            for f1, f2, by_level in tables:
                if count := poly & mask:
                    f1[a] += count
                    f2[b] += count
                    by_level[level] += count
                poly >>= n + 1
        return tuple(
            (ones, OnesSummary(*(tuple(sorted(c.items())) for c in counters)))
            for ones, counters in enumerate(tables)
        )

    @property
    def pareto_set_indices(self) -> array:
        """The indices of the Pareto set, ascending."""
        return _set_indices(self.member_bits, self.n)

    @property
    def local_optima_indices(self) -> array:
        """The indices of the non-global Pareto local optima, ascending: no
        neighbor strictly dominates them, yet they are not Pareto-optimal.
        Equal-valued neighbors do not disqualify."""
        return _set_indices(self.local_optima_bits, self.n)

    @cached_property
    def local_front_counts(self) -> tuple[tuple[ObjectiveVector, int], ...]:
        """The local optima's image vectors, ascending, with their counts."""
        counts = Counter(map(index_evaluator(self.instance), self.local_optima_indices))
        return tuple(sorted(counts.items()))


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
    of members (bit i set when index i is a member). Each component grows
    from its lowest member by sweeps over the whole cube, one shift pair per
    index bit, until a sweep adds nothing."""
    clear = [_bit_clear(n, b) for b in range(n)]
    components = 0
    while members:
        components += 1
        grown = members & -members
        seen = 0
        while grown != seen:
            seen = grown
            for b, low in enumerate(clear):
                step = 1 << b
                grown |= ((grown & low) << step | (grown >> step) & low) & members
        members ^= grown
    return components


# _BITS[k] maps a byte to its bit k.
_BITS = [bytes(v >> k & 1 for v in range(256)) for k in range(8)]


def _unpack_bits(packed: int, size: int) -> bytearray:
    """The size bytes whose byte i is bit i of packed."""
    raw = packed.to_bytes(-(-size // 8), "little")
    flags = bytearray(len(raw) << 3)
    for k, table in enumerate(_BITS):
        flags[k::8] = raw.translate(table)
    del flags[size:]
    return flags


def _local_optima(cells, finals, member: int, n: int) -> int:
    """The int whose bit i is set exactly when string i is a non-global
    local optimum: not a member (bit i of member) and no neighbour strictly
    dominates it (an equal-valued neighbour does not count).

    Bit-sliced: from each objective's cells (problems._cells) and value
    table, the objective's bit planes, low value bit first: the plane for
    value bit k is the set of strings whose value has bit k set, the final
    states that the value table composed with _BITS[k] marks (_select), so
    bit i of every int below belongs to string i. For index bit b, the
    strings with bit b clear meet their neighbours 2^b bits up. The bit
    planes in turn tell, per objective, whether the two values differ and
    which is greater at the highest bit where they do."""
    size = 1 << n
    sliced = [
        [_select(c, _translate(final, table), n) for table in _BITS[: max(final).bit_length()]]
        for c, final in zip(cells, finals)
    ]
    marked = member
    for b in range(n):
        step = 1 << b
        # up: the neighbour is greater in some objective; down: smaller.
        up = down = 0
        for planes in sliced:
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
        strict = (up ^ down) & _bit_clear(n, b)
        marked |= strict & up | (strict & down) << step
    return marked ^ ((1 << size) - 1)


def _local_optima_by_string(evaluate, member: int, n: int) -> int:
    """The same set as _local_optima, found by checking each non-member
    against its n neighbours, evaluated one by one (index_evaluator): a step
    per non-member and neighbour, against the scan's whole-cube passes, so
    it pays for a dense Pareto set."""
    packed = bytearray((1 << n) + 7 >> 3)
    bits = [1 << b for b in range(n)]
    for i in _set_indices(member ^ ((1 << (1 << n)) - 1), n):
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


def _set_indices(bits: int, n: int) -> array:
    """The indices of the set bits of packed bits over 2^n strings, ascending."""
    if not bits:
        return array("I")
    return _indices(_unpack_bits(bits, 1 << n))


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
    (tables1, final1), (tables2, final2) = _objective_tables(inst)
    pairs = [(a, b) for a, v in enumerate(final1) for b, w in enumerate(final2) if (v, w) in front]
    cells = [_cells(tables1), _cells(tables2)]
    member_bits = _pair_bits(cells, pairs, n)

    # On the grid's instances with n = 17..22, the per-string check beats
    # the local-optimum scan on each with under 2% of the cube outside the
    # Pareto set and loses on most beyond 3%. Between them the winner
    # depends on the family, and over the ten instances the check took
    # 0.48-0.57 s against the scan's 0.60-0.67 s. So the check takes every
    # instance with at most 1/32 of the cube outside.
    if size - member_bits.bit_count() <= size >> 5:
        local_optima_bits = _local_optima_by_string(index_evaluator(inst), member_bits, n)
    else:
        local_optima_bits = _local_optima(cells, [final1, final2], member_bits, n)

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


def _binary_lines(indices: array, n: int) -> str:
    """Each index as n binary digits, most significant first, one line each
    with its newline. Built as one (n + 1)-column byte matrix: for index bit
    b, the byte lane of the array that holds b is translated to digits and
    assigned into column n - 1 - b."""
    width = indices.itemsize
    raw = indices.tobytes()
    lines = bytearray(b"\n" * ((n + 1) * len(indices)))
    for b in range(n):
        lane = b >> 3 if sys.byteorder == "little" else width - 1 - (b >> 3)
        lines[n - 1 - b :: n + 1] = raw[lane::width].translate(_DIGITS[b & 7])
    return lines.decode("ascii")


def _fmt_counts(pairs) -> str:
    return ";".join(f"{v}:{c}" for v, c in pairs)


def render_report(report: LandscapeReport) -> str:
    """Stable plain-text serialization of a landscape report. The local
    optima are written by _binary_lines, all at once."""
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
    strings = _binary_lines(report.local_optima_indices, n)
    return "".join(("\n".join(head), "\n", strings, "\n".join(tail), "\n"))


def summary_line(report: LandscapeReport) -> str:
    """One-line overview used by the command line tool."""
    return (
        f"|PS|={report.member_bits.bit_count()}"
        f" ratio={report.ratio.numerator}/{report.ratio.denominator}"
        f" components={report.component_count}"
        f" |LO|={report.local_optima_bits.bit_count()}"
    )
