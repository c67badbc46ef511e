"""Exhaustive landscape analysis: Pareto structure, local optima, and the
seven characteristic flags, all computed exactly by enumeration.

Enumeration works on byte planes: 2^n bytes whose byte i is a value of the
string with index i. Every stage is a whole-plane operation
(bytes.translate, slicing, compress, big-int arithmetic on byte lanes or on
bit planes, whose bit i belongs to string i), so no Python loop runs per
string but one: the few non-members of a Pareto set that fills almost all of
the cube are checked for local optimality one by one. A set of strings, such
as the Pareto set or the local optima, is held as packed bits: an int whose
bit i is set when string i is in the set. The image, its multiplicities and
the ones tables are not read from the planes at all: they come from the
(f1, f2, ones) histogram that problems.image_counts counts by a DP over the
index bits.

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
from .dominance import ObjectiveVector, nondominated_sort
from .errors import EnumerationCapError, ValidationError
from .problems import ProblemInstance, _mark, _pack_bits, image_counts, objective_planes

DEFAULT_CAP = 24
CAP_ENV_VAR = "BIBENCH_ENUM_CAP"

# Budget for the peak resident memory of enumerate_landscape plus
# characteristic_profile per string of the cube. The largest measured over
# the families at n = 24 is 127 MB, 7.9 bytes per string (see README); the
# budget stays at 24, since 16 or less would raise MAX_CAP, the largest n
# whose estimate fits MEMORY_LIMIT, from 29 to 30.
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
    Their index arrays (4 bytes per member) and the local optima's image are
    built on first access: the report text reads the local optima's
    indices, the objective-space figure their image, and everything else
    only sizes, the bit counts."""

    instance: ProblemInstance
    # planes[j][i] is objective j+1 at the string with index i.
    planes: tuple[bytes, bytes] = field(repr=False, compare=False)
    front_counts: tuple[tuple[ObjectiveVector, int], ...]
    levels: tuple[tuple[ObjectiveVector, ...], ...]
    # Image vector to its number of strings, in ascending (f1, f2) order.
    vector_counts: dict[ObjectiveVector, int]
    # Bit i of each is set when string i is in the Pareto set, or is a
    # non-global local optimum.
    member_bits: int = field(repr=False)
    local_optima_bits: int = field(repr=False)
    component_count: int
    ones_tables: tuple[tuple[int, OnesSummary], ...]

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def ratio(self) -> Fraction:
        """The Pareto set's share of the search space."""
        return Fraction(self.member_bits.bit_count(), 1 << self.n)

    @cached_property
    def pareto_set_indices(self) -> array:
        """The indices of the Pareto set, ascending."""
        return _set_indices(self.member_bits, self.n)

    @cached_property
    def local_optima_indices(self) -> array:
        """The indices of the non-global local optima, ascending."""
        return _set_indices(self.local_optima_bits, self.n)

    @cached_property
    def local_front_counts(self) -> tuple[tuple[ObjectiveVector, int], ...]:
        """The local optima's image vectors, ascending, with their counts."""
        f1, f2 = self.planes
        local = self.local_optima_indices
        counts = Counter(zip(map(f1.__getitem__, local), map(f2.__getitem__, local)))
        return tuple(sorted(counts.items()))

    @property
    def pareto_set(self) -> tuple[BitString, ...]:
        return tuple(BitString(self.n, i) for i in self.pareto_set_indices)

    @property
    def local_optima(self) -> tuple[BitString, ...]:
        """Non-global Pareto local optima: no neighbor strictly dominates
        them, yet they are not Pareto-optimal. Equal-valued neighbors do not
        disqualify."""
        return tuple(BitString(self.n, i) for i in self.local_optima_indices)


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


# Delta swaps (shift, mask of one 64-bit word) that transpose the 8x8 bit
# matrix in every word: bit k of byte t trades places with bit t of byte k.
_TRANSPOSE = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
# Bytes transposed at a time, a multiple of 8.
_CHUNK = 1 << 16


def _bit_planes(plane: bytes) -> list[int]:
    """Bit planes 0 to 6 of a plane whose values are at most 127: bit i of
    the plane for bit k is bit k of byte i. An 8x8 bit transpose of every
    8 bytes gathers bit k of their 8 strings into byte k, and a strided
    slice collects those bytes; chunks keep the big ints small."""
    raw = plane + bytes(-len(plane) % 8)
    chunk = min(len(raw), _CHUNK)
    swaps = [
        (shift, int.from_bytes(mask.to_bytes(8, "little") * (chunk >> 3), "little"))
        for shift, mask in _TRANSPOSE
    ]
    rows = [[] for _ in range(7)]
    for start in range(0, len(raw), chunk):
        x = int.from_bytes(raw[start : start + chunk], "little")
        for shift, mask in swaps:
            t = (x ^ x >> shift) & mask
            x ^= t ^ t << shift
        block = x.to_bytes(chunk, "little")
        for k, row in enumerate(rows):
            row.append(block[k::8])
    return [int.from_bytes(b"".join(row), "little") for row in rows]


def _local_optima(f1: bytes, f2: bytes, member: int, n: int) -> int:
    """The int whose bit i is set exactly when string i is a non-global
    local optimum: not a member (bit i of member) and no neighbour strictly
    dominates it (an equal-valued neighbour does not count).

    Bit-sliced: each plane becomes its 7 bit planes, so bit i of every int
    below belongs to string i. For index bit b, the strings with bit b clear
    meet their neighbours 2^b bits up. Bit planes 0 to 6 in turn tell, per
    objective, whether the two values differ and which is greater at the
    highest bit where they do."""
    size = 1 << n
    sliced = (_bit_planes(f1), _bit_planes(f2))
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


def _local_optima_by_string(f1: bytes, f2: bytes, member: int, n: int) -> int:
    """The same set as _local_optima, found by checking each non-member
    against its n neighbours: a step per non-member and neighbour, against
    the scan's whole-cube passes, so it pays for a dense Pareto set."""
    flags = bytearray(1 << n)
    bits = [1 << b for b in range(n)]
    for i in _set_indices(member ^ ((1 << (1 << n)) - 1), n):
        a, b = f1[i], f2[i]
        for bit in bits:
            c, d = f1[i ^ bit], f2[i ^ bit]
            if c >= a and d >= b and (c > a or d > b):
                break
        else:
            flags[i] = 1
    return _pack_bits(flags)


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
# predicates, so only the most recent report is read again.
@lru_cache(maxsize=1)
def _report(inst: ProblemInstance) -> LandscapeReport:
    n = inst.n
    size = 1 << n
    f1, f2 = objective_planes(inst)

    # The image with its multiplicities and the ones tables come from the
    # counted (f1, f2, ones) histogram, whose keys sort by (f1, f2).
    image = sorted(image_counts(inst).items())
    vector_counts: dict[ObjectiveVector, int] = {}
    for (a, b, _), count in image:
        vector_counts[a, b] = vector_counts.get((a, b), 0) + count
    assignment = nondominated_sort(vector_counts)
    level_by_vector = assignment.level_by_vector
    front = assignment.levels[0]

    # A front vector is the only one on the front with its f1, so string i
    # is a member when its f2 is the front's f2 at its f1.
    front_f2 = bytearray(b"\xff" * 256)
    for a, b in front:
        front_f2[a] = b
    paired = int.from_bytes(f1.translate(front_f2), "little") ^ int.from_bytes(f2, "little")
    member_bits = _mark(paired.to_bytes(size, "little"), (0,))
    del paired

    # Whole-cube floods cost a pass over the cube per sweep and component;
    # the byte flood costs a step per member. Sparse Pareto sets, with their
    # many isolated members (orzr, ojzr), take the byte flood. Likewise the
    # local-optimum scan and the per-string check break even near 6% of the
    # cube outside the Pareto set (n = 18); the check takes 1/32 or less.
    members = member_bits.bit_count()
    if members > size >> 4:
        components = _bit_component_count(member_bits, n)
    else:
        components = _component_count(_unpack_bits(member_bits, size), n)
    local_optima = _local_optima_by_string if size - members <= size >> 5 else _local_optima

    front_counts = tuple((v, vector_counts[v]) for v in sorted(front))

    ones_f1 = [Counter() for _ in range(n + 1)]
    ones_f2 = [Counter() for _ in range(n + 1)]
    ones_level = [Counter() for _ in range(n + 1)]
    for (a, b, ones), count in image:
        ones_f1[ones][a] += count
        ones_f2[ones][b] += count
        ones_level[ones][level_by_vector[a, b]] += count

    ones_tables = tuple(
        (
            ones,
            OnesSummary(
                tuple(sorted(ones_f1[ones].items())),
                tuple(sorted(ones_f2[ones].items())),
                tuple(sorted(ones_level[ones].items())),
            ),
        )
        for ones in range(n + 1)
    )

    return LandscapeReport(
        instance=inst,
        planes=(f1, f2),
        front_counts=front_counts,
        levels=assignment.levels,
        vector_counts=vector_counts,
        member_bits=member_bits,
        local_optima_bits=local_optima(f1, f2, member_bits, n),
        component_count=components,
        ones_tables=ones_tables,
    )


def is_completely_conflicting(inst: ProblemInstance) -> bool:
    """True when any improvement in one objective forces a loss in the other:
    distinct image vectors never share a coordinate and are totally ordered
    with f2 strictly falling as f1 rises, that is, none dominates another
    and they all form one non-dominated level."""
    return len(enumerate_landscape(inst).levels) == 1


def _bit_reversed(k: int) -> list[int]:
    """0 to 2^k - 1, each with its k bits reversed, in order."""
    order = [0]
    for _ in range(k):
        order = [x << 1 for x in order] + [x << 1 | 1 for x in order]
    return order


def _mirror(plane: bytes, n: int) -> bytes:
    """The plane with byte i moved to byte rev(i), where rev reverses the n
    bits of an index. Reversing is a transpose of the matrix whose rows are
    the high n - n//2 index bits and whose columns are the low n//2: the
    rows are joined in bit-reversed order, then the columns are read out,
    one strided slice each, in bit-reversed order (Carter and Gatlin, 1998)."""
    width = 1 << n // 2
    view = memoryview(plane)
    rows = b"".join([view[r * width : (r + 1) * width] for r in _bit_reversed(n - n // 2)])
    return b"".join([rows[c::width] for c in _bit_reversed(n // 2)])


def is_symmetric_pair(inst: ProblemInstance) -> bool:
    """True when complementing plus mirroring every string swaps the two
    objectives everywhere."""
    # Complementing and mirroring is an involution, so f1 after it equal to
    # f2 everywhere also gives f2 after it equal to f1. Complementing an
    # index reverses the plane.
    f1, f2 = enumerate_landscape(inst).planes
    return _mirror(f1[::-1], inst.n) == f2


# _SHIFTS[d : d + 256] maps each byte v to (v + d) mod 256, for d in 0..255.
_SHIFTS = bytes(range(256)) * 2


def is_fully_separable(inst: ProblemInstance, objective: int) -> SeparabilityReport:
    """Check one objective for full separability (bitwise additive form).

    An objective is fully separable iff flipping any one bit changes the value
    by an amount independent of all other bits. On success the report carries
    per-position contribution pairs; on failure, two contexts whose deltas for
    the same position differ.
    """
    if type(objective) is not int or objective not in (1, 2):
        raise ValidationError(f"objective selector must be 1 or 2, got {objective!r}")
    n = inst.n
    plane = enumerate_landscape(inst).planes[objective - 1]
    deltas = _additive_deltas(plane, n)
    if deltas is None:
        return _separability_witness(plane, n, objective)
    contributions = [(0, d) for d in deltas]
    contributions[0] = (plane[0], plane[0] + deltas[0])
    return SeparabilityReport(
        objective=objective,
        separable=True,
        contributions=tuple(contributions),
        witness_position=None,
        witness=None,
        witness_deltas=None,
    )


def _additive_deltas(plane: bytes, n: int) -> list[int] | None:
    """The context-0 flip deltas of positions 1 to n if the plane is separable, else None."""
    base = plane[0]
    deltas = [plane[1 << (n - position)] - base for position in range(1, n + 1)]
    # The objective is separable exactly when it equals its additive
    # prediction, built by doubling the way the statistic planes are: the
    # upper half adds index bit b's delta to the lower half. Mod 256 is
    # exact: a flip delta and a context-0 delta both lie in -127..127, so
    # they are equal when congruent.
    predicted = bytes([base])
    for delta in reversed(deltas):
        d = delta % 256
        predicted += predicted.translate(_SHIFTS[d : d + 256])
    return deltas if predicted == plane else None


def _separability_witness(plane: bytes, n: int, objective: int) -> SeparabilityReport:
    """The report of an objective that is not separable: the first position
    whose flip delta differs between context 0 and some other context, and
    the first such context."""
    size = 1 << n
    p = int.from_bytes(plane, "little")
    for position in range(1, n + 1):
        b = n - position
        step = 1 << b
        # Context 0 comes first; lane i of `offset` is the value at context
        # i plus the flip delta at context 0, xor the value at context i
        # with bit b set, so on the contexts (bit b clear) it is zero where
        # the two deltas agree. Mod 256 is exact, as for the prediction.
        first = plane[step] - plane[0]
        contexts = int.from_bytes((b"\xff" * step + bytes(step)) * (size >> (b + 1)), "little")
        d = first % 256
        offset = int.from_bytes(plane.translate(_SHIFTS[d : d + 256]), "little")
        offset = (offset ^ p >> 8 * step) & contexts
        if offset:
            i = ((offset & -offset).bit_length() - 1) >> 3
            return SeparabilityReport(
                objective=objective,
                separable=False,
                contributions=None,
                witness_position=position,
                witness=(BitString(n, 0), BitString(n, i)),
                witness_deltas=(first, plane[i + step] - plane[i]),
            )
    raise AssertionError("a plane that differs from its additive prediction has a witness")


def _turns(points: list[ObjectiveVector]) -> list[int]:
    """Exact cross product of each consecutive triple (o, a, p) of points
    sorted by f1: positive exactly when a lies strictly below the chord from
    o to p."""
    return [
        (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
        for o, a, p in zip(points, points[1:], points[2:])
    ]


def front_shape(inst: ProblemInstance) -> FrontShape:
    """Classify the Pareto front: collinear, or bent below its upper hull.

    A one-point front is reported as degenerate rather than classified.
    """
    report = enumerate_landscape(inst)
    points = [v for v, _ in report.front_counts]
    if len(points) == 1:
        return FrontShape.DEGENERATE
    turns = _turns(points)
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
    shape = front_shape(inst)
    separable = all(_additive_deltas(plane, inst.n) is not None for plane in report.planes)
    return CharacteristicProfile(
        instance=inst,
        non_symmetric=not is_symmetric_pair(inst),
        non_completely_conflicting=not is_completely_conflicting(inst),
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
