"""The paper's definitions, stated over strings as plainly as possible.

The tests compare the library with this model. It imports nothing from
bibench and reads only an instance's family, n, k and l. A string is a
'0'/'1' str, position 1 leftmost, and string i is index i written with n
binary digits. Only `vectors` evaluates strings; every later stage takes
plain values by index, so a test of a late stage can feed it library
planes that earlier tests have checked. A faster implementation in the
library is checked against this model, not against the code it replaced.
"""

from collections import Counter, deque
from functools import lru_cache
from itertools import compress
from operator import itemgetter, sub


def ones(x, k, l):
    return x.count("1")


def zeroes(x, k, l):
    return x.count("0")


def leading_ones(x, k, l):
    return len(x) - len(x.lstrip("1"))


def trailing_zeroes(x, k, l):
    return len(x) - len(x.rstrip("0"))


def one_jump(x, k, l):
    """Jump of gap k on the ones, shifted by k so no value is negative."""
    n, count = len(x), x.count("1")
    return k + count if count <= n - k or count == n else n - count


def zero_jump(x, k, l):
    n, count = len(x), x.count("0")
    return k + count if count <= n - k or count == n else n - count


def all_ones_blocks(x, k, l):
    """Royal road: l for each of the n/l blocks of length l that is all ones."""
    return l * sum(x[i : i + l] == "1" * l for i in range(0, len(x), l))


def all_zeroes_blocks(x, k, l):
    return l * sum(x[i : i + l] == "0" * l for i in range(0, len(x), l))


def ones_then_zeroes(x, k, l):
    """Ones in the first half plus zeroes in the second half."""
    half = len(x) // 2
    return x[:half].count("1") + x[half:].count("0")


FAMILIES = {
    "omm": (ones, zeroes),
    "lotz": (leading_ones, trailing_zeroes),
    "ojzj": (one_jump, zero_jump),
    "cocz": (ones, ones_then_zeroes),
    "orzr": (all_ones_blocks, all_zeroes_blocks),
    "omtz": (ones, trailing_zeroes),
    "omzj": (ones, zero_jump),
    "omzr": (ones, all_zeroes_blocks),
    "lozj": (leading_ones, zero_jump),
    "lozr": (leading_ones, all_zeroes_blocks),
    "ojzr": (one_jump, all_zeroes_blocks),
}


def vectors(inst):
    """The objective pair of every string, by index."""
    f, g = FAMILIES[inst.family]
    n, k, l = inst.n, inst.k, inst.l
    strings = (format(i, f"0{n}b") for i in range(1 << n))
    return [(f(x, k, l), g(x, k, l)) for x in strings]


def dominates(a, b):
    """a is at least as good as b in both objectives and better in one."""
    return a != b and a[0] >= b[0] and a[1] >= b[1]


def levels(points):
    """The distinct points peeled into non-dominated levels, level 1 first:
    each level is what no remaining point dominates."""
    remaining = set(points)
    peeled = []
    while remaining:
        top = {v for v in remaining if not any(dominates(w, v) for w in remaining)}
        peeled.append(top)
        remaining -= top
    return peeled


def pareto_set(vecs):
    """The indices whose vector no vector dominates."""
    image = set(vecs)
    front = {v for v in image if not any(dominates(w, v) for w in image)}
    return {i for i, v in enumerate(vecs) if v in front}


def local_optima(vecs, members):
    """The indices outside members that no Hamming neighbour dominates."""
    n = len(vecs).bit_length() - 1
    return {
        i
        for i, v in enumerate(vecs)
        if i not in members and not any(dominates(vecs[i ^ 1 << b], v) for b in range(n))
    }


def components(members, n):
    """Connected components of the Hamming-neighbour graph on members, by BFS."""
    unseen = set(members)
    count = 0
    while unseen:
        count += 1
        queue = deque([unseen.pop()])
        while queue:
            i = queue.popleft()
            near = {i ^ 1 << b for b in range(n)} & unseen
            unseen -= near
            queue.extend(near)
    return count


def ones_tables(vecs):
    """For each number of ones, in order: the counts of each f1 value, of
    each f2 value and of each level, each sorted by value."""
    depth = {v: d for d, level in enumerate(levels(vecs), 1) for v in level}
    n = len(vecs).bit_length() - 1
    tables = [(Counter(), Counter(), Counter()) for _ in range(n + 1)]
    for i, (a, b) in enumerate(vecs):
        f1, f2, level = tables[format(i, "b").count("1")]
        f1[a] += 1
        f2[b] += 1
        level[depth[a, b]] += 1
    return [tuple(tuple(sorted(c.items())) for c in row) for row in tables]


@lru_cache(maxsize=None)
def reversed_indices(n):
    """Entry i is the index of string i written backwards."""
    return [int(format(i, f"0{n}b")[::-1], 2) for i in range(1 << n)]


def mirror(values, n):
    """Values by index with every string reversed: entry i is the value at
    the reverse of string i."""
    return bytes(itemgetter(*reversed_indices(n))(values))


def separability(values, n):
    """Full separability by its definition: flipping position p changes the
    value by the same amount in every context (the other n - 1 bits).

    Returns None when separable, else a witness: the first position p, in
    order 1..n, and the first context i, by index, whose flip delta differs
    from context 0's, as (p, i, (delta at context 0, delta at i))."""
    size = 1 << n
    for position in range(1, n + 1):
        step = 1 << (n - position)
        # The strings with a 0 and with a 1 at the position, ascending: the
        # k-th of each differ only there, and the first are the contexts.
        zero = (b"\x01" * step + bytes(step)) * (size // (2 * step))
        one = (bytes(step) + b"\x01" * step) * (size // (2 * step))
        deltas = list(map(sub, compress(values, one), compress(values, zero)))
        if deltas.count(deltas[0]) < len(deltas):
            contexts = compress(range(size), zero)
            i, d = next((i, d) for i, d in zip(contexts, deltas) if d != deltas[0])
            return position, i, (deltas[0], d)
    return None


def front_shape(points):
    """The shape of a front given as points with distinct f1, ascending:
    'degenerate' for one point, 'nonlinear_concave' when some point lies
    strictly under the upper convex hull, 'linear' when the hull is one
    segment, else None."""
    if len(points) == 1:
        return "degenerate"

    def cross(o, a, p):
        return (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])

    hull = []
    for p in points:
        while len(hull) >= 2 and cross(hull[-2], hull[-1], p) >= 0:
            hull.pop()
        hull.append(p)
    for p in points:
        a, b = next((a, b) for a, b in zip(hull, hull[1:]) if p[0] <= b[0])
        if cross(a, b, p) < 0:
            return "nonlinear_concave"
    return "linear" if len(hull) == 2 else None
