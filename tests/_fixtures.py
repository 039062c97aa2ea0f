"""Reference tables for the smallest ambient dimensions, written out by hand,
and reference implementations that the package's fast paths are checked against.

Each subspace is given as a tuple of generating vectors, each vector as a
tuple of 1-based indices (its support).  The generators are deliberately
not in reduced form; span_masks() canonicalizes, so set equality against
the builders is an honest element-for-element comparison.

embed is the slot embedding one mask at a time, the reference for the rows
that slots.Rule.fan writes for every copy of a packed word at once; row_step
is one step one row at a time, e_i put in after the rows with a bit below it
(the rows the fan finds by its carry test), and stack_pairs the walk over
Subspaces that calls first_slot at every node, the references for the runs
of slots.packed and their order; copies cuts a run into its members' words
and row counts; joined is one subspace's basis strings from its rows, the
reference for the leaf strings that export slices from each formatted run;
lines_in lists a subspace's lines by row reduction, the half of
classify_by_span that classify_by_lines skips; fingerprint_by_containment
is the matcher's fingerprint by pairwise contains_subspace tests, the
reference for its vector-set masks.  prefix_model is a second model of f0
and f1 that uses no slot rule: the spans of the prefix differences over the
noncrossing matchings of the points 0..D that prefix_matchings lists.
"""

from functools import lru_cache

from catspan.families import Line
from catspan.gf2 import Subspace, check_even, span_masks
from catspan.noncrossing import Arc, ArcSequence
from catspan.oracle import all_isotropic
from catspan.slots import first_slot


@lru_cache(maxsize=None)
def isotropic(D):
    """oracle.all_isotropic(D), enumerated once per pytest run."""
    return tuple(all_isotropic(D))


def embed(i, m, fan):
    """Slot-i embedding of a mask of V_{n-2} into V_n: coordinates below
    i-1 stay, e_{i-1} fans out to fan << (i - 2), the rest shift by two."""
    if i < 2:
        return m << 2
    out = (m & ((1 << (i - 2)) - 1)) | ((m >> (i - 1)) << (i + 1))
    if (m >> (i - 2)) & 1:
        out |= fan << (i - 2)
    return out


def row_step(rule, i, P, n):
    """rule.step(i, P, n) one row at a time: each row takes fan 0b101 inline, and e_i
    goes in after the rows with a bit in x_1..x_{i-1}, a prefix of the rows."""
    unit, low = 1 << (i - 1), (1 << (i - 1)) - 1
    rows = [r & low | r << 2 & unit << 1 | r >> (i - 1) << (i + 1) for r in P.rows]
    if not rule.odd_only or i % 2:
        k = 0
        while k < len(rows) and rows[k] & low:
            k += 1
        rows.insert(k, unit)
    return Subspace._make((n, tuple(rows)))


def stack_pairs(rule, image, n, start=None):
    """slots.pairs as a stack of Subspaces, each pair (E, None) when image is None and only the
    tree under the base of V_start when start is given, as in slots.packed: row_step for every
    step, and first_slot at every node for the slots its children take."""
    check_even(n)
    starts = (m for m in range(2 * rule.full_base, n + 1, 2) if start in (None, m))
    stack = [(B, image and image.base(B.n)) for B in map(rule.base, starts) if first_slot(B, rule) is None]
    while stack:
        P, Q = stack.pop()
        if P.n == n:
            yield P, Q
            continue
        f = first_slot(P, rule)
        m = P.n + 2
        top = m if f is None else f + 1
        stack.extend((row_step(rule, i, P, m), image and row_step(image, i, Q, m)) for i in range(1, top + 1))


def prefix_matchings(D):
    """(arcs, unmatched) for each noncrossing partial matching of the points 0..D in which no
    unmatched point lies under an arc: a point is left unmatched only when no arc is open."""
    def grow(p, opened, arcs, free):
        if len(opened) > D + 1 - p:  # too few points left to close every open arc
            return
        if p > D:
            yield arcs, free
            return
        if not opened:
            yield from grow(p + 1, opened, arcs, free + (p,))
        yield from grow(p + 1, opened + (p,), arcs, free)
        if opened:
            yield from grow(p + 1, opened[:-1], arcs + ((opened[-1], p),), free)
    return grow(0, (), (), ())


def prefix_model(D):
    """The levels f0 and f1 of V_D as sets, from prefix_matchings alone, with no slot rule:
    with P_b = e_1 + ... + e_b, f0 is the span of P_i + P_j over the arcs (i, j), and f1 adds
    P_a + P_b for the first and last unmatched points a, b, where at least three are unmatched."""
    f0, f1 = set(), set()
    for arcs, free in prefix_matchings(D):
        runs = [(1 << i) - 1 ^ (1 << j) - 1 for i, j in arcs]
        f0.add(span_masks(runs, D))
        if len(free) >= 3:
            f1.add(span_masks(runs + [(1 << free[0]) - 1 ^ (1 << free[-1]) - 1], D))
    return f0, f1


def pack(rows, n):
    """Rows at stride n, row j at bit n * j, and their count."""
    return sum(r << n * j for j, r in enumerate(rows)), len(rows)


def copies(W, word, dims):
    """A run's members as (word, row count), copy c the W bits at W * c; then what lies past the last."""
    return [(word >> W * c & (1 << W) - 1, k) for c, k in enumerate(dims)], word >> W * len(dims)


def joined(n, rows):
    """A subspace's basis strings joined by one format call: row j at bit n * j, under a sentinel."""
    packed = 0
    for r in reversed(rows):
        packed = packed << n | r
    return format(packed | 1 << n * len(rows), "b")[:0:-1]


def lines_in(E):
    """Every consecutive-run line contained in E: the runs between two
    prefixes with the same residue (see classify_by_lines), n + 1 reductions."""
    ends_by_residue = {}
    out = []
    for b in range(E.n + 1):
        ends = ends_by_residue.setdefault(E.residue((1 << b) - 1), [])
        out.extend(Line(a + 1, b) for a in ends)
        ends.append(b)
    return frozenset(out)


def classify_by_span(E):
    """The line witness by row reduction, the oracle for families.classify_by_lines:
    E's lines must number E.dim and span E, and at most one may be parity-0."""
    B = lines_in(E)
    if len(B) != E.dim or span_masks((L.mask() for L in B), E.n) != E:
        return ("other", None)
    marked = [L for L in B if L.parity == 0]
    if not marked:
        return ("f0", None)
    if len(marked) == 1:
        return ("f1", marked[0])
    return ("other", None)


def fingerprint_by_containment(subgroups):
    """conjecture.fingerprint by N^2 contains_subspace calls, which raise on a
    mixed-dimension list."""
    ms = list(subgroups)
    dims = tuple(sorted(E.dim for E in ms))
    profile = tuple(
        sorted((A.dim, sum(1 for B in ms if B != A and B.contains_subspace(A))) for A in ms)
    )
    return (dims, profile)


def sub(n, *vectors):
    return span_masks([sum(1 << (i - 1) for i in v) for v in vectors], n)


def members(E):
    """All 2^dim member masks of E, by brute force over subsets of its rows."""
    out = []
    for sel in range(1 << E.dim):
        m = 0
        for j, r in enumerate(E.rows):
            if (sel >> j) & 1:
                m ^= r
        out.append(m)
    return out


def seq(*arcs):
    return ArcSequence.of(Arc(a, b) for a, b in arcs)


F0_V2 = frozenset([sub(2), sub(2, (1,)), sub(2, (2,))])

F1_V2 = frozenset([sub(2, (1, 2))])

F0_V4 = frozenset(
    [
        sub(4),
        sub(4, (1,)),
        sub(4, (2,)),
        sub(4, (3,)),
        sub(4, (4,)),
        sub(4, (1,), (3,)),
        sub(4, (1,), (4,)),
        sub(4, (2,), (4,)),
        sub(4, (1, 2, 3), (2,)),
        sub(4, (2, 3, 4), (3,)),
    ]
)

F1_V4 = frozenset(
    [
        sub(4, (1, 2, 3, 4)),
        sub(4, (1, 2, 3, 4), (2,)),
        sub(4, (1, 2, 3, 4), (3,)),
        sub(4, (1, 2), (4,)),
        sub(4, (1,), (3, 4)),
    ]
)

C_V2 = frozenset([sub(2), sub(2, (1,))])

C_V4 = frozenset(
    [
        sub(4),
        sub(4, (1,)),
        sub(4, (3,)),
        sub(4, (1, 3)),
        sub(4, (1,), (3,)),
    ]
)

C_V6 = frozenset(
    [
        sub(6),
        sub(6, (1,)),
        sub(6, (3,)),
        sub(6, (5,)),
        sub(6, (1, 3)),
        sub(6, (3, 5)),
        sub(6, (1, 3, 5)),
        sub(6, (1,), (3,)),
        sub(6, (1,), (5,)),
        sub(6, (3,), (5,)),
        sub(6, (1, 3), (5,)),
        sub(6, (1,), (3, 5)),
        sub(6, (1, 3, 5), (3,)),
        sub(6, (1,), (3,), (5,)),
    ]
)

Z_V2 = frozenset([seq(), seq((1, 1))])

Z_V4 = frozenset(
    [
        seq(),
        seq((1, 1)),
        seq((3, 3)),
        seq((1, 3)),
        seq((1, 1), (3, 3)),
    ]
)

Z_V6 = frozenset(
    [
        seq(),
        seq((1, 1)),
        seq((3, 3)),
        seq((5, 5)),
        seq((1, 3)),
        seq((3, 5)),
        seq((1, 5)),
        seq((1, 1), (3, 3)),
        seq((1, 1), (5, 5)),
        seq((3, 3), (5, 5)),
        seq((1, 3), (5, 5)),
        seq((1, 1), (3, 5)),
        seq((1, 5), (3, 3)),
        seq((1, 1), (3, 3), (5, 5)),
    ]
)
