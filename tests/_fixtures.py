"""Reference tables for the smallest ambient dimensions, written out by hand,
and reference implementations that the package's fast paths are checked against.

Each subspace is given as a tuple of generating vectors, each vector as a
tuple of 1-based indices (its support).  The generators are deliberately
not in reduced form; span_masks() canonicalizes, so set equality against
the builders is an honest element-for-element comparison.

embed is the slot embedding one mask at a time, the reference for the rows
that slots.Rule.step writes inline; lines_in lists a subspace's lines by
row reduction, the half of classify_by_span that classify_by_lines skips.
"""

from functools import lru_cache

from catspan.families import Line
from catspan.gf2 import span_masks
from catspan.noncrossing import Arc, ArcSequence
from catspan.oracle import all_isotropic


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
