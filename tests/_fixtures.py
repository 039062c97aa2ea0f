"""Reference tables for the smallest ambient dimensions, written out by hand.

Each subspace is given as a tuple of generating vectors, each vector as a
tuple of 1-based indices (its support).  The generators are deliberately
not in reduced form; span() canonicalizes, so set equality against the
builders is an honest element-for-element comparison.
"""

from functools import lru_cache

from catspan.gf2 import BitVector, Subspace, span
from catspan.noncrossing import Arc, ArcSequence
from catspan.oracle import all_isotropic


@lru_cache(maxsize=None)
def isotropic(D):
    """oracle.all_isotropic(D), enumerated once per pytest run."""
    return tuple(all_isotropic(D))


def sub(n, *vectors):
    return span([BitVector.from_indices(n, v) for v in vectors], n)


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
