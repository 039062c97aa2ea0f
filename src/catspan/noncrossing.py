"""Noncrossing arc sets over odd indices and the odd-part collection.

An arc (a, b) with a, b odd stands for the vector e_a + e_{a+2} + ... + e_b.
A set of arcs is noncrossing when the index intervals are pairwise disjoint
or strictly nested.  Spanning the arc vectors of a noncrossing set is a
bijection onto the collection of subspaces of the odd-index part generated
by the slot induction; grades (arc count vs dimension) agree.

arcs_of and to_lagrangian peel a collection member and replay its slots:
arcs_of through extend_seq, to_lagrangian at level 0.  The latter is the
Lagrangian correspondence E -> E + E^!, with E^! the annihilator of E in the
even-index part; its inverse is the projection onto the odd-index part.
"""

from __future__ import annotations

from itertools import chain, combinations, groupby
from typing import Iterable, Iterator, NamedTuple

from .gf2 import Run, Subspace, check_even, odd_support, span_masks, subspace_key
from .slots import COLLECTION, F0, members, peel

__all__ = [
    "Arc", "ArcSequence", "OddCollection", "is_noncrossing", "enumerate_noncrossing", "shift_arc", "extend_seq",
    "decompose", "build_collection", "span_arcs", "arcs_of", "to_lagrangian", "from_lagrangian",
]


class Arc(Run):
    """Arc (a, b): both odd, a <= b; stands for e_a + e_{a+2} + ... + e_b.
    Equal only to an Arc."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Arc":
        arc = Run.__new__(cls, a, b)  # the bounds first: Arc(0, 3) has bad bounds
        if a % 2 == 0 or b % 2 == 0:
            raise ValueError(f"arc endpoints must be odd, got ({a}, {b})")
        return arc

    def mask(self) -> int:
        # bits a-1, a+1, ..., b-1: a 0b...10101 block shifted into place
        return ((1 << (self.b - self.a + 2)) - 1) // 3 << (self.a - 1)


def is_noncrossing(arcs: Iterable[Arc]) -> bool:
    """Pairwise disjoint or strictly nested, either way round; duplicates count as crossing."""
    for (xa, xb), (ya, yb) in combinations(arcs, 2):
        if not (xb < ya or yb < xa or xa < ya and yb < xb or ya < xa and xb < yb):
            return False
    return True


def _uncrossed(cls: type, arcs: tuple) -> "ArcSequence":
    """The sequence of sorted, distinct arcs, once they are checked to be noncrossing."""
    if not is_noncrossing(arcs):
        raise ValueError(f"arcs cross: {[(x.a, x.b) for x in arcs]}")
    return tuple.__new__(cls, arcs)


class ArcSequence(tuple):
    """A noncrossing set of arcs: the sorted tuple of its arcs, equal to it and hashed as it."""

    __slots__ = ()

    def __new__(cls, arcs: tuple[Arc, ...] = ()) -> "ArcSequence":
        if list(arcs) != sorted(set(arcs)):
            raise ValueError("arcs must be sorted and distinct; use ArcSequence.of")
        return _uncrossed(cls, arcs)

    def __repr__(self) -> str:
        return f"ArcSequence(arcs={tuple(self)!r})"

    @classmethod
    def of(cls, arcs: Iterable[Arc]) -> "ArcSequence":
        xs = sorted(arcs)
        if len(set(xs)) != len(xs):
            raise ValueError("duplicate arcs")
        return _uncrossed(cls, tuple(xs))

    def to_json(self) -> list[list[int]]:
        return [[x.a, x.b] for x in self]

    @classmethod
    def from_json(cls, obj: list[list[int]]) -> "ArcSequence":
        if not isinstance(obj, list) or not all(
            isinstance(pair, list)
            and len(pair) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
            for pair in obj
        ):
            raise ValueError("expected a list of [a, b] arcs with integer endpoints")
        return cls.of(Arc(a, b) for a, b in obj)


def seq_key(seq: ArcSequence) -> tuple:
    return (len(seq), seq)  # arcs order by (a, b)


def odd_arcs(n: int) -> list[Arc]:
    """Every arc over odd indices in [1, n-1], sorted."""
    return [Arc(a, b) for a in range(1, n, 2) for b in range(a, n, 2)]


def enumerate_noncrossing(n: int) -> Iterator[ArcSequence]:
    """All noncrossing arc sets over odd indices in [1, n-1], streamed in canonical order.

    seq_key orders by grade, then by the sorted (a, b) pairs.  So grades s = 0..n/2 come in
    turn, each picking arcs in (a, b) order after the last: two sets first differ where the
    walk branched, and it took the smaller arc first (Knuth, TAOCP 4A, 7.2.1.6).  An arc
    starts past the last start and at no open end, and ends inside the innermost open arc,
    so each set comes out sorted and noncrossing and skips ArcSequence's checks.
    """
    check_even(n)
    rows = [list(g) for _, g in groupby(odd_arcs(n), lambda x: x.a)]  # rows[i]: the arcs from 2i + 1

    def grow(s: int, chosen: tuple[Arc, ...], i: int, ends: tuple[int, ...]) -> Iterator[ArcSequence]:
        # ends: n + 1, then the ends b of the chosen arcs, innermost last; those below 2i + 1 are closed
        if len(chosen) == s:
            yield tuple.__new__(ArcSequence, chosen)  # sorted and noncrossing as built: unchecked
            return
        for i in range(i, len(rows)):
            p = 2 * i + 1
            while ends[-1] < p:
                ends = ends[:-1]
            if len(rows) - i - len(ends) + 1 < s - len(chosen):
                return  # each arc to go needs its own start from p on, at no open end
            for x in rows[i][: (ends[-1] - p) // 2]:  # none if p ends an open arc
                yield from grow(s, chosen + (x,), i + 1, ends + (x.b,))

    return chain.from_iterable(grow(s, (), 0, (n + 1,)) for s in range(n // 2 + 1))


def shift_arc(i: int, arc: Arc, n: int) -> Arc:
    """Image of an arc over V_{n-2} under the slot-i shift into V_n."""
    if not 1 <= i <= n:
        raise ValueError(f"slot {i} outside [1, {n}]")
    if arc.b > n - 3:
        raise ValueError(f"arc ({arc.a}, {arc.b}) does not fit in V_{n - 2}")
    if i <= arc.a:
        return Arc(arc.a + 2, arc.b + 2)
    if arc.a < i <= arc.b + 1:
        return Arc(arc.a, arc.b + 2)
    return arc


def extend_seq(i: int, seq: ArcSequence, n: int) -> ArcSequence:
    """Shift every arc past slot i; for odd i also adjoin the unit arc (i, i)."""
    if not 1 <= i <= n:
        raise ValueError(f"slot {i} outside [1, {n}]")
    mapped = [shift_arc(i, x, n) for x in seq]
    if i % 2:
        mapped.append(Arc(i, i))
    return ArcSequence.of(mapped)


def decompose(seq: ArcSequence, n: int) -> tuple[int, ArcSequence]:
    """Canonical inverse step: recover (i, seq') with extend_seq(i, seq', n) == seq.

    Picks the arc of minimal width b - a, ties broken by smallest a.  A unit
    arc gives odd i = a and is removed; otherwise i = a + 1 is even and every
    arc is kept.  The unshift below can never meet i in {a-1, a, b} for the
    remaining arcs; that structural fact is checked as it is used.
    """
    if not seq:
        raise ValueError("empty sequence has no decomposition")
    if max(x.b for x in seq) > n - 1:
        raise ValueError(f"sequence does not fit in V_{n}")
    chosen = min(seq, key=lambda x: (x.b - x.a, x.a))
    if chosen.a == chosen.b:
        i = chosen.a
        rest = [x for x in seq if x != chosen]
    else:
        i = chosen.a + 1
        rest = list(seq)
    out = []
    for x in rest:
        if x.b < i:
            out.append(x)
        elif x.a < i <= x.b - 1:
            out.append(Arc(x.a, x.b - 2))
        elif i <= x.a - 2:
            out.append(Arc(x.a - 2, x.b - 2))
        else:
            raise AssertionError(
                f"unshift at slot {i} hit arc ({x.a}, {x.b}); input was not noncrossing"
            )
    return i, ArcSequence.of(out)


class OddCollection(NamedTuple):
    """The induction-generated collection of subspaces of the odd-index part."""

    n: int
    members: frozenset[Subspace]

    def sorted_members(self) -> list[Subspace]:
        return sorted(self.members, key=subspace_key)


def build_collection(n: int) -> OddCollection:
    """The odd-part collection in V_n as one whole table, walked afresh each call."""
    return OddCollection(n, frozenset(set(members(COLLECTION, n))))  # set: see build_families


def span_arcs(seq: ArcSequence, n: int) -> Subspace:
    """Span of the arc vectors; lands in the collection with dim = arc count."""
    check_even(n)
    for x in seq:
        if x.b > n - 1:
            raise ValueError(f"arc ({x.a}, {x.b}) does not fit in V_{n}")
    return span_masks((x.mask() for x in seq), n)


def arcs_of(E: Subspace) -> ArcSequence:
    """The unique noncrossing arc set spanning a collection member."""
    slots = peel(E, COLLECTION)
    if slots is None:
        raise ValueError(f"subspace is not a collection member in V_{E.n}")
    seq = ArcSequence()
    for k, i in enumerate(reversed(slots), 1):  # top first: the last slot steps from V_0 into V_2
        seq = extend_seq(i, seq, 2 * k)
    return seq


def to_lagrangian(E: Subspace) -> Subspace:
    """Collection member to Lagrangian level-0 member E + E^!, where E^! is
    the annihilator of E in the even-index part: E's slots replayed at level 0.

    An odd slot adjoins e_i on both levels.  An even slot adjoins e_i only at
    level 0, and that e_i is the annihilator's new even unit.  Both peels end
    at the zero of V_0, so the image's level-0 peel is E's slots (see slots).
    """
    slots = peel(E, COLLECTION)
    if slots is None:
        raise ValueError(f"subspace is not a collection member in V_{E.n}")
    return F0.build(slots, E.n)


def from_lagrangian(E: Subspace) -> Subspace:
    """Inverse direction: cut a Lagrangian level-0 member with the odd part."""
    if peel(E, F0) is None or 2 * E.dim != E.n:
        raise ValueError(f"subspace is not a Lagrangian level-0 member in V_{E.n}")
    # E is C + ann(C) with ann(C) in the even part, so its odd projection is C
    return span_masks((r & odd_support(E.n) for r in E.rows), E.n)
