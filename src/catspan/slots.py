"""The slot induction shared by the families, the collection and the arc sets.

A member of V_n is the base of its level, or embed_i(P) + <e_i> for a slot
i in [1, n] and a member P of V_{n-2}.  members() runs this forward, each
member of every level once from its canonical parent; the peel runs it
backwards from one subspace, and a replay folds the peeled slots forward
again, from another base or another step.

Slot i fits E when E = embed_i(P) + <e_i> for some P: every vector of E has
x_{i-1} = x_{i+1} (coordinates outside V_n read 0), and e_i is in E unless
slot i adjoins nothing.  Deleting coordinates i and i+1 then gives P back.
first_slot(E) is the least slot that fits, the one the peel takes, and the
P it leaves is E's canonical parent.  A root is a base that no slot fits.
members() makes each member once, from its canonical parent: the children
of P in V_n are step(i, P) for i in 1..first_slot(P) + 1, and for every
slot i when P is a root.

Why that emits each member exactly once.  Let C = step(i, P) at level 0 or
1, where every slot adjoins.  Slot i fits C: its rows are e_i and, for each
row p of P, embed_i(p) under fan 0b101, which copies x_{i-1} to x_{i+1} and
leaves coordinate i zero.
Slot i-1 does not fit, since e_i is in C and has x_{i-2} = 0 != x_i = 1.  A
slot j <= i-2 reads coordinates j-1..j+1 below i, where embed_i changes
nothing and e_i is zero, so j fits C exactly when it fits P: the slots
commute.  So when i <= first_slot(P) + 1, or P is a root, first_slot(C) = i
and C's canonical parent is P.  The pair (i, P) is read off C, and no
member comes out twice.  Every base of V_m is a root: no slot fits the
zero, and F1's row e_1 + ... + e_m (m >= 2) is no unit.  The number of
children depends only on first_slot(P), and the count over first slots
gives C(D+1, D/2) members at level 0 and C(D+1, (D-2)/2) at level 1, the
paper's closed forms (the tests run it for every even D <= 200).  Distinct
members that many are the whole level, so every member is a child of its
canonical parent.  That is the missing step of the peel's greedy
completeness: taking the first slot that fits never leaves the level, and
the peel of a member ends at a root.

The collection follows the same argument.  An odd step adjoins e_i, so
slot i-1 cannot fit.  An even step embeds with fan 0b101, so every row has
x_i = 0 and x_{i-1} = x_{i+1}: e_{i-1} is never a row, and slot i-1 cannot
fit either.  Slots j <= i-2 commute.  Slot 2 adjoins nothing and fits the
zero of V_m (m >= 2), the slot-2 child of the zero below, so the one root
is the zero of V_0.  The count over first slots then gives Cat_{D/2+1}
(tested for every even D <= 200), the whole collection by the arc bijection.
A member's peel is D/2 slots, the level-0 peel of its Lagrangian image.

Lockstep.  As C's canonical parent is P, peel(step(i, P)) = [i] + peel(P).
So level_down(F1.step(i, P)) == F0.step(i, level_down(P)): the f1 walk from
the base of V_m and the f0 walk from the zero of V_m take the same slots, as
do the collection walk and its Lagrangian images from the zero of V_0, and
pairs() carries the image down the walk, one step a member.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

from .gf2 import Subspace, check_even, odd_support

__all__ = ["Rule", "F0", "F1", "COLLECTION", "layer", "members", "pairs", "replay", "first_slot", "peel"]

T = TypeVar("T")


class Rule(NamedTuple):
    """How one level grows from V_{n-2} to V_n, read forward or backward.

    The base is <e_1 + ... + e_n> when full_base (level 1), else zero.  Every
    slot adjoins e_i, except the even slots of the collection (odd_only),
    which keeps it in the odd-index part.
    """

    full_base: bool
    odd_only: bool

    def base(self, n: int) -> Subspace:
        """The base of the level in V_n, a root where no slot fits it."""
        if self.full_base and not n:
            raise ValueError("level 1 has no member in V_0")
        return Subspace._make((n, ((1 << n) - 1,) if self.full_base else ()))

    def step(self, i: int, P: Subspace, n: int) -> Subspace:
        """embed_i(P) + <e_i> in canonical RREF, from the canonical rows of P.

        Each row takes fan 0b101 inline (e_i absorbs 0b111's middle bit): x_1..x_{i-1}
        stay, x_{i-1} is copied to x_{i+1} and the rest shift up two.  That keeps
        the pivots in order, and e_i goes in after the rows with a bit in x_1..x_{i-1},
        a prefix of the rows."""
        unit, low = 1 << (i - 1), (1 << (i - 1)) - 1
        rows = [r & low | r << 2 & unit << 1 | r >> (i - 1) << (i + 1) for r in P.rows]
        if not self.odd_only or i % 2:
            k = 0
            while k < len(rows) and rows[k] & low:
                k += 1
            rows.insert(k, unit)
        return Subspace._make((n, tuple(rows)))

    def build(self, slots: list[int], n: int) -> Subspace:
        """The member of V_n that the slots (top first) build from the base."""
        m = n - 2 * len(slots)
        return replay(slots, self.base(m), m, self.step)


F0 = Rule(False, False)
F1 = Rule(True, False)
COLLECTION = Rule(False, True)


def layer(step: Callable[[int, T, int], T], n: int, below: Iterable[T], base: T) -> set[T]:
    """base, and step(i, x, n) for every slot i in [1, n] and x in below."""
    out = {base}
    for i in range(1, n + 1):
        for x in below:
            out.add(step(i, x, n))
    return out


def members(rule: Rule, n: int, start: int | None = None) -> Iterator[Subspace]:
    """Every member of the level in V_n, each once: a depth-first walk over
    canonical parents from the roots (see the module docstring).  With a
    start m, only the tree under the base of V_m if it is a root: at levels 0
    and 1, where every slot adjoins e_i, the one grade (n - m)/2 + full_base."""
    return (E for E, _ in pairs(rule, None, n, start))


def pairs(rule: Rule, image: Rule | None, n: int, start: int | None = None) -> Iterator[tuple]:
    """(E, the member of image that E's slots build from image's base) for each
    E of members(rule, n, start), in its order: image steps with rule's slots
    down the one walk (see Lockstep above).  With image None, the image is None."""
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
        stack.extend((rule.step(i, P, m), image and image.step(i, Q, m)) for i in range(1, top + 1))


def replay(slots: list[int], x: T, n: int, step: Callable[[int, T, int], T]) -> T:
    """Fold peeled slots (top first) forward through step from x at V_n."""
    for i in reversed(slots):
        n += 2
        x = step(i, x, n)
    return x


def first_slot(E: Subspace, rule: Rule) -> int | None:
    """The first slot i with E = embed_i(P) + <e_i>, the one the peel takes:
    every row has x_{i-1} = x_{i+1}, and e_i is in E unless slot i adjoins
    nothing.  In canonical RREF, e_i is in E exactly when it is a row.  None
    when no slot fits, as at a root."""
    # bit i-1 of ragged is set when some row has x_{i-1} != x_{i+1}
    ragged = units = 0
    for r in E.rows:
        ragged |= (r << 1) ^ (r >> 1)
        if not r & (r - 1):
            units |= r
    if rule.odd_only:
        units |= odd_support(E.n) << 1  # even slots adjoin nothing
    fits = units & ~ragged
    return (fits & -fits).bit_length() or None


def peel(E: Subspace, rule: Rule) -> list[int] | None:
    """The slots that build E under rule (F0, F1 or COLLECTION), top first.

    Each step takes i = first_slot(E), drops the row e_i and deletes
    coordinates i and i+1 from the other rows, which gives P in canonical
    RREF: first_slot requires e_i as a row, so no other row has x_i; no row
    has its pivot at e_{i+1}, since the ragged test gives it x_{i-1} too;
    and under odd support no row has an even x_i at all.  The peel runs
    until no slot fits and returns None unless it ends at a root.
    """
    n = E.n
    check_even(n)
    if rule.odd_only and any(r & ~odd_support(n) for r in E.rows):
        return None
    slots = []
    while (i := first_slot(E, rule)) is not None:
        unit, low = 1 << (i - 1), (1 << (i - 1)) - 1
        n -= 2
        E = Subspace._make((n, tuple(r & low | r >> (i + 1) << (i - 1) for r in E.rows if r != unit)))
        slots.append(i)
    return slots if len(E.rows) == rule.full_base and E == rule.base(n) else None
