"""The slot induction shared by the families, the collection and the arc sets.

A member of V_n is the base of its level, or embed_i(P) + <e_i> for a slot
i in [1, n] and a member P of V_{n-2}.  members() runs this forward, each
member of every level once from its canonical parent; the peel runs it
backwards from one subspace, and Rule.build (or extend_seq, in arcs_of)
folds the peeled slots forward again, at another level or on the arc sets.

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

Lockstep.  The walk's shape depends only on its roots, not on the rows: under every
rule a root of V_m has children at slots 1..m + 2, and a child at slot i at 1..i + 1.
So the f1 walk from the base of V_m and the f0 walk from the zero of V_m take the same
slots, as do the collection walk and the f0 walk from the zero of V_0.  As C's parent
is P, peel(step(i, P)) = [i] + peel(P), so level_down(F1.step(i, P)) == F0.step(i,
level_down(P)): pairs() zips the two walks, strictly, into each member and its image.

Packed words and runs.  packed() holds a member of V_m with k rows as one int, row j
of its canonical rows at bit n * j for the V_n it walks to (m <= n, so each row fits
its n bits).  Rule.fan makes all the children of a node at once (Knuth, TAOCP 4A,
7.1.3): P * rep lays out one copy per slot, W = n * (k + 1) bits apart (room for
e_i), and one fixed run of int operations applies fan 0b101 to every row of every
copy.  e_i goes in after the rows with a pivot below it, a prefix of the rows: those
whose part lo in x_1..x_{i-1} is nonzero.  lo is below 2^(n-1) in its n-bit lane,
so adding 2^(n-1) - 1 to each lane carries into bit n - 1 of exactly those rows; the
others move up a lane, and e_i fills the lane they leave.  A copy whose slot adjoins
nothing stays whole.  A child's first slot is its own slot (see above), so each
stack entry carries the top slot of its children, and first_slot runs only at the
roots.  Inner nodes cut their fan into children by shift and mask; a node of
V_{n-2} yields its fan whole, a run of leaves with each copy's row count in dims.
export formats each run once, and members() unpacks each member once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .gf2 import Subspace, check_even, odd_support

__all__ = ["Rule", "F0", "F1", "COLLECTION", "packed", "members", "pairs", "first_slot", "peel"]


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

    def fan(self, top: int, P: int, k: int, n: int, bottom: int = 1) -> tuple[int, int, tuple[int, ...]]:
        """(W, word, dims): embed_i(P) + <e_i> in canonical RREF for each slot i from top down
        to bottom, from P's k rows at stride n, copy c with slot top - c and dims[c] rows at
        bit W * c, W = n * (k + 1).  x_{i-1} is copied to x_{i+1} and the rest shift up two."""
        rep, low, mid, half, lanes, first, units, full, dims = _masks(self.odd_only, n, k, top, bottom)
        X = P * rep
        lo = X & low
        X = lo | X << 2 & mid | (X ^ lo) << 2
        kept = ((lo + half) >> n - 1 & lanes) * ((1 << n) - 1)  # the lanes of the rows before e_i
        Y = X & (kept | full)  # the rows that stay put; a copy whose slot adjoins nothing stays whole
        return n * (k + 1), Y | (X ^ Y) << n | units & ((kept << n | first) ^ kept), dims

    def step(self, i: int, P: Subspace, n: int) -> Subspace:
        """The fan's one copy at slot i on P's canonical rows, packed at stride n, unpacked in V_n."""
        _, word, (k,) = self.fan(i, *_pack(P.rows, n), n, i)
        return _unpack(word, k, n)

    def build(self, slots: list[int], n: int) -> Subspace:
        """The member of V_n that the slots (top first) build from the base."""
        P, k = _pack(self.base(n - 2 * len(slots)).rows, n)
        for i in reversed(slots):
            _, P, (k,) = self.fan(i, P, k, n, i)
        return _unpack(P, k, n)


F0 = Rule(False, False)
F1 = Rule(True, False)
COLLECTION = Rule(False, True)


@lru_cache(maxsize=None)
def _masks(odd_only: bool, n: int, k: int, top: int, bottom: int) -> tuple:
    """Rule.fan's masks, each over every copy: the copies' origins, x_1..x_{i-1} and x_{i+1} of each
    lane, 2^(n-1) - 1 and bit 0 of each lane, each first lane, e_i in each lane of a copy whose slot
    adjoins it, every bit of a copy whose slot does not; and each copy's row count."""
    W, slots = n * (k + 1), range(top, bottom - 1, -1)  # copy c at bit W * c takes slot slots[c]
    one, adjoins = ((1 << W) - 1) // ((1 << n) - 1), [not odd_only or i % 2 for i in slots]
    rep = sum(1 << W * c for c in range(len(slots)))
    low = sum(((1 << i - 1) - 1) * one << W * c for c, i in enumerate(slots))
    mid = sum(one << i + W * c for c, i in enumerate(slots))
    units = sum(one << i - 1 + W * c for c, i in enumerate(slots) if adjoins[c])
    full = sum((1 << W) - 1 << W * c for c in range(len(slots)) if not adjoins[c])
    lanes, dims = one * rep, tuple(k + a for a in adjoins)
    return rep, low, mid, ((1 << n - 1) - 1) * lanes, lanes, ((1 << n) - 1) * rep, units, full, dims


def _pack(rows: tuple[int, ...], n: int) -> tuple[int, int]:
    """Rows packed at stride n, row j at bit n * j, and their count."""
    return sum(r << n * j for j, r in enumerate(rows)), len(rows)


def _unpack(P: int, k: int, n: int) -> Subspace:
    """The member of V_n whose k rows P packs at stride n."""
    full = (1 << n) - 1
    return Subspace._make((n, tuple([P >> n * j & full for j in range(k)])))


def _roots(rule: Rule, n: int, start: int | None) -> list[Subspace]:
    """The level's roots: each base of V_m that no slot fits, m <= n and m = start if given, rising."""
    check_even(n)
    return [B for m in range(2 * rule.full_base, n + 1, 2)
            if start in (None, m) and first_slot(B := rule.base(m), rule) is None]


def packed(rule: Rule, n: int, start: int | None = None) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Runs (W, word, dims) of the members of the level in V_n, each once, from a depth-first walk
    over canonical parents from the roots, the last first: the fan of a node of V_{n-2}, or a root
    of V_n, copy c at bit W * c.  With a start m, only the tree under the base of V_m."""
    # (m, top, P, k): a node of V_m with k rows whose children take slots 1..top, every slot at a root
    stack = [(B.n, B.n + 2, *_pack(B.rows, n)) for B in _roots(rule, n, start)]
    while stack:
        m, top, P, k = stack.pop()
        if m == n:  # a root of V_n, a run of one
            yield n * (k + 1), P, (k,)
            continue
        W, word, dims = run = rule.fan(top, P, k, n)
        if m + 2 == n:
            yield run
            continue
        # copy c has slot i = top - c, its first slot, so its children take slots 1..i + 1; copy 0 pops first
        mask = (1 << W) - 1
        stack.extend((m + 2, top - c + 1, word >> W * c & mask, dims[c]) for c in range(len(dims) - 1, -1, -1))


def members(rule: Rule, n: int, start: int | None = None) -> Iterator[Subspace]:
    """Each member of the level in V_n once, in packed's order.  With a start m, only the tree under the
    base of V_m if it is a root: at levels 0 and 1, where every slot adjoins e_i, the grade (n - m)/2 + full_base."""
    return (_unpack(word >> W * c, k, n) for W, word, dims in packed(rule, n, start) for c, k in enumerate(dims))


def pairs(rule: Rule, image: Rule, n: int) -> Iterator[tuple[Subspace, Subspace]]:
    """(E, the member of image that E's slots build from image's base) for each E of members(rule, n),
    in its order: rule's and image's walks from each root of rule, zipped strictly (see above)."""
    for B in reversed(_roots(rule, n, None)):
        yield from zip(members(rule, n, B.n), members(image, n, B.n), strict=True)


def first_slot(E: Subspace | tuple, rule: Rule) -> int | None:
    """The first slot i with E = embed_i(P) + <e_i>, the one the peel takes:
    every row has x_{i-1} = x_{i+1}, and e_i is in E unless slot i adjoins
    nothing.  In canonical RREF, e_i is in E exactly when it is a row.  None
    when no slot fits, as at a root.  E is a Subspace or its bare (n, rows)."""
    n, rows = E
    # bit i-1 of ragged is set when some row has x_{i-1} != x_{i+1}
    ragged = units = 0
    for r in rows:
        ragged |= (r << 1) ^ (r >> 1)
        if not r & (r - 1):
            units |= r
    if rule.odd_only:
        units |= odd_support(n) << 1  # even slots adjoin nothing
    fits = units & ~ragged
    return (fits & -fits).bit_length() or None


def peel(E: Subspace, rule: Rule) -> list[int] | None:
    """The slots that build E under rule (F0, F1 or COLLECTION), top first.

    Each step takes i = first_slot(E), drops the row e_i and deletes
    coordinates i and i+1 from the other rows, which gives P in canonical
    RREF: first_slot requires e_i as a row, so no other row has x_i; no row
    has its pivot at e_{i+1}, since the ragged test gives it x_{i-1} too;
    and under odd support no row has an even x_i at all.  The peel runs on
    the bare rows until no slot fits and returns None unless it ends at a root.
    """
    n, rows = E
    check_even(n)
    if rule.odd_only and any(r & ~odd_support(n) for r in rows):
        return None
    slots = []
    while (i := first_slot((n, rows), rule)) is not None:
        unit, low = 1 << (i - 1), (1 << (i - 1)) - 1
        n -= 2
        rows = tuple([r & low | r >> (i + 1) << (i - 1) for r in rows if r != unit])
        slots.append(i)
    return slots if len(rows) == rule.full_base and rows == rule.base(n).rows else None
