"""The slot induction shared by the families, the collection and the arc sets.

A member of V_n is the base of its level, or embed_i(P) + <e_i> for a slot
i in [1, n] and a member P of V_{n-2}.  The builders run this forward one
layer at a time; the peel runs it backwards from one subspace, and a replay
folds the peeled slots forward again, from another base or another step.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, TypeVar

from .gf2 import Subspace, odd_support, span_masks

__all__ = ["Rule", "F0", "F1", "COLLECTION", "embed", "layer", "replay", "peel"]

T = TypeVar("T")


def embed(i: int, m: int, fan: int) -> int:
    """Slot-i embedding of a mask of V_{n-2} into V_n: coordinates below
    i-1 stay, e_{i-1} fans out to fan << (i - 2), the rest shift by two."""
    if i < 2:
        return m << 2
    out = (m & ((1 << (i - 2)) - 1)) | ((m >> (i - 1)) << (i + 1))
    if (m >> (i - 2)) & 1:
        out |= fan << (i - 2)
    return out


class Rule(NamedTuple):
    """How one level grows from V_{n-2} to V_n, read forward or backward.

    The base is <e_1 + ... + e_n> when full_base (level 1), else zero.  fan
    0b111 sends e_{i-1} to e_{i-1} + e_i + e_{i+1}; fan 0b101 sends it to
    e_{i-1} + e_{i+1}, which keeps the collection in the odd-index part as
    long as only odd slots adjoin e_i (odd_only).
    """

    full_base: bool
    fan: int
    odd_only: bool

    def base(self, n: int) -> Subspace:
        """The member every slot run of this level starts from in V_n."""
        if self.full_base and not n:
            raise ValueError("level 1 has no member in V_0")
        return Subspace(n, ((1 << n) - 1,) if self.full_base else ())

    def grow(self, i: int, rows: Iterable[int]) -> list[int]:
        """Spanning rows of embed_i(P) + <e_i> from spanning rows of P."""
        fan = self.fan
        out = [embed(i, r, fan) for r in rows]
        if not self.odd_only or i % 2:
            out.append(1 << (i - 1))
        return out

    def step(self, i: int, P: Subspace, n: int) -> Subspace:
        return span_masks(self.grow(i, P.rows), n)

    def build(self, slots: list[int], n: int) -> Subspace:
        """The member of V_n that the slots (top first) build from the base.
        The embedding is linear, so the rows are reduced once, at the top."""
        m = n - 2 * len(slots)
        rows = replay(slots, self.base(m).rows, m, lambda i, rows, _: self.grow(i, rows))
        return span_masks(rows, n)


F0 = Rule(False, 0b111, False)
F1 = Rule(True, 0b111, False)
COLLECTION = Rule(False, 0b101, True)


def layer(step: Callable[[int, T, int], T], n: int, below: Iterable[T], base: T) -> set[T]:
    """base, and step(i, x, n) for every slot i in [1, n] and x in below."""
    out = {base}
    for i in range(1, n + 1):
        for x in below:
            out.add(step(i, x, n))
    return out


def replay(slots: list[int], x: T, n: int, step: Callable[[int, T, int], T]) -> T:
    """Fold peeled slots (top first) forward through step from x at V_n."""
    for i in reversed(slots):
        n += 2
        x = step(i, x, n)
    return x


def peel(E: Subspace, rule: Rule) -> list[int] | None:
    """The slots that build E under rule (F0, F1 or COLLECTION), top first.

    Each step takes the first slot i with E = embed_i(P) + <e_i>: every row
    has x_{i-1} = x_{i+1} (coordinates outside V_n read 0), and e_i is in E
    unless slot i adjoins nothing.  Deleting coordinates i and i+1 gives P,
    one dimension less if e_i was adjoined.  The peel runs down to the
    dimension of the base and returns None unless it ends at the base.
    """
    n, rows = E.n, E.rows
    if n < 0 or n % 2:
        raise ValueError(f"ambient dimension must be even and >= 0, got {n}")
    odd = rule.odd_only
    if odd and any(r & ~odd_support(n) for r in rows):
        return None
    slots = []
    while len(rows) > rule.full_base:
        # bit i-1 is set when some row has x_{i-1} != x_{i+1}
        ragged = 0
        for r in rows:
            ragged |= (r << 1) ^ (r >> 1)
        for i in range(1, n + 1):
            ei = 1 << (i - 1)
            adjoins = not odd or i % 2
            if ragged & ei or (adjoins and E.residue(ei)):
                continue
            E = span_masks(((r & (ei - 1)) | (r >> (i + 1) << (i - 1)) for r in rows), n - 2)
            if len(E.rows) != len(rows) - adjoins:
                return None
            slots.append(i)
            n, rows = n - 2, E.rows
            break
        else:
            return None
    return slots if len(rows) == rule.full_base and E == rule.base(n) else None
