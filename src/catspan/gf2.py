"""GF(2) linear algebra on int bitmasks.

Vectors of V_n live in machine words: bit i-1 holds the coefficient of e_i,
so e_1 is the lowest bit.  All user-facing indices are 1-based; bit positions
never leak.  Subspaces are kept in reduced row-echelon form with pivots
ascending, which makes equality and hashing structural.  Run is the index
pair (a, b) that the families' lines and the collection's arcs are read by.
"""

from __future__ import annotations

from itertools import combinations, starmap
from typing import Iterable, NamedTuple

__all__ = [
    "Subspace", "Run", "form_masks", "span_masks", "is_isotropic", "mask_to_string", "string_to_mask",
    "subspace_key", "odd_support", "check_even",
]


def mask_to_string(mask: int, n: int) -> str:
    """Render a mask as n chars of 0/1; leftmost char is the e_1 coefficient."""
    # the sentinel bit n keeps the leading zeros; reversed, it is cut off
    return format(mask & ((1 << n) - 1) | (1 << n), "b")[:0:-1]


def string_to_mask(s: str) -> int:
    """Inverse of mask_to_string; rejects anything but 0/1 chars."""
    for c in s:
        if c not in "01":
            raise ValueError(f"bad bitstring char {c!r} in {s!r}")
    return int(s[::-1] or "0", 2)


def form_masks(a: int, b: int) -> int:
    """Nearest-neighbour pairing sum_i a_i*b_{i+1} + a_{i+1}*b_i: the form's matrix on a, dotted with b."""
    return ((a << 1 ^ a >> 1) & b).bit_count() & 1


def _rref(masks: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon form; pivot of a row is its lowest set bit."""
    rows: list[int] = []
    for m in masks:
        for r in rows:
            if m & (r & -r):
                m ^= r
        if m:
            p = m & -m
            rows = [r ^ m if r & p else r for r in rows]
            rows.append(m)
    rows.sort(key=lambda r: r & -r)
    return tuple(rows)


def check_even(n: int) -> None:
    """Raise unless n is an even ambient dimension >= 0."""
    if n < 0 or n % 2:
        raise ValueError(f"ambient dimension must be even and >= 0, got {n}")


def odd_support(n: int) -> int:
    """Support mask of the odd-index coordinates e_1, e_3, ... of V_n."""
    return ((1 << n) - 1) // 3


class _Rowspace(NamedTuple):
    n: int
    rows: tuple[int, ...] = ()


class Subspace(_Rowspace):
    """Rowspace of V_n in canonical RREF.  Build via span_masks(); the
    constructor checks n and the rows, Subspace._make((n, rows)) trusts them."""

    __slots__ = ()

    def __new__(cls, n: int, rows: tuple[int, ...] = ()) -> "Subspace":
        if not isinstance(rows, tuple) or not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"expected an int n and a tuple of rows, got {n!r} and {rows!r}")
        if n < 0:  # in the one text that every entry gives for a negative dimension
            check_even(n)
        # rows nonzero in V_n, pivots (lowest bits) ascending, a pivot column zero in the other rows
        pivots = [r & -r for r in rows]
        mask = sum(pivots)
        if pivots != sorted(set(pivots)) or any(r <= 0 or r >> n or r & mask != p for r, p in zip(rows, pivots)):
            raise ValueError(f"rows {rows} are not canonical RREF in V_{n}")
        return _Rowspace.__new__(cls, n, rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def residue(self, m: int) -> int:
        """Residue of m after elimination against the rows; 0 iff m is in E."""
        for r in self.rows:
            if m & (r & -r):
                m ^= r
        return m

    def __contains__(self, m: int) -> bool:
        """Membership of a mask; one wider than V_n leaves a residue, so is not in E."""
        return self.residue(m) == 0

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {other.n} vs {self.n}")
        return not any(map(self.residue, other.rows))

    def to_json(self) -> dict:
        return {"D": self.n, "basis": [mask_to_string(r, self.n) for r in self.rows]}

    @classmethod
    def from_json(cls, obj: dict) -> "Subspace":
        if not isinstance(obj, dict) or "D" not in obj or "basis" not in obj:
            raise ValueError("expected a subspace object with 'D' and 'basis' keys")
        n, basis = obj["D"], obj["basis"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError(f"bad ambient dimension {n!r}")
        if not isinstance(basis, list):
            raise ValueError("expected 'basis' to be a list of bitstrings")
        masks = []
        for s in basis:
            if not isinstance(s, str) or len(s) != n:
                raise ValueError(f"bitstring {s!r} does not have length {n}")
            masks.append(string_to_mask(s))
        return span_masks(masks, n)


class Run(NamedTuple("Run", [("a", int), ("b", int)])):
    """Indices (a, b), 1 <= a <= b: the base of Line and Arc, whose bounds error
    names the subclass.  Ordered and hashed as (a, b), but equal only to its own type."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __new__(cls, a: int, b: int) -> "Run":
        if not 1 <= a <= b:
            raise ValueError(f"bad {cls.__name__.lower()} bounds ({a}, {b})")
        return tuple.__new__(cls, (a, b))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other


def subspace_key(E: Subspace) -> tuple:
    """Canonical sort key: (dim, lexicographic basis strings)."""
    return (E.dim, tuple(mask_to_string(r, E.n) for r in E.rows))


def span_masks(masks: Iterable[int], n: int) -> Subspace:
    rows = _rref(masks)
    if max(rows, default=0) >> n:
        raise ValueError(f"vector does not fit in V_{n}")
    return Subspace._make((n, rows))


def is_isotropic(E: Subspace) -> bool:
    """True when the form vanishes on E x E.  Alternating, so pairs suffice."""
    if E.n % 2:
        raise ValueError(f"ambient dimension must be even, got {E.n}")
    return not any(starmap(form_masks, combinations(E.rows, 2)))
