"""Inductive families of isotropic subspaces of V_n.

The level-0 and level-1 families are generated by a two-step induction: a
member of the smaller space is re-embedded with a gap opened at index i and
the new basis vector e_i is adjoined.  Lines spanned by consecutive-run
vectors e_a + ... + e_b recover the structure: level-0 members decompose
into odd-length runs only, level-1 members carry exactly one even-length
run, and dropping it is a bijection onto the sub-Lagrangian level-0 part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gf2 import (
    BitVector,
    Subspace,
    _reduce,
    span_masks,
    subspace_key,
)

__all__ = [
    "Line",
    "FamilyTable",
    "embed_at",
    "build_families",
    "line_classes",
    "lines_in",
    "classify_by_lines",
    "level_down",
    "level_up",
]


@dataclass(frozen=True, slots=True, order=True)
class Line:
    """The line F(e_a + e_{a+1} + ... + e_b); 1-based, a <= b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not 1 <= self.a <= self.b:
            raise ValueError(f"bad line bounds ({self.a}, {self.b})")

    @property
    def parity(self) -> int:
        """Class index: 0 when b - a is odd (even-length run), else 1."""
        return 0 if (self.b - self.a) % 2 else 1

    def mask(self) -> int:
        return ((1 << (self.b - self.a + 1)) - 1) << (self.a - 1)

    def vector(self, n: int) -> BitVector:
        if self.b > n:
            raise ValueError(f"line ({self.a}, {self.b}) does not fit in V_{n}")
        return BitVector(n, self.mask())


@dataclass(frozen=True, slots=True)
class FamilyTable:
    """Both family levels at ambient dimension n, plus the Lagrangian split."""

    n: int
    f0: frozenset[Subspace]
    f1: frozenset[Subspace]
    f0_lagrangian: frozenset[Subspace]
    f0_sub: frozenset[Subspace]

    def sorted_f0(self) -> list[Subspace]:
        return sorted(self.f0, key=subspace_key)

    def sorted_f1(self) -> list[Subspace]:
        return sorted(self.f1, key=subspace_key)

    def to_json(self) -> dict:
        return {
            "D": self.n,
            "f0": [E.to_json() for E in self.sorted_f0()],
            "f1": [E.to_json() for E in self.sorted_f1()],
        }


def _check_slot(i: int, n_target: int) -> None:
    if not 1 <= i <= n_target:
        raise ValueError(f"slot {i} outside [1, {n_target}]")


def _embed_mask(i: int, m: int) -> int:
    # coordinates below i-1 stay, e_{i-1} fans out to e_{i-1}+e_i+e_{i+1},
    # coordinates from i upward shift by two
    if i < 2:
        return m << 2
    out = (m & ((1 << (i - 2)) - 1)) | ((m >> (i - 1)) << (i + 1))
    if (m >> (i - 2)) & 1:
        out |= 0b111 << (i - 2)
    return out


def embed_at(i: int, v: BitVector) -> BitVector:
    """Re-embed v in a space two wider, opening a gap at index i."""
    if v.n % 2:
        raise ValueError(f"source dimension must be even, got {v.n}")
    _check_slot(i, v.n + 2)
    return BitVector(v.n + 2, _embed_mask(i, v.mask))


def _embed_subspace(i: int, E: Subspace) -> list[int]:
    return [_embed_mask(i, r) for r in E.rows]


@lru_cache(maxsize=None)
def build_families(n: int) -> FamilyTable:
    """Generate both family levels at ambient dimension n by induction."""
    if n < 0 or n % 2:
        raise ValueError(f"ambient dimension must be even and >= 0, got {n}")
    if n == 0:
        zero = Subspace.zero(0)
        return FamilyTable(0, frozenset([zero]), frozenset(), frozenset([zero]), frozenset())

    prev = build_families(n - 2)
    f0 = {Subspace.zero(n)}
    for i in range(1, n + 1):
        ei = 1 << (i - 1)
        for E in prev.f0:
            f0.add(span_masks(_embed_subspace(i, E) + [ei], n))
    f1 = {span_masks([(1 << n) - 1], n)}
    for i in range(1, n + 1):
        ei = 1 << (i - 1)
        for E in prev.f1:
            f1.add(span_masks(_embed_subspace(i, E) + [ei], n))

    half = n // 2
    lag = frozenset(E for E in f0 if E.dim == half)
    sub = frozenset(E for E in f0 if E.dim < half)
    return FamilyTable(n, frozenset(f0), frozenset(f1), lag, sub)


def _peel(E: Subspace, level: str) -> list[int] | None:
    """Run the slot induction backwards; the slots that build E, top first.

    level is "f0", "f1" or "collection".  Each step takes the first slot i
    at which E is a one-step extension, E = embed_i(P) + <e_i>, and pulls
    back to P by deleting coordinates i and i+1.  That needs every row to
    have x_{i-1} = x_{i+1} (coordinates outside V_n read 0) and e_i in E;
    an even collection slot adjoins nothing, so it needs only the first.
    Collection members lie in the odd-index part, which every step keeps.
    The peel stops at the base of the level (zero, or the span of
    e_1 + ... + e_n for f1) and returns None when no slot applies.
    """
    n = E.n
    if n < 0 or n % 2:
        raise ValueError(f"ambient dimension must be even and >= 0, got {n}")
    rows = E.rows
    if level == "collection" and any(r & ~(((1 << n) - 1) // 3) for r in rows):
        return None
    slots = []
    while rows != (((1 << n) - 1,) if level == "f1" else ()):
        # bit i-1 is set when some row has x_{i-1} != x_{i+1}
        ragged = 0
        for r in rows:
            ragged |= (r << 1) ^ (r >> 1)
        for i in range(1, n + 1):
            ei = 1 << (i - 1)
            adjoins = level != "collection" or i % 2
            if ragged & ei or (adjoins and _reduce(ei, rows)):
                continue
            low = ei - 1
            P = span_masks(((r & low) | (r >> (i + 1) << (i - 1)) for r in rows), n - 2)
            if P.dim != len(rows) - adjoins:
                return None
            slots.append(i)
            rows, n = P.rows, n - 2
            break
        else:
            return None
    return slots


def line_classes(n: int) -> tuple[frozenset[Line], frozenset[Line]]:
    """All consecutive-run lines of V_n, split by parity class (0, 1)."""
    if n < 0:
        raise ValueError(f"ambient dimension must be >= 0, got {n}")
    lines = [Line(a, b) for a in range(1, n + 1) for b in range(a, n + 1)]
    return (
        frozenset(L for L in lines if L.parity == 0),
        frozenset(L for L in lines if L.parity == 1),
    )


def lines_in(E: Subspace) -> frozenset[Line]:
    """Every consecutive-run line contained in E.

    Reduction against RREF rows is linear with kernel E, so the line
    e_a + ... + e_b lies in E exactly when the prefixes e_1 + ... + e_{a-1}
    and e_1 + ... + e_b leave the same residue: n + 1 reductions in all.
    """
    ends_by_residue: dict[int, list[int]] = {}
    out = []
    for b in range(E.n + 1):
        ends = ends_by_residue.setdefault(_reduce((1 << b) - 1, E.rows), [])
        out.extend(Line(a + 1, b) for a in ends)
        ends.append(b)
    return frozenset(out)


def classify_by_lines(E: Subspace) -> tuple[str, Line | None]:
    """Shape test from the contained lines.

    Returns ("f0", None) when E is the direct sum of its lines and all of
    them are parity-1, ("f1", L) when exactly one is parity-0, and
    ("other", None) in every remaining case.  The test is necessary for
    family membership, not sufficient: F(e_1+e_2+e_3) in V_4 is the direct
    sum of one parity-1 line but belongs to neither level.
    """
    return _line_shape(E, lines_in(E))


def _line_shape(E: Subspace, B: frozenset[Line]) -> tuple[str, Line | None]:
    if len(B) != E.dim or span_masks((L.mask() for L in B), E.n) != E:
        return ("other", None)
    marked = [L for L in B if L.parity == 0]
    if not marked:
        return ("f0", None)
    if len(marked) == 1:
        return ("f1", marked[0])
    return ("other", None)


def level_down(E: Subspace) -> Subspace:
    """Drop the unique parity-0 line of a level-1 member.

    Bijection from the level-1 family onto the sub-Lagrangian level-0 part.
    """
    if _peel(E, "f1") is None:
        raise ValueError(f"subspace is not a level-1 member in V_{E.n}")
    B = lines_in(E)
    kind, marked = _line_shape(E, B)
    if kind != "f1" or marked is None:
        raise AssertionError(f"level-1 member failed the line test in V_{E.n}")
    return span_masks((L.mask() for L in B if L != marked), E.n)


def level_up(E0: Subspace) -> Subspace:
    """Inverse of level_down: adjoin the parity-0 run that E0 is missing.

    Peeling E0 as a level-0 member ends at the zero subspace of some V_m
    with m > 0; the same slots carry the level-1 base e_1 + ... + e_m of
    V_m up to that run.
    """
    n = E0.n
    slots = _peel(E0, "f0")
    if slots is None or 2 * E0.dim >= n:
        raise ValueError(f"subspace is not a sub-Lagrangian level-0 member in V_{n}")
    run = (1 << (n - 2 * len(slots))) - 1
    for i in reversed(slots):
        run = _embed_mask(i, run)
    return span_masks(E0.rows + (run,), n)
