"""Inductive families of isotropic subspaces of V_n.

The level-0 and level-1 families are generated by the slot induction of
the slots module: a member of the smaller space is re-embedded with a gap
opened at index i and the new basis vector e_i is adjoined.  Lines spanned
by consecutive-run vectors e_a + ... + e_b recover the structure: level-0
members decompose into odd-length runs only, level-1 members carry exactly
one even-length run, and dropping it is a bijection onto the sub-Lagrangian
level-0 part.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .gf2 import Subspace, span_masks, subspace_key
from .slots import F0, F1, layer, peel

__all__ = [
    "Line",
    "FamilyTable",
    "build_families",
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


@lru_cache(maxsize=None)
def build_families(n: int) -> FamilyTable:
    """Generate both family levels at ambient dimension n by induction."""
    if n < 0 or n % 2:
        raise ValueError(f"ambient dimension must be even and >= 0, got {n}")
    if n == 0:
        zero = Subspace.zero(0)
        return FamilyTable(0, frozenset([zero]), frozenset(), frozenset([zero]), frozenset())

    prev = build_families(n - 2)
    f0 = layer(F0.step, n, prev.f0, F0.base(n))
    f1 = layer(F1.step, n, prev.f1, F1.base(n))

    half = n // 2
    lag = frozenset(E for E in f0 if E.dim == half)
    sub = frozenset(E for E in f0 if E.dim < half)
    return FamilyTable(n, frozenset(f0), frozenset(f1), lag, sub)


def lines_in(E: Subspace) -> frozenset[Line]:
    """Every consecutive-run line contained in E.

    Reduction against RREF rows is linear with kernel E, so the line
    e_a + ... + e_b lies in E exactly when the prefixes e_1 + ... + e_{a-1}
    and e_1 + ... + e_b leave the same residue: n + 1 reductions in all.
    """
    ends_by_residue: dict[int, list[int]] = {}
    out = []
    for b in range(E.n + 1):
        ends = ends_by_residue.setdefault(E.residue((1 << b) - 1), [])
        out.extend(Line(a + 1, b) for a in ends)
        ends.append(b)
    return frozenset(out)


def classify_by_lines(E: Subspace) -> tuple[str, Line | None]:
    """Shape test from the contained lines.

    Returns ("f0", None) when E is the direct sum of its lines and all of
    them are parity-1, ("f1", L) when exactly one is parity-0, and
    ("other", None) in every remaining case.  The test is necessary for
    family membership, not sufficient: F(e_1+e_2+e_3) in V_4 is the direct
    sum of one parity-1 line but belongs to neither level.  The level maps
    go through the slot peel instead; verify checks them against this test.
    """
    B = lines_in(E)
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

    Bijection from the level-1 family onto the sub-Lagrangian level-0 part:
    the slots that peel E at level 1, replayed from the level-0 base (zero),
    build E without the run that the level-1 base grows into.
    """
    slots = peel(E, F1)
    if slots is None:
        raise ValueError(f"subspace is not a level-1 member in V_{E.n}")
    return F0.build(slots, E.n)


def level_up(E0: Subspace) -> Subspace:
    """Inverse of level_down: adjoin the parity-0 run that E0 is missing.

    The slots that peel E0 at level 0, replayed from the level-1 base
    e_1 + ... + e_m of the V_m where the peel stops, carry that run up.
    """
    slots = peel(E0, F0)
    if slots is None or 2 * E0.dim >= E0.n:
        raise ValueError(f"subspace is not a sub-Lagrangian level-0 member in V_{E0.n}")
    return F1.build(slots, E0.n)
