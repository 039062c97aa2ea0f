"""Inductive families of isotropic subspaces of V_n.

The level-0 and level-1 families come from the slot induction of the slots
module: a member of the smaller space is re-embedded with a gap opened at
index i and e_i is adjoined, each member once, from its canonical parent.
Lines spanned by consecutive-run vectors e_a + ... + e_b recover the
structure: level-0 members decompose into odd-length runs only, level-1
members carry exactly one even-length run, and dropping it is a bijection
onto the sub-Lagrangian level-0 part.  classify_by_lines reads the lines off
the residue classes of the prefixes e_1 + ... + e_b, with no row reduction.
"""

from __future__ import annotations

from typing import NamedTuple

from .gf2 import Run, Subspace
from .slots import F0, F1, members, peel

__all__ = ["Line", "FamilyTable", "build_families", "classify_by_lines", "level_down", "level_up"]


class Line(Run):
    """The line F(e_a + e_{a+1} + ... + e_b); 1-based, a <= b, equal only to a Line."""

    __slots__ = ()

    @property
    def parity(self) -> int:
        """Class index: 0 when b - a is odd (even-length run), else 1."""
        return 0 if (self.b - self.a) % 2 else 1

    def mask(self) -> int:
        return ((1 << (self.b - self.a + 1)) - 1) << (self.a - 1)


class FamilyTable(NamedTuple):
    """Both family levels at ambient dimension n, plus the Lagrangian split."""

    n: int
    f0: frozenset[Subspace]
    f1: frozenset[Subspace]
    f0_lagrangian: frozenset[Subspace]
    f0_sub: frozenset[Subspace]


def build_families(n: int) -> FamilyTable:
    """Both family levels in V_n as one whole table, walked afresh each call."""
    f0 = frozenset(set(members(F0, n)))  # copied from a set, the table is sized to fit, not grown
    half = n // 2
    lag = frozenset(E for E in f0 if E.dim == half)
    sub = frozenset(E for E in f0 if E.dim < half)
    return FamilyTable(n, f0, frozenset(set(members(F1, n))), lag, sub)


def classify_by_lines(E: Subspace) -> tuple[str, Line | None]:
    """("f0", None) when E is the direct sum of its lines, all parity-1; ("f1", L)
    when exactly one line, L, is parity-0; else ("other", None).  Necessary for
    membership, not sufficient: <e_1+e_2+e_3> in V_4 is in neither level.

    With P_b = e_1 + ... + e_b and P_0 = 0, the run e_a + ... + e_b is P_{a-1} + P_b,
    and P_1 ... P_n are a basis: runs are the edges of a graph on 0..n, independent
    exactly when they form a forest.  A run is in E when its two prefixes have one
    residue mod E, so E's lines are a clique per residue class, a forest only on at
    most 2 vertices.  So the lines span E exactly when no class holds 3 or more
    prefixes and the 2-prefix classes number E.dim; {a-1, b} is marked when b - a
    is odd.  In canonical RREF a pivot column is zero in the other rows, so the
    residue of P_b is P_b plus the rows with pivot in x_1..x_b: one running sum.
    """
    pivot_rows = {r & -r: r for r in E.rows}
    first, x, pairs, marked = {0: 0}, 0, 0, []
    for b in range(1, E.n + 1):
        bit = 1 << (b - 1)
        x ^= bit ^ pivot_rows.get(bit, 0)  # the residue of P_b
        start = first.setdefault(x, b)  # the class's first prefix, or -1 once it has two
        if start < 0:
            return ("other", None)
        if start < b:
            first[x], pairs = -1, pairs + 1
            if (b - start) % 2 == 0:
                marked.append(Line(start + 1, b))
    if pairs != E.dim or len(marked) > 1:
        return ("other", None)
    return ("f1", marked[0]) if marked else ("f0", None)


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
