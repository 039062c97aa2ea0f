"""Brute-force cross-check enumerators.

These deliberately avoid the inductive constructions: subspaces come from
direct RREF cell enumeration over pivot patterns, noncrossing sets from
filtering the full power set of arcs.  Desk-scale only; the budgets make
the cost ceiling explicit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations

from .gf2 import Subspace, form_masks
from .noncrossing import Arc, ArcSequence, is_noncrossing, seq_key

__all__ = [
    "OracleBudget",
    "all_subspaces",
    "all_isotropic",
    "noncrossing_direct",
]

MAX_ARC_SUBSET = 24  # 2^24 subsets is the hard line for the power-set filter

# the environment variable that sets each OracleBudget field
BUDGET_VARS = {"max_dim": "CATSPAN_ORACLE_MAX_DIM", "max_odd_dim": "CATSPAN_ORACLE_MAX_ODD_DIM"}


@dataclass(frozen=True, slots=True)
class OracleBudget:
    """Cost ceilings; exceeding one raises instead of grinding."""

    max_dim: int = 8       # ambient cap for full subspace enumeration
    max_odd_dim: int = 10  # ambient cap for odd-index-side enumeration

    @classmethod
    def from_env(cls) -> "OracleBudget":
        """Budget with CATSPAN_ORACLE_MAX_DIM / CATSPAN_ORACLE_MAX_ODD_DIM applied."""
        kw = {}
        for field, var in BUDGET_VARS.items():
            v = os.environ.get(var)
            if v is not None:
                try:
                    kw[field] = int(v)
                except ValueError:
                    raise ValueError(f"{var} must be an integer, got {v!r}") from None
                if kw[field] < 0:
                    raise ValueError(f"{var} must be >= 0, got {v!r}")
        return cls(**kw)


def _cells(n: int, k: int):
    # every k-dim subspace has a unique RREF basis: fix the pivot columns,
    # then every assignment of the free positions gives a distinct subspace
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (r, c)
            for r, p in enumerate(pivots)
            for c in range(p + 1, n)
            if c not in pivot_set
        ]
        base = [1 << p for p in pivots]
        for fill in range(1 << len(free)):
            rows = list(base)
            for j, (r, c) in enumerate(free):
                if (fill >> j) & 1:
                    rows[r] |= 1 << c
            yield tuple(rows)


def all_subspaces(n: int, budget: OracleBudget | None = None) -> list[Subspace]:
    """Every subspace of an n-dimensional space, by direct cell enumeration."""
    budget = budget or OracleBudget()
    if n < 0:
        raise ValueError(f"ambient dimension must be >= 0, got {n}")
    if n > budget.max_dim:
        raise ValueError(f"ambient dimension {n} exceeds oracle budget {budget.max_dim}")
    return [Subspace(n, rows) for k in range(n + 1) for rows in _cells(n, k)]


def _rows_isotropic(rows: tuple[int, ...]) -> bool:
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if form_masks(rows[i], rows[j]):
                return False
    return True


def all_isotropic(n: int, budget: OracleBudget | None = None) -> list[Subspace]:
    """Every isotropic subspace of V_n."""
    if n % 2:
        raise ValueError(f"ambient dimension must be even, got {n}")
    return [E for E in all_subspaces(n, budget) if _rows_isotropic(E.rows)]


def noncrossing_direct(n: int, budget: OracleBudget | None = None) -> list[ArcSequence]:
    """Noncrossing arc sets by filtering the full power set of arcs."""
    budget = budget or OracleBudget()
    if n < 0 or n % 2:
        raise ValueError(f"ambient dimension must be even and >= 0, got {n}")
    if n > budget.max_odd_dim:
        raise ValueError(f"ambient dimension {n} exceeds oracle budget {budget.max_odd_dim}")
    arcs = [Arc(a, b) for a in range(1, n, 2) for b in range(a, n, 2)]
    if len(arcs) > MAX_ARC_SUBSET:
        raise ValueError(f"{len(arcs)} arcs exceeds the power-set cap {MAX_ARC_SUBSET}")
    out = []
    for size in range(len(arcs) + 1):
        for subset in combinations(arcs, size):
            if is_noncrossing(subset):
                out.append(ArcSequence.of(subset))
    out.sort(key=seq_key)
    return out
