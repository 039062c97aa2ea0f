"""Brute-force cross-check enumerators.

These deliberately avoid the inductive constructions.  Subspaces come from
direct RREF cell enumeration: per pivot pattern, each row lists its values
once and `product` combines them, in the order of a binary count over the
free entries.  The isotropy oracle takes the same rows in the same order,
but drops a partial choice at its first pair of rows that pairs to 1.
Noncrossing sets come from filtering the full power set of arcs.  Desk-scale
only; the budgets make the cost ceiling explicit.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from itertools import combinations, product
from typing import NamedTuple

from .gf2 import Subspace, check_even, form_masks
from .noncrossing import ArcSequence, is_noncrossing, odd_arcs, seq_key

__all__ = ["OracleBudget", "cells", "all_subspaces", "all_isotropic", "noncrossing_direct"]

MAX_ARC_SUBSET = 24  # 2^24 subsets is the hard line for the power-set filter

# the environment variable that sets each OracleBudget field
BUDGET_VARS = {"max_dim": "CATSPAN_ORACLE_MAX_DIM", "max_odd_dim": "CATSPAN_ORACLE_MAX_ODD_DIM"}


class OracleBudget(NamedTuple):
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


def _row_values(n: int, p: int, pivots: tuple[int, ...]) -> list[int]:
    values = [1 << p]
    for c in range(p + 1, n):
        if c not in pivots:
            values += [v | 1 << c for v in values]
    return values


def _patterns(n: int, budget: OracleBudget) -> Iterator[list[list[int]]]:
    """Each pivot pattern's row factors, last row first; raises at the call."""
    if n < 0:
        raise ValueError(f"ambient dimension must be >= 0, got {n}")
    if n > budget.max_dim:
        raise ValueError(f"ambient dimension {n} exceeds oracle budget {budget.max_dim}")
    return (
        [_row_values(n, p, pivots) for p in reversed(pivots)]
        for k in range(n + 1)
        for pivots in combinations(range(n), k)
    )


def cells(n: int, budget: OracleBudget = OracleBudget()) -> Iterator[tuple[int, ...]]:
    """Canonical rows of every subspace of V_n, by dimension; raises at the call."""
    return (rows[::-1] for factors in _patterns(n, budget) for rows in product(*factors))


def all_subspaces(n: int, budget: OracleBudget = OracleBudget()) -> list[Subspace]:
    """Every subspace of an n-dimensional space, in `cells` order."""
    return [Subspace._make((n, rows)) for rows in cells(n, budget)]


def all_isotropic(n: int, budget: OracleBudget = OracleBudget()) -> list[Subspace]:
    """Every isotropic subspace of V_n, in `cells` order.

    Per pivot pattern the rows are chosen in `product` order, last row first,
    and a partial choice is dropped at the first pair of rows that pairs to 1:
    isotropy is pairwise, so no completion of it is isotropic.
    """
    if n % 2:
        raise ValueError(f"ambient dimension must be even, got {n}")
    out = []
    for factors in _patterns(n, budget):
        chosen = [()]
        for values in factors:
            chosen = [
                (v,) + rows
                for rows in chosen
                for v in values
                if not any(form_masks(v, r) for r in rows)
            ]
        out += [Subspace._make((n, rows)) for rows in chosen]
    return out


def noncrossing_direct(n: int, budget: OracleBudget = OracleBudget()) -> list[ArcSequence]:
    """Noncrossing arc sets by filtering the full power set of arcs."""
    check_even(n)
    if n > budget.max_odd_dim:
        raise ValueError(f"ambient dimension {n} exceeds oracle budget {budget.max_odd_dim}")
    arcs = odd_arcs(n)
    if len(arcs) > MAX_ARC_SUBSET:
        raise ValueError(f"{len(arcs)} arcs exceeds the power-set cap {MAX_ARC_SUBSET}")
    out = []
    for size in range(len(arcs) + 1):
        for subset in combinations(arcs, size):
            if is_noncrossing(subset):
                out.append(ArcSequence.of(subset))
    out.sort(key=seq_key)
    return out
