"""Exact Catalan/Narayana arithmetic and the cardinality checks.

Everything is arbitrary-precision integer arithmetic; no floats anywhere.
The observed counts tally walks of each level, never the closed forms.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .noncrossing import enumerate_noncrossing
from .slots import COLLECTION, F0, F1, Rule, members

__all__ = [
    "catalan",
    "narayana",
    "gaussian_binomial",
    "CountRow",
    "grades",
    "verify_counts",
    "count_rows",
]


def catalan(n: int) -> int:
    """Cat_n = (2n)! / (n! (n+1)!)."""
    if n < 0:
        raise ValueError(f"catalan needs n >= 0, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def narayana(n: int, p: int) -> int:
    """N(n, p) = (1/n) C(n, p) C(n, p-1) for 1 <= p <= n."""
    if n < 1 or not 1 <= p <= n:
        raise ValueError(f"narayana needs 1 <= p <= n, got n={n}, p={p}")
    num = math.comb(n, p) * math.comb(n, p - 1)
    if num % n:
        raise ArithmeticError(f"narayana({n}, {p}) is not integral")
    return num // n


def gaussian_binomial(n: int, k: int, q: int = 2) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for j in range(k):
        num *= q ** (n - j) - 1
        den *= q ** (j + 1) - 1
    if num % den:
        raise ArithmeticError(f"gaussian_binomial({n}, {k}) is not integral")
    return num // den


class CountRow(NamedTuple):
    D: int
    label: str
    observed: int
    expected: int

    @property
    def passed(self) -> bool:
        return self.observed == self.expected


@lru_cache(maxsize=None)
def grades(rule: Rule, D: int) -> tuple[int, ...]:
    """Members of the level in V_D per dimension 0..D, from one walk; cached at
    D + 1 integers, so the count rows and verify's surjectivity share it."""
    tally = Counter(E.dim for E in members(rule, D))
    return tuple(tally[k] for k in range(D + 1))


def verify_counts(D: int) -> tuple[CountRow, ...]:
    """Compare every level walked at ambient dimension D with its closed form."""
    if D < 2 or D % 2:
        raise ValueError(f"ambient dimension must be even and >= 2, got {D}")
    arcs = Counter(map(len, enumerate_noncrossing(D)))
    arcs = [arcs[s] for s in range(D + 1)]
    return count_rows(D, grades(F0, D), grades(F1, D), grades(COLLECTION, D), arcs)


def count_rows(D: int, f0, f1, coll, arcs) -> tuple[CountRow, ...]:
    """The count rows at D from each level's members per dimension 0..D, a sequence each.

    Level-0 family: C(D+1, D/2).  Level-1: C(D+1, (D-2)/2).  Lagrangian
    level-0 members, the odd-part collection, and the noncrossing arc sets
    all have Catalan cardinality Cat_{d+1}; the gradings are Narayana.
    """
    d = D // 2
    rows = [
        CountRow(D, "f0", sum(f0), math.comb(D + 1, D // 2)),
        CountRow(D, "f1", sum(f1), math.comb(D + 1, (D - 2) // 2)),
        CountRow(D, "lagrangian", f0[d], catalan(d + 1)),
        CountRow(D, "collection", sum(coll), catalan(d + 1)),
        CountRow(D, "arcs", sum(arcs), catalan(d + 1)),
    ]
    for s in range(d + 1):
        rows.append(CountRow(D, f"arcs[s={s}]", arcs[s], narayana(d + 1, s + 1)))
        rows.append(CountRow(D, f"collection[s={s}]", coll[s], narayana(d + 1, s + 1)))
    return tuple(rows)
