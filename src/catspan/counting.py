"""Exact Catalan/Narayana arithmetic and the cardinality checks.

Everything is arbitrary-precision integer arithmetic; no floats anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "catalan",
    "narayana",
    "gaussian_binomial",
    "CountRow",
    "CountReport",
    "verify_counts",
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


@dataclass(frozen=True, slots=True)
class CountRow:
    D: int
    label: str
    observed: int
    expected: int

    @property
    def passed(self) -> bool:
        return self.observed == self.expected


@dataclass(frozen=True, slots=True)
class CountReport:
    """Observed vs expected cardinalities for one ambient dimension."""

    D: int
    rows: tuple[CountRow, ...]

    def to_csv_rows(self) -> list[list[str]]:
        header = ["D", "label", "observed", "expected", "pass"]
        body = [
            [str(r.D), r.label, str(r.observed), str(r.expected), str(r.passed).lower()]
            for r in self.rows
        ]
        return [header] + body


def verify_counts(D: int) -> CountReport:
    """Compare every table built at ambient dimension D with its closed form.

    Level-0 family: C(D+1, D/2).  Level-1: C(D+1, (D-2)/2).  Lagrangian
    level-0 members, the odd-part collection, and the noncrossing arc sets
    all have Catalan cardinality Cat_{d+1}; the gradings are Narayana.
    """
    # imported here so counting stays leaf-level for the builders' own tests
    from .families import build_families
    from .noncrossing import build_collection, enumerate_noncrossing

    if D < 2 or D % 2:
        raise ValueError(f"ambient dimension must be even and >= 2, got {D}")
    d = D // 2
    table = build_families(D)
    coll = build_collection(D)
    seqs = enumerate_noncrossing(D)

    rows = [
        CountRow(D, "f0", len(table.f0), math.comb(D + 1, D // 2)),
        CountRow(D, "f1", len(table.f1), math.comb(D + 1, (D - 2) // 2)),
        CountRow(D, "lagrangian", len(table.f0_lagrangian), catalan(d + 1)),
        CountRow(D, "collection", len(coll.members), catalan(d + 1)),
        CountRow(D, "arcs", len(seqs), catalan(d + 1)),
    ]
    for s in range(d + 1):
        rows.append(
            CountRow(
                D,
                f"arcs[s={s}]",
                sum(1 for seq in seqs if len(seq) == s),
                narayana(d + 1, s + 1),
            )
        )
        rows.append(
            CountRow(
                D,
                f"collection[s={s}]",
                sum(1 for E in coll.members if E.dim == s),
                narayana(d + 1, s + 1),
            )
        )
    return CountReport(D, tuple(rows))
