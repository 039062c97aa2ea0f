"""Catalan, Narayana, Gaussian binomials, and the counting report."""

import pytest

from catspan.counting import (
    CountReport,
    CountRow,
    catalan,
    gaussian_binomial,
    narayana,
    verify_counts,
)


def test_catalan_values():
    assert [catalan(n) for n in range(10)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    with pytest.raises(ValueError):
        catalan(-1)


def test_narayana_values():
    assert narayana(4, 2) == 6
    assert narayana(5, 3) == 20
    assert [narayana(4, p) for p in range(1, 5)] == [1, 6, 6, 1]
    for n in range(1, 12):
        assert sum(narayana(n, p) for p in range(1, n + 1)) == catalan(n)
        assert [narayana(n, p) for p in range(1, n + 1)] == [
            narayana(n, n + 1 - p) for p in range(1, n + 1)
        ]
    with pytest.raises(ValueError):
        narayana(4, 0)
    with pytest.raises(ValueError):
        narayana(4, 5)
    with pytest.raises(ValueError):
        narayana(0, 1)


def test_gaussian_binomial_values():
    assert gaussian_binomial(3, 1) == 7
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(5, 2) == 155
    assert gaussian_binomial(6, 3) == 1395
    assert gaussian_binomial(4, 2, q=3) == 130
    assert gaussian_binomial(4, 5) == 0
    assert gaussian_binomial(4, -1) == 0
    for n in range(9):
        assert gaussian_binomial(n, 0) == 1
        for k in range(n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)


def test_gaussian_binomial_pascal_rule():
    # [n k] = [n-1 k-1] + q^k [n-1 k]
    for n in range(1, 10):
        for k in range(1, n + 1):
            lhs = gaussian_binomial(n, k)
            rhs = gaussian_binomial(n - 1, k - 1) + (1 << k) * gaussian_binomial(n - 1, k)
            assert lhs == rhs


def test_count_report_shape():
    rows = (CountRow(4, "f0", 10, 10), CountRow(4, "f1", 5, 6))
    report = CountReport(4, rows)
    assert [r for r in report.rows if not r.passed] == [rows[1]]
    csv_rows = report.to_csv_rows()
    assert csv_rows[0] == ["D", "label", "observed", "expected", "pass"]
    assert csv_rows[1] == ["4", "f0", "10", "10", "true"]
    assert csv_rows[2] == ["4", "f1", "5", "6", "false"]


def test_verify_counts_small_dimensions():
    for D in range(2, 11, 2):
        report = verify_counts(D)
        assert [r for r in report.rows if not r.passed] == []
        labels = [r.label for r in report.rows]
        assert labels[:5] == ["f0", "f1", "lagrangian", "collection", "arcs"]
        assert f"arcs[s={D // 2}]" in labels
    with pytest.raises(ValueError):
        verify_counts(3)
    with pytest.raises(ValueError):
        verify_counts(0)
