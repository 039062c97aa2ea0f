"""Catalan, Narayana, Gaussian binomials, and the count rows."""

import json
import math

import pytest

from catspan import counting
from catspan.cli import main
from catspan.counting import catalan, gaussian_binomial, grades, narayana, verify_counts
from catspan.slots import COLLECTION, F0, F1


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


def test_planted_catalan_fault_reaches_the_export(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(counting, "catalan", lambda n: catalan(n) + 1)
    assert main(["export", "--D", "4", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "counts.csv").read_text(encoding="utf-8").splitlines()
    assert lines[:6] == [
        "D,label,observed,expected,pass",
        "4,f0,10,10,true",
        "4,f1,5,5,true",
        "4,lagrangian,5,6,false",
        "4,collection,5,6,false",
        "4,arcs,5,6,false",
    ]
    assert all(line.endswith(",true") for line in lines[6:])
    rows = json.loads((tmp_path / "counts.json").read_text(encoding="utf-8"))["rows"]
    assert [r["label"] for r in rows if not r["pass"]] == ["lagrangian", "collection", "arcs"]
    assert rows[2] == {"D": 4, "label": "lagrangian", "observed": 5, "expected": 6, "pass": False}


def test_verify_counts_small_dimensions():
    for D in range(2, 11, 2):
        rows = verify_counts(D)
        assert [r for r in rows if not r.passed] == []
        labels = [r.label for r in rows]
        assert labels[:5] == ["f0", "f1", "lagrangian", "collection", "arcs"]
        assert f"arcs[s={D // 2}]" in labels
    with pytest.raises(ValueError):
        verify_counts(3)
    with pytest.raises(ValueError):
        verify_counts(0)


def test_grades_give_the_per_dimension_closed_forms():
    # grade k of level 0 is C(D+1, k) - C(D+1, k-1) up to D/2, and level 1
    # is level 0 shifted up by one dimension below the Lagrangian grade
    for D in range(2, 15, 2):
        f0, f1 = grades(F0, D), grades(F1, D)
        assert len(f0) == len(f1) == D + 1
        for k in range(D + 1):
            want = math.comb(D + 1, k) - (math.comb(D + 1, k - 1) if k else 0)
            assert f0[k] == (want if k <= D // 2 else 0), (D, k)
            assert f1[k] == (f0[k - 1] if 1 <= k <= D // 2 else 0), (D, k)
        assert list(grades(COLLECTION, D)[: D // 2 + 1]) == [
            narayana(D // 2 + 1, s + 1) for s in range(D // 2 + 1)
        ]
