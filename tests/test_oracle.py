"""Brute-force enumerators and cross-checks against closed-form counts."""

from collections import Counter

import pytest

from _fixtures import isotropic
from catspan.counting import gaussian_binomial
from catspan.families import build_families, classify_by_lines
from catspan.gf2 import span_masks
from catspan.noncrossing import enumerate_noncrossing, seq_key
from catspan.oracle import (
    MAX_ARC_SUBSET,
    OracleBudget,
    all_isotropic,
    all_subspaces,
    noncrossing_direct,
)


def isotropic_closed_form(d: int, k: int) -> int:
    """Totally isotropic k-subspaces of a 2d-dimensional symplectic space."""
    out = gaussian_binomial(d, k)
    for i in range(d - k + 1, d + 1):
        out *= (1 << i) + 1
    return out


def test_all_subspaces_counts():
    for n in range(6):
        subs = all_subspaces(n)
        assert len(set(subs)) == len(subs)
        by_dim = Counter(E.dim for E in subs)
        for k in range(n + 1):
            assert by_dim[k] == gaussian_binomial(n, k)
        for E in subs:
            assert span_masks(E.rows, n) == E


def test_all_subspaces_dim_filter():
    assert len(all_subspaces(4, dim_filter=2)) == 35
    with pytest.raises(ValueError):
        all_subspaces(4, dim_filter=5)
    with pytest.raises(ValueError):
        all_subspaces(4, dim_filter=-1)
    with pytest.raises(ValueError):
        all_subspaces(-1)


def test_all_isotropic_frozen_counts():
    expected = {
        2: (4, {0: 1, 1: 3}),
        4: (31, {0: 1, 1: 15, 2: 15}),
        6: (514, {0: 1, 1: 63, 2: 315, 3: 135}),
    }
    for D, (total, hist) in expected.items():
        iso = all_isotropic(D)
        assert len(iso) == total
        assert dict(Counter(E.dim for E in iso)) == hist
        d = D // 2
        for k, count in hist.items():
            assert count == isotropic_closed_form(d, k)
    with pytest.raises(ValueError):
        all_isotropic(3)


def test_budget_limits():
    with pytest.raises(ValueError):
        all_subspaces(9)
    with pytest.raises(ValueError):
        noncrossing_direct(12)
    with pytest.raises(ValueError):
        noncrossing_direct(14, OracleBudget(max_odd_dim=14))
    assert MAX_ARC_SUBSET == 24


def test_budget_from_env(monkeypatch):
    monkeypatch.delenv("CATSPAN_ORACLE_MAX_DIM", raising=False)
    monkeypatch.delenv("CATSPAN_ORACLE_MAX_ODD_DIM", raising=False)
    assert OracleBudget.from_env() == OracleBudget()
    monkeypatch.setenv("CATSPAN_ORACLE_MAX_DIM", "6")
    monkeypatch.setenv("CATSPAN_ORACLE_MAX_ODD_DIM", "12")
    budget = OracleBudget.from_env()
    assert budget.max_dim == 6
    assert budget.max_odd_dim == 12
    monkeypatch.setenv("CATSPAN_ORACLE_MAX_DIM", "many")
    with pytest.raises(ValueError, match="CATSPAN_ORACLE_MAX_DIM must be an integer, got 'many'"):
        OracleBudget.from_env()
    monkeypatch.setenv("CATSPAN_ORACLE_MAX_DIM", "6")
    monkeypatch.setenv("CATSPAN_ORACLE_MAX_ODD_DIM", "x")
    with pytest.raises(ValueError, match="CATSPAN_ORACLE_MAX_ODD_DIM must be an integer, got 'x'"):
        OracleBudget.from_env()
    monkeypatch.setenv("CATSPAN_ORACLE_MAX_ODD_DIM", "-1")
    with pytest.raises(ValueError, match="CATSPAN_ORACLE_MAX_ODD_DIM must be >= 0, got '-1'"):
        OracleBudget.from_env()
    monkeypatch.setenv("CATSPAN_ORACLE_MAX_ODD_DIM", "0")
    assert OracleBudget.from_env().max_odd_dim == 0


def test_noncrossing_direct_agrees():
    for D in (2, 4, 6, 8):
        direct = noncrossing_direct(D)
        fast = sorted(enumerate_noncrossing(D), key=seq_key)
        assert direct == fast
    with pytest.raises(ValueError):
        noncrossing_direct(5)


def test_families_inside_brute_force_isotropic():
    for D in (2, 4, 6):
        table = build_families(D)
        iso = set(all_isotropic(D))
        assert table.f0 | table.f1 <= iso


def test_shape_counts_overshoot_families():
    # frozen counts: the line test finds strictly more shaped subspaces than
    # the builders produce, which is why membership goes through the slot peel
    expected = {4: (13, 10, 10, 5), 6: (73, 35, 93, 21), 8: (501, 126, 916, 84)}
    for D, (f0_shaped, f0_size, f1_shaped, f1_size) in expected.items():
        table = build_families(D)
        iso = isotropic(D)
        kinds = Counter(classify_by_lines(E)[0] for E in iso)
        assert kinds["f0"] == f0_shaped
        assert kinds["f1"] == f1_shaped
        assert len(table.f0) == f0_size
        assert len(table.f1) == f1_size
        assert f0_shaped > f0_size
        assert f1_shaped > f1_size
