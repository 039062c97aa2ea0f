"""Every verify check can fail: a fault planted under each one flips it.

The acceptance gate runs these checks as the one implementation of each
identity, so a check that could never fail would hide a broken map.  Each
case patches one name that a check looks up in catspan.verify (or catalan in
catspan.counting), never a cached builder, and runs the check at small D.
"""

import pytest

from catspan import cli, counting, verify
from catspan.families import Line
from catspan.gf2 import Subspace
from catspan.noncrossing import Arc, ArcSequence

real_catalan = counting.catalan
real_gaussian = counting.gaussian_binomial

# check, the name it calls in catspan.verify, the planted fault
FAULTS = [
    (verify.check_families_isotropic, "is_isotropic", lambda E: False),
    (verify.check_level_bijection, "level_up", lambda E: Subspace.zero(E.n)),
    (verify.check_arc_bijection, "arcs_of", lambda E: ArcSequence()),
    (verify.check_lagrangian, "from_lagrangian", lambda L: Subspace.zero(L.n)),
    (verify.check_shift_lemmas, "shift_arc", lambda i, x, n: Arc(1, 1)),
    (verify.check_embedding_compat, "extend_seq", lambda i, seq, n: ArcSequence()),
    (verify.check_roundtrip, "decompose", lambda seq, n: (1, ArcSequence())),
    (verify.check_inductive_closure, "extend_seq", lambda i, seq, n: ArcSequence()),
    (verify.check_oracle_noncrossing, "enumerate_noncrossing", lambda n: ()),
    (verify.check_oracle_subspace_counts, "gaussian_binomial", lambda n, k: real_gaussian(n, k) + 1),
    (verify.check_oracle_families, "classify_by_lines", lambda E: ("f1", None)),
]


def test_every_check_has_a_planted_fault():
    assert [check for check, *_ in FAULTS] == verify.BASE_CHECKS + verify.ORACLE_CHECKS


@pytest.mark.parametrize("check, name, fault", FAULTS, ids=[c.__name__ for c, *_ in FAULTS])
def test_planted_fault_fails_the_check(monkeypatch, check, name, fault):
    assert check(4).ok
    monkeypatch.setattr(verify, name, fault)
    res = check(4)
    assert not res.ok and res.D == 4
    assert res.counterexample


def test_marked_line_runs_from_odd_to_even(monkeypatch):
    monkeypatch.setattr(verify, "classify_by_lines", lambda E: ("f1", Line(2, 3)))
    res = verify.check_level_bijection(4)
    assert res.counterexample == "marked line (2, 3) is not (odd, even)"


def test_planted_fault_fails_the_counts(monkeypatch):
    assert all(r.passed for r in counting.verify_counts(4).rows)
    monkeypatch.setattr(counting, "catalan", lambda n: real_catalan(n) + 1)
    report = counting.verify_counts(4)
    assert [r.label for r in report.rows if not r.passed] == ["lagrangian", "collection", "arcs"]


@pytest.mark.parametrize(
    "module, name, fault, fail_line, first_failure",
    [
        (
            verify,
            "arcs_of",
            lambda E: ArcSequence(),
            "D=2 check arc-bijection FAIL",
            "first failure: D=2 arc-bijection: arcs_of inverts wrongly at ",
        ),
        (
            counting,
            "catalan",
            lambda n: real_catalan(n) + 1,
            "D=2 count lagrangian observed=2 expected=3 FAIL",
            "first failure: D=2 count lagrangian: observed 2, expected 3",
        ),
    ],
    ids=["check", "count"],
)
def test_verify_exits_1_on_a_planted_fault(
    monkeypatch, capsys, module, name, fault, fail_line, first_failure
):
    monkeypatch.setattr(module, name, fault)
    assert cli.main(["verify", "--D-max", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert fail_line in lines
    assert lines[-1].startswith(first_failure)
    assert "all checks passed" not in lines
