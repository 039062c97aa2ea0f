"""Every verify check can fail: a fault planted under each one flips it.

The acceptance gate runs these checks as the one implementation of each
identity, so a check that could never fail would hide a broken map.  Each
case patches one name that a check looks up in catspan.verify (or catalan in
catspan.counting), never a table builder, and runs the check at small D.
"""

import functools
from collections import Counter
from itertools import islice

import pytest

from catspan import cli, counting, families, noncrossing, slots, verify
from catspan.families import Line, build_families
from catspan.gf2 import Subspace, span_masks, subspace_key
from catspan.noncrossing import Arc, ArcSequence
from catspan.oracle import BUDGET_VARS, OracleBudget

real_catalan = counting.catalan
real_gaussian = counting.gaussian_binomial

# check, the name it calls in catspan.verify, the planted fault
FAULTS = [
    (verify.check_families_isotropic, "is_isotropic", lambda E: False),
    (verify.check_level_bijection, "level_up", lambda E: Subspace(E.n, ())),
    (verify.check_arc_bijection, "arcs_of", lambda E: ArcSequence()),
    (verify.check_lagrangian, "from_lagrangian", lambda L: Subspace(L.n, ())),
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


def test_wrapped_checks_keep_their_caps(monkeypatch, capsys):
    # a functools.wraps wrapper, as a tracer puts round each check, copies
    # check.cap, which run_checks and the skip lines of verify read
    def wrap(check):
        @functools.wraps(check)
        def run(*args, **kwargs):
            return check(*args, **kwargs)

        return run

    budget = OracleBudget(max_dim=2, max_odd_dim=4)
    monkeypatch.setenv("CATSPAN_ORACLE_MAX_DIM", "2")
    monkeypatch.setenv("CATSPAN_ORACLE_MAX_ODD_DIM", "4")
    want = verify.run_checks(2, 6, True, budget)
    assert want[2] and all(res.ok for res in want[1])
    assert cli.main(["verify", "--D-max", "6", "--oracle"]) == 0
    want_out = capsys.readouterr()
    monkeypatch.setattr(verify, "BASE_CHECKS", [wrap(c) for c in verify.BASE_CHECKS])
    monkeypatch.setattr(verify, "ORACLE_CHECKS", [wrap(c) for c in verify.ORACLE_CHECKS])
    assert verify.run_checks(2, 6, True, budget) == want
    assert cli.main(["verify", "--D-max", "6", "--oracle"]) == 0
    assert capsys.readouterr() == want_out
    assert all(c.cap is None for c in verify.BASE_CHECKS)
    assert all(c.cap in BUDGET_VARS for c in verify.ORACLE_CHECKS)


def test_passing_table_walks_sort_nothing(monkeypatch):
    def no_sort(E):
        raise AssertionError("a passing check sorted a table")

    monkeypatch.setattr(verify, "subspace_key", no_sort)
    monkeypatch.setattr(noncrossing, "subspace_key", no_sort)
    assert verify.check_families_isotropic(8).ok
    assert verify.check_level_bijection(8).ok
    assert verify.check_lagrangian(8).ok
    assert verify.check_oracle_families(6).ok


def test_the_paired_checks_peel_once_a_member(monkeypatch):
    # each image rides the slot walk, so the one peel per member is the round
    # trip's level-0 peel, in level_up or from_lagrangian
    peels = Counter()
    for module in (families, noncrossing):
        monkeypatch.setattr(
            module, "peel", lambda E, rule, real=module.peel: peels.update([rule]) or real(E, rule)
        )
    assert verify.check_level_bijection(8).ok
    assert peels == {slots.F0: sum(1 for _ in slots.members(slots.F1, 8))}
    peels.clear()
    assert verify.check_lagrangian(8).ok
    assert peels == {slots.F0: sum(1 for _ in slots.members(slots.COLLECTION, 8))}


def test_failure_names_the_canonically_first_member(monkeypatch):
    # fails every dim-2 member, not every member: the stored walk meets some
    # failing member first, the report still names the least in canonical order
    monkeypatch.setattr(verify, "is_isotropic", lambda E: E.dim != 2)
    table = build_families(8)
    first = min((E for E in table.f0 | table.f1 if E.dim == 2), key=subspace_key)
    res = verify.check_families_isotropic(8)
    assert res.counterexample == f"non-isotropic member {first.to_json()}"


def test_marked_line_runs_from_odd_to_even(monkeypatch):
    monkeypatch.setattr(verify, "classify_by_lines", lambda E: ("f1", Line(2, 3)))
    res = verify.check_level_bijection(4)
    assert res.counterexample == "marked line (2, 3) is not (odd, even)"


def _images(fault):
    """slots.pairs, but the image that the walk carries with E is fault(E)."""

    def walk(rule, image, n):
        return ((E, fault(E)) for E, _ in slots.pairs(rule, image, n))

    return walk


@pytest.mark.parametrize(
    "name, fault, member",
    [
        # the marked line is not in E
        ("classify_by_lines", lambda E: ("f1", Line(1, 2)), "['1111']"),
        # the image is too small
        ("pairs", _images(lambda E: Subspace(E.n, ())), "['1000', '0011']"),
        # the image <e_4> is not inside E = <e_1, e_3 + e_4>
        ("pairs", _images(lambda E: span_masks([1 << (E.n - 1)] * (E.dim - 1), E.n)), "['1000', '0011']"),
    ],
    ids=["line-outside", "image-too-small", "image-outside"],
)
def test_marked_line_must_complete_the_image(monkeypatch, name, fault, member):
    monkeypatch.setattr(verify, name, fault)
    res = verify.check_level_bijection(4)
    assert res.counterexample == f"{{'D': 4, 'basis': {member}}} != image + marked line"


def test_lagrangian_image_must_contain_its_source(monkeypatch):
    # a relabelled correspondence still lands in the Lagrangian level, round
    # trips and is onto; only the containment clause catches it
    coll = noncrossing.build_collection(4).sorted_members()
    relabel = dict(zip(coll, coll[1:] + coll[:1]))
    back = {v: k for k, v in relabel.items()}
    images = dict(slots.pairs(slots.COLLECTION, slots.F0, 4))
    monkeypatch.setattr(verify, "pairs", _images(lambda E: images[relabel[E]]))
    monkeypatch.setattr(verify, "from_lagrangian", lambda L: back[noncrossing.from_lagrangian(L)])
    res = verify.check_lagrangian(4)
    assert res.counterexample == "image of {'D': 4, 'basis': ['0010']} does not contain it"


def _walk_without_first(rule):
    """slots.pairs, but the pair of the canonically first member of rule's level is dropped."""

    def walk(r, image, n):
        out = list(slots.pairs(r, image, n))
        if r is rule:
            out.remove(min(out, key=lambda pair: subspace_key(pair[0])))
        return iter(out)

    return walk


@pytest.mark.parametrize(
    "check, name, fault, missed",
    [
        (verify.check_level_bijection, "pairs", _walk_without_first(slots.F1), "[]"),
        (
            verify.check_arc_bijection,
            "enumerate_noncrossing",
            lambda n: islice(noncrossing.enumerate_noncrossing(n), 1, None),
            "[]",
        ),
        (
            verify.check_lagrangian,
            "pairs",
            _walk_without_first(slots.COLLECTION),
            "['0100', '0001']",
        ),
    ],
    ids=["level", "arc", "lagrangian"],
)
def test_a_dropped_source_member_is_missed(monkeypatch, check, name, fault, missed):
    # every image still passes, so only the walk counts show the gap
    monkeypatch.setattr(verify, name, fault)
    res = check(4)
    assert res.counterexample == f"not surjective, missed {{'D': 4, 'basis': {missed}}}"


def test_a_repeated_source_member_is_not_injective(monkeypatch):
    # the left inverse holds member by member; the repeat shows in the counts
    def walk(r, image, n):
        out = list(slots.pairs(r, image, n))
        return iter(out + out[:1] if r is slots.F1 else out)

    monkeypatch.setattr(verify, "pairs", walk)
    res = verify.check_level_bijection(4)
    assert res.counterexample == "not injective: 6 members, 5 images"


def test_a_member_of_both_levels_is_an_overlap(monkeypatch):
    # the f1 walk also yields the third and then the second level-0 member
    # in canonical order: the report names the canonically first of the two
    def walk(r, n):
        out = list(slots.members(r, n))
        extra = sorted(slots.members(slots.F0, n), key=subspace_key)[2:0:-1]
        return iter(out + extra if r is slots.F1 else out)

    monkeypatch.setattr(verify, "members", walk)
    res = verify.check_families_isotropic(4)
    assert res.counterexample == "levels overlap at {'D': 4, 'basis': ['0001']}"


def test_planted_fault_fails_the_counts(monkeypatch):
    assert all(r.passed for r in counting.verify_counts(4))
    monkeypatch.setattr(counting, "catalan", lambda n: real_catalan(n) + 1)
    rows = counting.verify_counts(4)
    assert [r.label for r in rows if not r.passed] == ["lagrangian", "collection", "arcs"]


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
