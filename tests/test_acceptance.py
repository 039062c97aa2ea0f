"""Full verification matrix at its widest advertised scale.

Each test here covers one headline guarantee end to end, prints a single
PASS or FAIL line for it (visible with -s, and mirrored by the -v test
status), and enforces the advertised wall-clock ceiling.  The identity tests
run the checks behind `catspan verify`; the hand-written reference tables and
the brute-force oracle are the independent second source.  The unit modules
keep their own finer-grained loops at small D; this module is the gate.
"""

import contextlib
import time
from pathlib import Path

import pytest

from _fixtures import C_V2, C_V4, C_V6, F0_V2, F0_V4, F1_V2, F1_V4, Z_V2, Z_V4, Z_V6
from catspan.conjecture import (
    SuppliedFamily,
    collection_as_plain,
    fingerprint,
    gl_match,
    load_family,
)
from catspan.counting import verify_counts
from catspan.families import build_families
from catspan.gf2 import span_masks, subspace_key
from catspan.noncrossing import build_collection, enumerate_noncrossing
from catspan.verify import (
    check_arc_bijection,
    check_embedding_compat,
    check_inductive_closure,
    check_lagrangian,
    check_level_bijection,
    check_oracle_families,
    check_oracle_noncrossing,
    check_oracle_subspace_counts,
    check_roundtrip,
    check_shift_lemmas,
)


@contextlib.contextmanager
def reported(label, budget_s):
    t0 = time.monotonic()
    try:
        yield
        dt = time.monotonic() - t0
        assert dt < budget_s, f"{label}: took {dt:.1f}s, ceiling {budget_s}s"
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label} ({dt:.1f}s)")


def passes(check, dims):
    for D in dims:
        res = check(D)
        assert res.ok, res.counterexample


def test_cardinalities_to_d16():
    # every verify_counts row, the Narayana grades of both gradings included
    with reported("cardinalities D=2..16 equal closed forms", 120):
        for D in range(2, 17, 2):
            assert [r for r in verify_counts(D) if not r.passed] == []
        assert len(build_families(16).f0) == 24310


def test_reference_tables_exact():
    with reported("small tables equal the hand-written lists", 30):
        assert build_families(2).f0 == F0_V2
        assert build_families(2).f1 == F1_V2
        assert build_families(4).f0 == F0_V4
        assert build_families(4).f1 == F1_V4
        assert build_collection(2).members == C_V2
        assert build_collection(4).members == C_V4
        assert build_collection(6).members == C_V6
        assert frozenset(enumerate_noncrossing(2)) == Z_V2
        assert frozenset(enumerate_noncrossing(4)) == Z_V4
        assert frozenset(enumerate_noncrossing(6)) == Z_V6


def test_level_bijection_to_d12():
    with reported("level bijection exhaustive D<=12", 60):
        passes(check_level_bijection, range(2, 13, 2))


def test_arc_bijection_to_d14():
    # the Narayana grades are verify_counts rows, run by test_cardinalities_to_d16
    with reported("arc-span bijection with Narayana grades D<=14", 120):
        passes(check_arc_bijection, range(2, 15, 2))


def test_lagrangian_bijection_to_d14():
    with reported("Lagrangian correspondence exhaustive D<=14", 120):
        passes(check_lagrangian, range(2, 15, 2))


def test_slot_lemmas_and_roundtrips():
    with reported("slot shift lemmas, compatibility, round trips", 120):
        passes(check_shift_lemmas, range(4, 13, 2))
        passes(check_embedding_compat, range(2, 11, 2))
        passes(check_roundtrip, range(2, 13, 2))
        passes(check_inductive_closure, range(2, 13, 2))


def test_oracle_equivalence():
    # the line test marking more subspaces than the builders keep is pinned,
    # with frozen counts, by test_oracle::test_shape_counts_overshoot_families;
    # every check runs the same brute-force path as `catspan verify --oracle`
    with reported("oracle equivalence: enumeration and classification", 300):
        passes(check_oracle_noncrossing, range(2, 11, 2))
        passes(check_oracle_subspace_counts, range(2, 9, 2))
        passes(check_oracle_families, range(2, 9, 2))


def test_matcher_sanity():
    with reported("matcher: identity, GL(3,2) orbit, fingerprint invariance", 120):
        for d in range(1, 5):
            res = gl_match(
                SuppliedFamily(d, tuple(sorted(collection_as_plain(d), key=subspace_key)))
            )
            assert res.found
            assert res.witness == tuple(1 << k for k in range(d))
            assert res.tried == 1

        def apply_rows(rows, m):
            out = 0
            for r, row in enumerate(rows):
                out |= ((row & m).bit_count() & 1) << r
            return out

        def translate(rows, subgroups, d):
            return frozenset(
                span_masks((apply_rows(rows, r) for r in E.rows), d) for E in subgroups
            )

        plain3 = collection_as_plain(3)
        fp3 = fingerprint(plain3)
        gl3 = [
            [r1, r2, r3]
            for r1 in range(1, 8)
            for r2 in range(1, 8)
            for r3 in range(1, 8)
            if span_masks([r1, r2, r3], 3).dim == 3
        ]
        assert len(gl3) == 168
        for g in gl3:
            moved = translate(g, plain3, 3)
            assert fingerprint(moved) == fp3
            res = gl_match(SuppliedFamily(3, tuple(moved)))
            assert res.found, g
            assert translate(res.witness, moved, 3) == plain3

        plain2 = collection_as_plain(2)
        fp2 = fingerprint(plain2)
        gl2 = [
            [r1, r2]
            for r1 in range(1, 4)
            for r2 in range(1, 4)
            if span_masks([r1, r2], 2).dim == 2
        ]
        assert len(gl2) == 6
        for g in gl2:
            assert fingerprint(translate(g, plain2, 2)) == fp2
        assert fingerprint(translate([1], collection_as_plain(1), 1)) == fingerprint(
            collection_as_plain(1)
        )


def test_supplied_family_files():
    data_dir = Path(__file__).parent / "data" / "families"
    files = sorted(data_dir.glob("*.json")) if data_dir.is_dir() else []
    if not files:
        pytest.skip("no supplied subgroup family files to check")
    for path in files:
        fam = load_family(path)
        res = gl_match(fam)
        assert res.found, f"{path.name}: {res.reason}"
        print(f"PASS supplied family {path.name} (tried={res.tried})")
