"""Full verification matrix at its widest advertised scale.

Each test here covers one headline guarantee end to end, prints a single
PASS or FAIL line for it (visible with -s, and mirrored by the -v test
status), and enforces the advertised wall-clock ceiling.  The unit modules
cover the same ground at small sizes with finer-grained assertions; this
module is the gate.
"""

import contextlib
import math
import time
from collections import Counter
from pathlib import Path

import pytest

from _fixtures import C_V2, C_V4, C_V6, F0_V2, F0_V4, F1_V2, F1_V4, Z_V2, Z_V4, Z_V6, isotropic
from catspan.conjecture import (
    SuppliedFamily,
    collection_as_plain,
    fingerprint,
    gl_match,
    load_family,
)
from catspan.counting import catalan, narayana
from catspan.families import build_families, classify_by_lines, level_down, level_up
from catspan.gf2 import is_isotropic, span_masks, subspace_key, subspace_sum
from catspan.noncrossing import (
    Arc,
    arcs_of,
    build_collection,
    decompose,
    enumerate_noncrossing,
    extend_seq,
    from_lagrangian,
    is_noncrossing,
    seq_key,
    shift_arc,
    span_arcs,
    to_lagrangian,
)
from catspan.oracle import noncrossing_direct


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


def test_cardinalities_to_d16():
    with reported("cardinalities D=2..16 equal closed forms", 120):
        for D in range(2, 17, 2):
            d = D // 2
            table = build_families(D)
            assert len(table.f0) == math.comb(D + 1, d)
            assert len(table.f1) == math.comb(D + 1, d - 1)
            assert len(table.f0_lagrangian) == catalan(d + 1)
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
        for D in range(2, 13, 2):
            table = build_families(D)
            images = {}
            for E in table.f1:
                kind, marked = classify_by_lines(E)
                assert kind == "f1" and marked.parity == 0
                assert marked.a % 2 == 1 and marked.b % 2 == 0
                E0 = level_down(E)
                assert E0 in table.f0_sub
                assert E0.dim + 1 == E.dim
                assert subspace_sum(E0, span_masks([marked.mask()], D)) == E
                assert E0 not in images
                images[E0] = E
                assert level_up(E0) == E
            assert set(images) == set(table.f0_sub)


def test_arc_bijection_to_d14():
    with reported("arc-span bijection with Narayana grades D<=14", 120):
        for D in range(2, 15, 2):
            d = D // 2
            coll = build_collection(D)
            seqs = enumerate_noncrossing(D)
            seen = {}
            for s in seqs:
                E = span_arcs(s, D)
                assert E.dim == len(s)
                assert E in coll.members
                assert E not in seen
                seen[E] = s
                assert arcs_of(E) == s
            assert set(seen) == set(coll.members)
            grade_counts = Counter(len(s) for s in seqs)
            for s in range(d + 1):
                assert grade_counts[s] == narayana(d + 1, s + 1)
                assert len(coll.grade(s)) == narayana(d + 1, s + 1)
            assert sum(grade_counts.values()) == catalan(d + 1)


def test_lagrangian_bijection_to_d14():
    with reported("Lagrangian correspondence exhaustive D<=14", 120):
        for D in range(2, 15, 2):
            coll = build_collection(D)
            lag = build_families(D).f0_lagrangian
            images = set()
            for E in coll.members:
                L = to_lagrangian(E)
                assert L in lag
                assert from_lagrangian(L) == E
                images.add(L)
            assert images == set(lag)


def test_slot_lemmas_and_roundtrips():
    with reported("slot shift lemmas, compatibility, round trips", 120):
        # arc shifts: injective, unit-arc compatible, pair-preserving, D<=12
        for D in range(4, 13, 2):
            arcs = [Arc(a, b) for a in range(1, D - 2, 2) for b in range(a, D - 2, 2)]
            for i in range(1, D + 1):
                images = [shift_arc(i, x, D) for x in arcs]
                assert len(set(images)) == len(images)
                if i % 2:
                    assert all(is_noncrossing([y, Arc(i, i)]) for y in images)
                for k, x1 in enumerate(arcs):
                    for x2 in arcs[k + 1 :]:
                        if is_noncrossing([x1, x2]):
                            assert is_noncrossing(
                                [shift_arc(i, x1, D), shift_arc(i, x2, D)]
                            )
        # spanning commutes with slot extension, D<=10
        from catspan.slots import embed

        for D in range(2, 11, 2):
            for s in enumerate_noncrossing(D - 2):
                inner = span_arcs(s, D - 2)
                for i in range(1, D + 1):
                    rows = [embed(i, r, 0b101) for r in inner.rows]
                    if i % 2:
                        rows.append(1 << (i - 1))
                    assert span_masks(rows, D) == span_arcs(extend_seq(i, s, D), D)
        # extending a decomposition is the identity on every nonempty set,
        # and decomposing an extension always re-extends to that extension,
        # D<=12 both ways
        for D in range(2, 13, 2):
            for s in enumerate_noncrossing(D):
                if len(s):
                    i, smaller = decompose(s, D)
                    assert extend_seq(i, smaller, D) == s
            for s in enumerate_noncrossing(D - 2):
                for i in range(1, D + 1):
                    image = extend_seq(i, s, D)
                    if not len(image):
                        continue
                    j, rest = decompose(image, D)
                    assert extend_seq(j, rest, D) == image
        # inductive closure: slot extensions generate exactly the
        # enumerated noncrossing sets, D<=12
        generated = {enumerate_noncrossing(0)[0]}
        for D in range(2, 13, 2):
            generated = {enumerate_noncrossing(0)[0]} | {
                extend_seq(i, s, D) for s in generated for i in range(1, D + 1)
            }
            assert generated == set(enumerate_noncrossing(D))


def test_oracle_equivalence():
    with reported("oracle equivalence: enumeration and classification", 300):
        for D in range(2, 11, 2):
            assert noncrossing_direct(D) == sorted(enumerate_noncrossing(D), key=seq_key)
        for D in range(2, 9, 2):
            table = build_families(D)
            iso = set(isotropic(D))
            fam = table.f0 | table.f1
            assert fam <= iso
            for E in fam:
                kind, _ = classify_by_lines(E)
                assert kind == ("f0" if E in table.f0 else "f1")
            # the line test alone is not membership: it marks strictly more
            # isotropic subspaces than the builders produce
            shaped = sum(1 for E in iso if classify_by_lines(E)[0] == "f0")
            assert shaped > len(table.f0) or D == 2


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
