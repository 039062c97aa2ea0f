"""GL(d, 2) matching of supplied subgroup families against the collection."""

import itertools
import json
import random

import pytest

from catspan.conjecture import (
    MAX_RANK,
    SuppliedFamily,
    collection_as_plain,
    fingerprint,
    gl_match,
    load_family,
)
from catspan.counting import catalan
from catspan.gf2 import mask_to_string, span_masks, subspace_key
from catspan.oracle import all_subspaces


def apply_matrix(rows, m):
    out = 0
    for r, row in enumerate(rows):
        out |= ((row & m).bit_count() & 1) << r
    return out


def translate(rows, subgroups, d):
    return frozenset(
        span_masks((apply_matrix(rows, r) for r in E.rows), d) for E in subgroups
    )


def random_invertible(rng, d):
    while True:
        rows = [rng.randrange(1, 1 << d) for _ in range(d)]
        if span_masks(rows, d).dim == d:
            return rows


def family_of(subgroups, d):
    return SuppliedFamily(d, tuple(sorted(subgroups, key=subspace_key)))


def test_collection_as_plain_sizes():
    for d in range(1, 5):
        plain = collection_as_plain(d)
        assert len(plain) == catalan(d + 1)
    # at rank 2 the collection is the full subgroup lattice
    assert collection_as_plain(2) == frozenset(all_subspaces(2))


def test_identity_match():
    for d in range(1, 5):
        res = gl_match(family_of(collection_as_plain(d), d))
        assert res.found
        assert res.witness == tuple(1 << k for k in range(d))
        assert res.tried == 1
        assert res.reason is None
    assert gl_match(family_of(collection_as_plain(3), 3)).to_json(3)["witness"] == [
        "100",
        "010",
        "001",
    ]


def test_match_result_json():
    res = gl_match(family_of(collection_as_plain(2), 2))
    obj = res.to_json(2)
    assert obj == {"found": True, "witness": ["10", "01"], "tried": 1}


def test_rank2_swap_translate_is_the_same_family():
    # swapping the two coordinates fixes the rank-2 collection pointwise, so
    # the least witness is the identity, not the swap
    swap = [0b10, 0b01]
    plain = collection_as_plain(2)
    assert translate(swap, plain, 2) == plain
    res = gl_match(family_of(plain, 2))
    assert res.found and res.witness == (1, 2)


def test_rank3_swap_translate():
    swap12 = [0b010, 0b001, 0b100]
    plain = collection_as_plain(3)
    moved = translate(swap12, plain, 3)
    assert moved != plain
    res = gl_match(family_of(moved, 3))
    assert res.found
    assert res.witness == (2, 1, 4)
    assert res.to_json(3)["witness"] == ["010", "100", "001"]
    assert res.tried == 1
    assert translate(res.witness, moved, 3) == plain


def test_random_translates_match():
    rng = random.Random(2026)
    for d in (3, 4):
        plain = collection_as_plain(d)
        for _ in range(12):
            g = random_invertible(rng, d)
            moved = translate(g, plain, d)
            res = gl_match(family_of(moved, d))
            assert res.found, g
            assert translate(res.witness, moved, d) == plain


def test_rank5_identity_and_translate():
    plain = collection_as_plain(5)
    res = gl_match(family_of(plain, 5))
    assert res.found and res.tried == 1
    assert res.witness == (1, 2, 4, 8, 16)
    g = [0b01011, 0b11111, 0b00101, 0b01101, 0b10101]
    assert span_masks(g, 5).dim == 5
    moved = translate(g, plain, 5)
    res = gl_match(family_of(moved, 5))
    assert res.found
    assert translate(res.witness, moved, 5) == plain


def test_rank_cap():
    with pytest.raises(ValueError):
        gl_match(SuppliedFamily(6, ()))
    assert MAX_RANK == 5


def test_fingerprint_invariance_rank2_exhaustive():
    plain = collection_as_plain(2)
    fp = fingerprint(plain)
    count = 0
    for rows in itertools.permutations((1, 2, 3), 2):
        if span_masks(rows, 2).dim == 2:
            count += 1
            assert fingerprint(translate(list(rows), plain, 2)) == fp
    assert count == 6


def test_size_mismatch_rejected():
    plain = sorted(collection_as_plain(3), key=subspace_key)
    res = gl_match(family_of(plain[:-1], 3))
    assert not res.found
    assert res.tried == 0
    assert res.reason.startswith("size")
    assert res.to_json(3) == {"found": False, "witness": None, "tried": 0}


def test_fingerprint_mismatch_rejected():
    # same dimension multiset as the rank-3 collection, but the omitted line
    # does not lie on the omitted plane, which the containment profile sees
    lines = [span_masks([m], 3) for m in range(1, 8)]
    planes = sorted(
        {span_masks(list(pair), 3) for pair in itertools.combinations(range(1, 8), 2)},
        key=subspace_key,
    )
    skip_line = span_masks([0b111], 3)
    skip_plane = span_masks([0b011, 0b110], 3)
    assert not skip_plane.contains_subspace(skip_line)
    fam = (
        [span_masks([], 3), span_masks([1, 2, 4], 3)]
        + [L for L in lines if L != skip_line]
        + [P for P in planes if P != skip_plane]
    )
    assert len(fam) == 14
    res = gl_match(family_of(fam, 3))
    assert not res.found
    assert res.tried == 0
    assert res.reason == "fingerprint mismatch"


def test_rank3_lattice_style_families():
    # every 14-member family of shape {0, six lines, six planes, full} whose
    # fingerprint agrees with the collection is a genuine GL-translate, and
    # the fingerprint agrees exactly when the omitted line lies on the
    # omitted plane
    target = collection_as_plain(3)
    fp = fingerprint(target)
    zero, full = span_masks([], 3), span_masks([1, 2, 4], 3)
    lines = [span_masks([m], 3) for m in range(1, 8)]
    planes = sorted(
        {span_masks(list(pair), 3) for pair in itertools.combinations(range(1, 8), 2)},
        key=subspace_key,
    )
    assert len(planes) == 7
    matching = 0
    for skip_line in lines:
        for skip_plane in planes:
            fam = (
                [zero, full]
                + [L for L in lines if L != skip_line]
                + [P for P in planes if P != skip_plane]
            )
            agrees = fingerprint(frozenset(fam)) == fp
            assert agrees == skip_plane.contains_subspace(skip_line)
            if agrees:
                matching += 1
                assert gl_match(family_of(fam, 3)).found
    assert matching == 21


def test_load_family_roundtrip(tmp_path):
    plain = collection_as_plain(2)
    payload = {
        "d": 2,
        "subgroups": [
            [mask_to_string(r, 2) for r in E.rows] for E in plain
        ],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    fam = load_family(path)
    assert fam.d == 2
    assert frozenset(fam.subgroups) == plain
    assert list(fam.subgroups) == sorted(fam.subgroups, key=subspace_key)
    assert gl_match(fam).found


def test_load_family_validation(tmp_path):
    def write(obj):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return path

    with pytest.raises(ValueError):
        load_family(write([1, 2, 3]))
    with pytest.raises(ValueError):
        load_family(write({"d": 2}))
    with pytest.raises(ValueError):
        load_family(write({"d": 0, "subgroups": []}))
    with pytest.raises(ValueError):
        load_family(write({"d": "2", "subgroups": []}))
    with pytest.raises(ValueError):
        load_family(write({"d": 2, "subgroups": [["101"]]}))
    with pytest.raises(ValueError):
        load_family(write({"d": 2, "subgroups": [["1x"]]}))
    with pytest.raises(ValueError):
        load_family(write({"d": 2, "subgroups": [["10"], ["10"]]}))
    with pytest.raises(ValueError):
        load_family(write({"d": 2, "subgroups": [["10", "01"], ["01", "11"]]}))
