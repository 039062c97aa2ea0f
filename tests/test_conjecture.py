"""GL(d, 2) matching of supplied subgroup families against the collection."""

import itertools
import json
import random

import pytest
from _fixtures import fingerprint_by_containment

from catspan import conjecture
from catspan.conjecture import (
    MAX_RANK,
    SuppliedFamily,
    collection_as_plain,
    fingerprint,
    gl_match,
    load_family,
)
from catspan.counting import catalan
from catspan.gf2 import Subspace, mask_to_string, span_masks, subspace_key
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


def seeded_translates(d, seed, count=10):
    rng = random.Random(seed)
    plain = collection_as_plain(d)
    return [translate(random_invertible(rng, d), plain, d) for _ in range(count)]


def altered_families(seed, count=10):
    """Rank-5 translates with one proper member swapped for a subspace of the
    same dimension outside the family, every fifth one dropped instead."""
    d = 5
    rng = random.Random(seed)
    plain = collection_as_plain(d)
    spaces = sorted(all_subspaces(d), key=subspace_key)
    out = []
    for k in range(count):
        moved = sorted(translate(random_invertible(rng, d), plain, d), key=subspace_key)
        j = rng.randrange(1, len(moved) - 1)
        if k % 5 == 4:
            del moved[j]
        else:
            moved[j] = rng.choice([S for S in spaces if S.dim == moved[j].dim and S not in moved])
        out.append(moved)
    return out


def test_fingerprint_equals_containment_reference():
    spaces = all_subspaces(3)
    for size in range(4):
        for fam in itertools.product(spaces, repeat=size):
            assert fingerprint(fam) == fingerprint_by_containment(fam), fam
    rng = random.Random(25)
    for d in (4, 5):
        spaces = all_subspaces(d)
        for _ in range(40):
            fam = rng.choices(spaces, k=rng.randrange(1, 30))
            fam += rng.choices(fam, k=rng.randrange(1, 6))
            assert fingerprint(fam) == fingerprint_by_containment(fam)
    for d in range(1, 6):
        for moved in seeded_translates(d, 300 + d, 3):
            assert fingerprint(moved) == fingerprint_by_containment(moved)
    for fam in altered_families(305, 5):
        assert fingerprint(fam) == fingerprint_by_containment(fam)


def test_fingerprint_mixed_dimensions_raise_the_same_error():
    cases = [
        [span_masks([1], 3), span_masks([1], 4)],
        [span_masks([], 2), span_masks([1], 2), span_masks([3], 4), span_masks([], 5)],
        [span_masks([1, 2], 4), span_masks([1, 2], 4), span_masks([1], 3)],
    ]
    for fam in cases:
        with pytest.raises(ValueError) as want:
            fingerprint_by_containment(fam)
        with pytest.raises(ValueError) as got:
            fingerprint(fam)
        assert str(got.value) == str(want.value)


def test_fingerprint_makes_no_containment_call(monkeypatch):
    def refuse(self, other):
        raise AssertionError("contains_subspace called")

    monkeypatch.setattr(Subspace, "contains_subspace", refuse)
    plain = collection_as_plain(5)
    assert fingerprint(plain)[0] == tuple(sorted(E.dim for E in plain))
    with pytest.raises(ValueError, match="dimension mismatch: 5 vs 4"):
        fingerprint([span_masks([1], 5), span_masks([1], 4)])


# (found, witness, tried, reason) of gl_match, recorded from the matcher that
# built every leaf's whole image set before comparing it with the target
PINNED_TRANSLATES = {
    3: [
        (True, (2, 1, 5), 2, None), (True, (2, 1, 5), 2, None), (True, (1, 5, 6), 4, None),
        (True, (2, 1, 5), 2, None), (True, (1, 2, 4), 1, None), (True, (1, 5, 6), 4, None),
        (True, (1, 2, 7), 2, None), (True, (1, 2, 7), 2, None), (True, (4, 1, 6), 1, None),
        (True, (2, 6, 5), 4, None),
    ],
    4: [
        (True, (1, 10, 4, 12), 10, None), (True, (6, 10, 5, 8), 9, None),
        (True, (1, 6, 15, 11), 12, None), (True, (5, 11, 4, 9), 15, None),
        (True, (1, 2, 14, 4), 5, None), (True, (4, 3, 5, 8), 7, None),
        (True, (1, 9, 4, 15), 4, None), (True, (2, 1, 15, 5), 5, None),
        (True, (3, 11, 2, 14), 8, None), (True, (4, 8, 2, 13), 1, None),
    ],
    5: [
        (True, (2, 6, 11, 26, 25), 36, None), (True, (10, 7, 9, 2, 25), 49, None),
        (True, (2, 10, 1, 25, 21), 30, None), (True, (10, 4, 23, 28, 13), 47, None),
        (True, (3, 8, 20, 6, 30), 8, None), (True, (5, 16, 4, 23, 26), 34, None),
        (True, (5, 13, 18, 30, 20), 42, None), (True, (1, 14, 6, 31, 19), 60, None),
        (True, (1, 4, 12, 7, 22), 2, None), (True, (7, 8, 18, 9, 31), 4, None),
    ],
}

PINNED_ALTERED = [(False, None, 0, "fingerprint mismatch")] * 4 + [(False, None, 0, "size 131 != 132")]
PINNED_ALTERED *= 2


def test_pinned_translate_matches():
    for d, want in PINNED_TRANSLATES.items():
        plain = collection_as_plain(d)
        for moved, pinned in zip(seeded_translates(d, 100 + d), want, strict=True):
            res = gl_match(family_of(moved, d))
            assert tuple(res) == pinned
            assert translate(res.witness, moved, d) == plain


def test_pinned_altered_mismatches():
    for fam, pinned in zip(altered_families(205), PINNED_ALTERED, strict=True):
        assert tuple(gl_match(family_of(fam, 5))) == pinned


def test_found_match_stops_leaves_at_the_first_miss(monkeypatch):
    # the leaves are gl_match's only span_masks calls once the target is fixed
    plain = collection_as_plain(5)
    moved = translate([0b01011, 0b11111, 0b00101, 0b01101, 0b10101], plain, 5)
    calls = 0

    def counting(masks, n):
        nonlocal calls
        calls += 1
        return span_masks(masks, n)

    monkeypatch.setattr(conjecture, "collection_as_plain", lambda d: plain)
    monkeypatch.setattr(conjecture, "span_masks", counting)
    res = gl_match(family_of(moved, 5))
    assert res.found and res.tried == 8
    # the found leaf maps every member, each of the seven before it stops early
    assert len(moved) + 7 <= calls < len(moved) * res.tried
