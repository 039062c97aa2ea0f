"""Core GF(2) linear algebra: mask vectors, the form, canonical subspaces."""

import random

import pytest

from _fixtures import members
from catspan import noncrossing, oracle, slots
from catspan.gf2 import (
    Subspace,
    form_masks,
    is_isotropic,
    mask_to_string,
    odd_support,
    span_masks,
    string_to_mask,
    subspace_key,
)
from catspan.oracle import all_subspaces


def test_bitstring_examples():
    assert mask_to_string(0b0101, 4) == "1010"
    assert mask_to_string(0, 3) == "000"
    assert string_to_mask("1010") == 0b0101
    assert string_to_mask("") == 0
    with pytest.raises(ValueError):
        string_to_mask("10x1")


def test_bitstring_roundtrip_random():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(0, 20)
        m = rng.randrange(1 << n) if n else 0
        s = mask_to_string(m, n)
        assert len(s) == n
        assert string_to_mask(s) == m


def test_mask_to_string_matches_per_bit_definition():
    # character k is bit k of the mask; bits at n and above are dropped
    rng = random.Random(5)
    assert mask_to_string(0, 0) == ""
    for n in range(21):
        for m in [0, (1 << n) - 1, 1 << n, (1 << (n + 6)) - 1] + [
            rng.randrange(1 << (n + 6)) for _ in range(20)
        ]:
            want = "".join("1" if (m >> k) & 1 else "0" for k in range(n))
            assert mask_to_string(m, n) == want, (m, n)


def test_form_neighbour_table():
    n = 8
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            got = form_masks(1 << (i - 1), 1 << (j - 1))
            assert got == (1 if abs(i - j) == 1 else 0)


def test_form_bilinear_exhaustive_v4():
    for a in range(16):
        for b in range(16):
            for c in range(16):
                assert form_masks(a ^ b, c) == form_masks(a, c) ^ form_masks(b, c)
                assert form_masks(c, a ^ b) == form_masks(c, a) ^ form_masks(c, b)


def test_form_symmetric_and_alternating_v6():
    for a in range(64):
        assert form_masks(a, a) == 0
        for b in range(64):
            assert form_masks(a, b) == form_masks(b, a)


def test_form_bilinear_random_v12():
    rng = random.Random(3)
    for _ in range(2000):
        a, b, c = (rng.randrange(1 << 12) for _ in range(3))
        assert form_masks(a ^ b, c) == form_masks(a, c) ^ form_masks(b, c)


def form_by_definition(a, b):
    """sum_i (a_i*b_{i+1} + a_{i+1}*b_i) mod 2, bit by bit."""
    bit = lambda m, i: m >> i & 1
    width = max(a.bit_length(), b.bit_length())
    return sum(bit(a, i) * bit(b, i + 1) + bit(a, i + 1) * bit(b, i) for i in range(width)) % 2


def test_form_equals_its_defining_sum():
    for a in range(64):
        for b in range(64):
            assert form_masks(a, b) == form_by_definition(a, b), (a, b)
    rng = random.Random(34)
    for _ in range(1000):
        a, b = (rng.getrandbits(rng.randrange(1, 257)) for _ in range(2))
        assert form_masks(a, b) == form_by_definition(a, b), (a, b)


def test_form_nondegenerate_through_v8():
    for n in (2, 4, 6, 8):
        for x in range(1, 1 << n):
            assert any(form_masks(x, 1 << k) for k in range(n)), (n, x)


def test_span_canonical_under_row_operations():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 9)
        masks = [rng.randrange(1 << n) for _ in range(rng.randrange(0, 5))]
        E = span_masks(masks, n)
        # recombine generators: shuffles and row additions cannot move the span
        mixed = list(masks)
        rng.shuffle(mixed)
        for _ in range(5):
            if len(mixed) >= 2:
                i, j = rng.sample(range(len(mixed)), 2)
                mixed[i] ^= mixed[j]
        assert span_masks(mixed, n) == E
        assert span_masks(E.rows, n) == E


def test_rref_pivot_structure():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randrange(1, 10)
        E = span_masks([rng.randrange(1 << n) for _ in range(4)], n)
        pivots = [r & -r for r in E.rows]
        assert pivots == sorted(pivots)
        assert len(set(pivots)) == len(pivots)
        for k, r in enumerate(E.rows):
            for j, other in enumerate(E.rows):
                if j != k:
                    assert other & pivots[k] == 0


def test_membership_matches_member_masks():
    rng = random.Random(41)
    for _ in range(100):
        n = 6
        E = span_masks([rng.randrange(1 << n) for _ in range(3)], n)
        inside = set(members(E))
        assert len(inside) == 1 << E.dim
        for x in range(1 << n):
            assert (x in E) == (x in inside)


def test_span_input_validation():
    with pytest.raises(ValueError):
        span_masks([0b100], 2)


@pytest.mark.parametrize(
    "masks",
    [[0b10001, 0b10], [0b10, 0b10101, 0b1000], [0b1, 0b100000]],
    ids=["first", "middle", "last"],
)
def test_a_too_wide_row_in_any_position_is_refused(masks):
    # the rows sort by lowest set bit, so the wide row need not be the last one
    with pytest.raises(ValueError, match=r"^vector does not fit in V_4$"):
        span_masks(masks, 4)


def test_subspace_predicates():
    E = span_masks([0b0111, 0b0100], 4)
    assert string_to_mask("1100") in E
    assert string_to_mask("1000") not in E
    assert string_to_mask("0010") in E
    assert 0 in E
    # a mask wider than V_4 leaves a residue, so it is not a member
    assert 1 << 4 not in E
    assert 0b10011 not in E
    assert E.contains_subspace(span_masks([0b0100], 4))
    assert not E.contains_subspace(span_masks([0b1000], 4))
    assert E == span_masks([0b0011, 0b0100], 4)
    with pytest.raises(ValueError):
        E.contains_subspace(span_masks([1], 6))


def test_contains_subspace_is_row_membership():
    spaces = all_subspaces(4)
    for E in spaces:
        for F in spaces:
            assert E.contains_subspace(F) == all(r in E for r in F.rows), (E, F)


def test_is_isotropic_examples_and_oracle():
    assert is_isotropic(Subspace(4, ()))
    assert is_isotropic(span_masks([0b0001, 0b0100], 4))
    assert not is_isotropic(span_masks([0b0001, 0b0010], 4))
    with pytest.raises(ValueError):
        is_isotropic(span_masks([1], 3))
    for n in (2, 4, 6):
        for E in all_subspaces(n):
            xs = members(E)
            want = all(form_masks(x, y) == 0 for x in xs for y in xs)
            assert is_isotropic(E) == want, E


def test_subspace_serialization():
    E = span_masks([0b0111, 0b0100], 4)
    obj = E.to_json()
    assert obj["D"] == 4
    assert Subspace.from_json(obj) == E
    assert Subspace.from_json({"D": 0, "basis": []}) == Subspace(0, ())
    with pytest.raises(ValueError):
        Subspace.from_json({"D": 4, "basis": ["101"]})
    with pytest.raises(ValueError):
        Subspace.from_json({"D": -2, "basis": []})
    with pytest.raises(ValueError):
        Subspace.from_json({"D": 4, "basis": 5})
    with pytest.raises(ValueError):
        Subspace.from_json({"basis": []})
    with pytest.raises(ValueError):
        Subspace.from_json([])
    with pytest.raises(ValueError):
        Subspace.from_json({"D": 2, "basis": [3]})
    with pytest.raises(ValueError):
        Subspace.from_json({"D": True, "basis": ["1"]})


def test_subspace_key_is_injective():
    subs = all_subspaces(4)
    keys = {subspace_key(E) for E in subs}
    assert len(keys) == len(subs)
    ordered = sorted(subs, key=subspace_key)
    assert ordered[0] == Subspace(4, ())
    assert [E.dim for E in ordered] == sorted(E.dim for E in subs)


def test_symplectic_space_parts():
    n = 6
    odd = span_masks((1 << k for k in range(0, n, 2)), n)
    even = span_masks((1 << k for k in range(1, n, 2)), n)
    assert odd_support(n).bit_count() == n // 2
    assert odd_support(n) == 0b010101
    assert odd_support(n) << 1 == 0b101010
    assert odd.dim == 3
    assert even.dim == 3
    assert span_masks(odd.rows + even.rows, n).dim == n
    assert 1 << 2 & odd_support(n)
    assert form_masks(1 << 1, 1 << 2) == 1
    assert is_isotropic(odd)
    assert is_isotropic(even)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: next(slots.members(slots.F0, n)),
        lambda n: slots.peel(Subspace(n, ()), slots.F0),
        noncrossing.enumerate_noncrossing,
        lambda n: noncrossing.span_arcs(noncrossing.ArcSequence(), n),
        oracle.noncrossing_direct,
    ],
    ids=["members", "peel", "enumerate_noncrossing", "span_arcs", "noncrossing_direct"],
)
def test_an_odd_or_negative_dimension_is_refused_in_one_text(call):
    for n in (-2, 3):
        with pytest.raises(ValueError) as err:
            call(n)
        assert str(err.value) == f"ambient dimension must be even and >= 0, got {n}"
