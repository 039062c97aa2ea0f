"""Noncrossing arc sets, slot shifts, and the odd-part collection."""

import pytest

from _fixtures import C_V2, C_V4, C_V6, Z_V2, Z_V4, Z_V6, embed, seq, sub
from catspan.counting import catalan, narayana
from catspan.gf2 import Subspace, form_masks, is_isotropic, mask_to_string, odd_support, span_masks
from catspan.noncrossing import (
    Arc,
    ArcSequence,
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


def test_arc_basics():
    assert Arc(1, 1).mask() == 0b1
    assert Arc(1, 3).mask() == 0b101
    assert Arc(3, 5).mask() == 0b10100
    assert Arc(1, 5).mask() == 0b10101
    assert mask_to_string(Arc(1, 3).mask(), 4) == "1010"
    with pytest.raises(ValueError):
        Arc(2, 3)
    with pytest.raises(ValueError):
        Arc(1, 4)
    with pytest.raises(ValueError):
        Arc(3, 1)


def test_noncrossing_predicate():
    assert is_noncrossing([Arc(1, 1), Arc(3, 3)])
    assert is_noncrossing([Arc(1, 5), Arc(3, 3)])
    assert is_noncrossing([])
    assert not is_noncrossing([Arc(1, 3), Arc(3, 3)])
    assert not is_noncrossing([Arc(1, 3), Arc(3, 5)])
    assert not is_noncrossing([Arc(1, 1), Arc(1, 1)])


def test_arc_sequence_construction():
    s = ArcSequence.of([Arc(5, 5), Arc(1, 3)])
    assert s.arcs == (Arc(1, 3), Arc(5, 5))
    assert len(s) == 2
    assert Arc(1, 3) in s and Arc(3, 3) not in s
    assert list(s) == [Arc(1, 3), Arc(5, 5)]
    assert set(seq((1, 3))) <= set(s)
    assert not set(s) <= set(seq((1, 3)))
    with pytest.raises(ValueError):
        ArcSequence((Arc(5, 5), Arc(1, 3)))
    with pytest.raises(ValueError):
        ArcSequence.of([Arc(1, 1), Arc(1, 1)])
    with pytest.raises(ValueError):
        ArcSequence.of([Arc(1, 3), Arc(3, 5)])


def test_arc_sequence_json_roundtrip():
    s = seq((1, 3), (5, 5))
    assert s.to_json() == [[1, 3], [5, 5]]
    assert ArcSequence.from_json([[5, 5], [1, 3]]) == s
    assert ArcSequence.from_json([]) == ArcSequence()


def test_enumeration_matches_reference_lists():
    assert frozenset(enumerate_noncrossing(2)) == Z_V2
    assert frozenset(enumerate_noncrossing(4)) == Z_V4
    assert frozenset(enumerate_noncrossing(6)) == Z_V6


def test_enumeration_counts_and_grades():
    for D in range(2, 13, 2):
        seqs = enumerate_noncrossing(D)
        d = D // 2
        assert len(seqs) == catalan(d + 1)
        assert len(set(seqs)) == len(seqs)
        assert list(seqs) == sorted(seqs, key=seq_key)
        for s in range(d + 1):
            assert sum(1 for x in seqs if len(x) == s) == narayana(d + 1, s + 1)
    with pytest.raises(ValueError):
        enumerate_noncrossing(5)


def test_shift_arc_rules():
    assert shift_arc(2, Arc(1, 1), 4) == Arc(1, 3)
    assert shift_arc(1, Arc(1, 3), 6) == Arc(3, 5)
    assert shift_arc(4, Arc(1, 3), 6) == Arc(1, 5)
    assert shift_arc(6, Arc(1, 3), 6) == Arc(1, 3)
    with pytest.raises(ValueError):
        shift_arc(0, Arc(1, 1), 4)
    with pytest.raises(ValueError):
        shift_arc(7, Arc(1, 1), 6)
    with pytest.raises(ValueError):
        shift_arc(1, Arc(1, 5), 6)


def test_shift_arc_properties_exhaustive():
    for D in (4, 6, 8):
        arcs = [Arc(a, b) for a in range(1, D - 2, 2) for b in range(a, D - 2, 2)]
        for i in range(1, D + 1):
            images = [shift_arc(i, x, D) for x in arcs]
            assert len(set(images)) == len(images)
            for y in images:
                assert y.b <= D - 1
                if i % 2:
                    assert is_noncrossing([y, Arc(i, i)])
            for j1, x1 in enumerate(arcs):
                for x2 in arcs[j1 + 1 :]:
                    if is_noncrossing([x1, x2]):
                        assert is_noncrossing([shift_arc(i, x1, D), shift_arc(i, x2, D)])


def test_extend_seq_examples():
    assert extend_seq(1, ArcSequence(), 2) == seq((1, 1))
    assert extend_seq(2, seq((1, 1)), 4) == seq((1, 3))
    assert extend_seq(3, seq((1, 1)), 4) == seq((1, 1), (3, 3))
    assert extend_seq(5, seq((1, 3)), 6) == seq((1, 3), (5, 5))


@pytest.mark.parametrize("i", [0, 5])
@pytest.mark.parametrize("arcs", [(), ((1, 1),)])
def test_extend_seq_rejects_a_slot_outside_v_n(i, arcs):
    # the empty sequence has no arc to shift, so the slot check cannot rest on shift_arc
    with pytest.raises(ValueError, match=rf"^slot {i} outside \[1, 4\]$"):
        extend_seq(i, seq(*arcs), 4)


def test_extend_seq_closure_exhaustive():
    for D in (4, 6, 8):
        inner = enumerate_noncrossing(D - 2)
        outer = set(enumerate_noncrossing(D))
        for s in inner:
            for i in range(1, D + 1):
                image = extend_seq(i, s, D)
                assert image in outer
                assert len(image) == len(s) + (i % 2)


def test_decompose_examples():
    assert decompose(seq((1, 3)), 4) == (2, seq((1, 1)))
    assert decompose(seq((1, 1), (3, 3)), 4) == (1, seq((1, 1)))
    assert decompose(seq((1, 1)), 2) == (1, ArcSequence())
    with pytest.raises(ValueError):
        decompose(ArcSequence(), 4)
    with pytest.raises(ValueError):
        decompose(seq((5, 5)), 4)


def test_decompose_is_a_section_not_an_inverse():
    # re-extending the decomposition always recovers the sequence, but the
    # recovered slot need not be the one used to build it
    built = extend_seq(3, seq((1, 1)), 4)
    i, rest = decompose(built, 4)
    assert (i, rest) == (1, seq((1, 1)))
    assert extend_seq(i, rest, 4) == built


def test_decompose_roundtrip_exhaustive():
    for D in (2, 4, 6, 8, 10):
        for s in enumerate_noncrossing(D):
            if not len(s):
                continue
            i, smaller = decompose(s, D)
            assert 1 <= i <= D
            assert extend_seq(i, smaller, D) == s


def test_embed_odd_examples():
    e1, e3, e5 = (1 << (i - 1) for i in (1, 3, 5))
    assert embed(1, e1, 0b101) == e3
    assert embed(2, e1, 0b101) == e1 | e3
    assert embed(3, e1, 0b101) == e1
    assert embed(4, e3, 0b101) == e3 | e5


def test_embed_odd_linear_and_injective():
    odd_masks = [0b000, 0b001, 0b100, 0b101]
    for i in range(1, 7):
        images = [embed(i, m, 0b101) for m in odd_masks]
        assert len(set(images)) == len(images)
        assert not any(img & ~odd_support(6) for img in images)
        for a in odd_masks:
            for b in odd_masks:
                assert embed(i, a ^ b, 0b101) == embed(i, a, 0b101) ^ embed(i, b, 0b101)


def test_collection_matches_reference_lists():
    assert build_collection(2).members == C_V2
    assert build_collection(4).members == C_V4
    assert build_collection(6).members == C_V6


def test_collection_counts_and_grades():
    for D in range(2, 13, 2):
        coll = build_collection(D)
        d = D // 2
        assert len(coll.members) == catalan(d + 1)
        odd_support = ((1 << D) - 1) // 3
        for E in coll.members:
            assert all(r & ~odd_support == 0 for r in E.rows)
        for s in range(d + 1):
            assert sum(1 for E in coll.members if E.dim == s) == narayana(d + 1, s + 1)
    with pytest.raises(ValueError):
        build_collection(3)


def test_span_arcs_examples():
    assert span_arcs(seq((1, 3)), 4) == sub(4, (1, 3))
    assert span_arcs(ArcSequence(), 4) == Subspace(4, ())
    with pytest.raises(ValueError):
        span_arcs(seq((3, 5)), 4)
    with pytest.raises(ValueError):
        span_arcs(ArcSequence(), 3)


def test_arc_span_bijection_exhaustive():
    for D in (2, 4, 6, 8, 10):
        coll = build_collection(D)
        seen = {}
        for s in enumerate_noncrossing(D):
            E = span_arcs(s, D)
            assert E.dim == len(s)
            assert is_isotropic(E)
            assert E in coll.members
            assert E not in seen
            seen[E] = s
            assert arcs_of(E) == s
        assert set(seen) == set(coll.members)


def test_arcs_of_rejects_non_members():
    with pytest.raises(ValueError):
        arcs_of(sub(6, (1, 5)))
    with pytest.raises(ValueError):
        arcs_of(sub(4, (2,)))


def test_lagrangian_correspondence_examples():
    assert to_lagrangian(sub(2)) == sub(2, (2,))
    assert to_lagrangian(sub(4, (1,))) == sub(4, (1,), (4,))
    assert to_lagrangian(sub(4, (1,), (3,))) == sub(4, (1,), (3,))
    assert to_lagrangian(sub(6, (1, 3, 5), (3,))) == sub(6, (1, 5), (3,), (2, 4))
    assert to_lagrangian(sub(6)) == sub(6, (2,), (4,), (6,))
    assert from_lagrangian(sub(4, (1,), (4,))) == sub(4, (1,))
    with pytest.raises(ValueError):
        to_lagrangian(sub(6, (1, 5)))
    with pytest.raises(ValueError):
        to_lagrangian(sub(4, (2,)))


def test_to_lagrangian_adds_the_brute_force_annihilator():
    # the form pairs the odd and even parts perfectly, so the annihilator of
    # E in the even part has complementary dimension and E + ann is Lagrangian
    for D in range(0, 9, 2):
        evens = [x for x in range(1 << D) if not x & ~(odd_support(D) << 1)]
        assert len(evens) == 1 << (D // 2)
        for E in build_collection(D).members:
            ann = [x for x in evens if all(form_masks(x, r) == 0 for r in E.rows)]
            assert to_lagrangian(E) == span_masks(E.rows + tuple(ann), D)
            assert E.dim + span_masks(ann, D).dim == D // 2


def test_from_lagrangian_rejects_foreign_lagrangians():
    from catspan.families import build_families

    E = sub(6, (1, 5), (2, 4), (4, 6))
    assert is_isotropic(E) and E.dim == 3
    assert E not in build_families(6).f0_lagrangian
    with pytest.raises(ValueError):
        from_lagrangian(E)


def test_lagrangian_correspondence_exhaustive():
    from catspan.families import build_families

    for D in (2, 4, 6, 8):
        coll = build_collection(D)
        lag = build_families(D).f0_lagrangian
        images = set()
        for E in coll.members:
            L = to_lagrangian(E)
            assert L in lag
            assert from_lagrangian(L) == E
            images.add(L)
        assert images == set(lag)
