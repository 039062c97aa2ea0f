"""Inductive isotropic families, run lines, and the level bijection."""

import math
import random

import pytest

from _fixtures import F0_V2, F0_V4, F1_V2, F1_V4, classify_by_span, sub
from catspan import families
from catspan.counting import catalan
from catspan.families import (
    Line,
    build_families,
    classify_by_lines,
    level_down,
    level_up,
    lines_in,
)
from catspan.gf2 import (
    Subspace,
    form_masks,
    is_isotropic,
    mask_to_string,
    span_masks,
)
from catspan.oracle import all_subspaces
from catspan.slots import COLLECTION, F0, F1, embed, members


def test_line_basics():
    assert Line(2, 3).mask() == 0b0110
    assert Line(1, 1).mask() == 0b1
    assert Line(1, 2).parity == 0
    assert Line(1, 3).parity == 1
    assert Line(2, 2).parity == 1
    assert mask_to_string(Line(1, 4).mask(), 4) == "1111"
    assert Line(1, 2) < Line(2, 2)
    with pytest.raises(ValueError):
        Line(0, 1)
    with pytest.raises(ValueError):
        Line(3, 2)
    with pytest.raises(ValueError):
        span_masks([Line(3, 5).mask()], 4)


def test_line_classes_v4():
    lines = [Line(a, b) for a in range(1, 5) for b in range(a, 5)]
    parity0 = {L for L in lines if L.parity == 0}
    parity1 = {L for L in lines if L.parity == 1}
    assert parity0 == {Line(1, 2), Line(2, 3), Line(3, 4), Line(1, 4)}
    assert parity1 == {Line(1, 1), Line(2, 2), Line(3, 3), Line(4, 4), Line(1, 3), Line(2, 4)}


def test_line_vectors_isotropy():
    # a run vector pairs to zero with itself, and runs of odd length are the
    # ones whose span can sit inside a level-0 member
    for n in (2, 4, 6):
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                v = Line(a, b).mask()
                assert form_masks(v, v) == 0


def test_embed_examples():
    e1, e2, e3, e4 = (1 << (i - 1) for i in range(1, 5))
    assert embed(1, e1, 0b111) == e3
    assert embed(2, e1, 0b111) == e1 | e2 | e3
    assert embed(3, e2, 0b111) == e2 | e3 | e4
    assert embed(4, e1 | e2, 0b111) == e1 | e2


def test_embed_is_linear_and_injective():
    for i in range(1, 7):
        seen = set()
        for m in range(16):
            img = embed(i, m, 0b111)
            assert img < 1 << 6 and img not in seen
            seen.add(img)
        for a in range(16):
            for b in range(16):
                assert embed(i, a ^ b, 0b111) == embed(i, a, 0b111) ^ embed(i, b, 0b111)


def test_embed_preserves_form():
    for i in range(1, 7):
        for a in range(16):
            for b in range(16):
                assert form_masks(embed(i, a, 0b111), embed(i, b, 0b111)) == form_masks(a, b)


def test_family_tables_match_reference_lists():
    t2 = build_families(2)
    assert t2.f0 == F0_V2
    assert t2.f1 == F1_V2
    t4 = build_families(4)
    assert t4.f0 == F0_V4
    assert t4.f1 == F1_V4


def test_family_cardinalities_small():
    for D in (2, 4, 6, 8):
        table = build_families(D)
        assert len(table.f0) == math.comb(D + 1, D // 2)
        assert len(table.f1) == math.comb(D + 1, (D - 2) // 2)
        assert len(table.f0_lagrangian) == catalan(D // 2 + 1)


def test_families_isotropic_and_disjoint():
    for D in (2, 4, 6, 8):
        table = build_families(D)
        for E in table.f0 | table.f1:
            assert is_isotropic(E)
            assert E.dim <= D // 2
        assert not table.f0 & table.f1
        assert table.f0 == table.f0_lagrangian | table.f0_sub
        assert all(E.dim == D // 2 for E in table.f0_lagrangian)
        assert all(E.dim < D // 2 for E in table.f0_sub)


def test_build_families_validation():
    with pytest.raises(ValueError):
        build_families(3)
    with pytest.raises(ValueError):
        build_families(-2)


def test_lines_in_example():
    E = sub(4, (1, 2, 3), (2,))
    assert lines_in(E) == {Line(2, 2), Line(1, 3)}
    assert lines_in(Subspace(4, ())) == frozenset()


def test_classify_examples():
    assert classify_by_lines(sub(4, (1,), (3,))) == ("f0", None)
    assert classify_by_lines(sub(2, (1, 2))) == ("f1", Line(1, 2))
    assert classify_by_lines(sub(2, (1,), (2,))) == ("other", None)
    assert classify_by_lines(sub(4, (1, 2, 3, 4), (2,))) == ("f1", Line(1, 4))


def test_classify_is_not_a_membership_test():
    # the line test is necessary but not sufficient: this span of a single
    # odd-length run looks level-0 shaped yet the builder never produces it
    E = sub(4, (1, 2, 3))
    assert classify_by_lines(E) == ("f0", None)
    assert E not in build_families(4).f0


def witness_cases():
    """Every subspace of V_2, V_4 and V_6; 3,000 random spans and 3,000 random
    spans of runs at each D = 8..14; every f0, f1 and collection member at D <= 14."""
    rng = random.Random(21)
    for n in (2, 4, 6):
        yield from all_subspaces(n)
    for D in range(8, 15, 2):
        runs = [Line(a, b).mask() for a in range(1, D + 1) for b in range(a, D + 1)]
        for _ in range(3000):
            yield span_masks((rng.randrange(1 << D) for _ in range(rng.randrange(D + 1))), D)
            yield span_masks(rng.sample(runs, rng.randrange(D // 2 + 2)), D)
    for D in range(0, 15, 2):
        for rule in (F0, F1, COLLECTION):
            yield from members(rule, D)


def test_prefix_class_witness_equals_the_span_oracle():
    kinds = {"f0": 0, "f1": 0, "other": 0}
    for E in witness_cases():
        got = classify_by_lines(E)
        assert got == classify_by_span(E)
        runs = [(a, b) for a in range(1, E.n + 1) for b in range(a, E.n + 1)]
        assert lines_in(E) == {Line(a, b) for a, b in runs if not E.residue((1 << b) - (1 << (a - 1)))}
        kinds[got[0]] += 1
    # the cases reach all three answers, each many times
    assert min(kinds.values()) > 1000, kinds


def test_classify_never_reduces_rows(monkeypatch):
    table = build_families(8)

    def no_rref(masks):
        raise AssertionError("_rref called")

    monkeypatch.setattr("catspan.gf2._rref", no_rref)
    assert not hasattr(families, "span_masks")
    for E in table.f0:
        assert classify_by_lines(E) == ("f0", None)
    for E in table.f1:
        assert classify_by_lines(E)[0] == "f1"


def test_classification_exact_within_families():
    for D in (2, 4, 6, 8):
        table = build_families(D)
        for E in table.f0:
            kind, marked = classify_by_lines(E)
            assert kind == "f0" and marked is None
        for E in table.f1:
            kind, marked = classify_by_lines(E)
            assert kind == "f1"
            assert marked is not None and marked.parity == 0


def test_marked_line_endpoints():
    # the unique even-length run of a level-1 member always starts odd and
    # ends even
    for D in (2, 4, 6, 8):
        for E in build_families(D).f1:
            _, marked = classify_by_lines(E)
            assert marked.a % 2 == 1
            assert marked.b % 2 == 0


def test_level_down_example():
    E = sub(4, (1, 2, 3, 4), (2,))
    assert level_down(E) == sub(4, (2,))
    with pytest.raises(ValueError):
        level_down(sub(4, (1,)))
    with pytest.raises(ValueError):
        level_down(sub(4, (1,), (2,)))


def test_level_up_example():
    assert level_up(sub(2)) == sub(2, (1, 2))
    with pytest.raises(ValueError):
        level_up(sub(2, (1,)))


def test_level_bijection_exhaustive():
    for D in (2, 4, 6, 8):
        table = build_families(D)
        images = {}
        for E in table.f1:
            E0 = level_down(E)
            _, marked = classify_by_lines(E)
            assert E0 in table.f0_sub
            assert E0.dim + 1 == E.dim
            assert span_masks(E0.rows + (marked.mask(),), D) == E
            assert E0 not in images
            images[E0] = E
            assert level_up(E0) == E
        assert set(images) == set(table.f0_sub)
