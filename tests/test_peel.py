"""The slot peel behind the map ops, checked exhaustively against the tables.

The peel runs the slot induction backwards instead of building the table at
D.  Here every table member must peel at its own level and no other, the
peel must agree with the tables on every brute-force subspace that small D
allows, and the peel-based inverse maps must equal plain table inversions.
The step builds its rows straight in canonical RREF; here it must equal the
span of the paper's rows, and neither direction may reduce rows at all.  The
maps must also be arc surgery on the noncrossing prefix matchings, a model
with no slot rule.
"""

import math
from itertools import product

import pytest

from _fixtures import copies, embed, isotropic, pack, prefix_matchings, row_step, stack_pairs
from catspan.counting import catalan
from catspan.families import build_families, level_down, level_up
from catspan.gf2 import Subspace, span_masks
from catspan.noncrossing import (Arc, ArcSequence, arcs_of, build_collection, enumerate_noncrossing, from_lagrangian,
                                 span_arcs, to_lagrangian)
from catspan.oracle import all_subspaces
from catspan.slots import COLLECTION, F0, F1, peel


def paper_rows(rule, i, rows):
    """Spanning rows of embed_i(P) + <e_i> as the paper writes them: fan-out
    0b111 for the families, 0b101 for the collection, whose even slots
    adjoin nothing."""
    fan = 0b101 if rule is COLLECTION else 0b111
    out = [embed(i, r, fan) for r in rows]
    if rule is not COLLECTION or i % 2:
        out.append(1 << (i - 1))
    return out


def embed_step(rule, i, rows):
    """The step row by row through embed with fan 0b101, e_i put in at its
    pivot position by a count over every row: the definition that Rule.step
    writes inline."""
    out = [embed(i, r, 0b101) for r in rows]
    if rule is not COLLECTION or i % 2:
        low = (1 << (i - 1)) - 1
        out.insert(sum(1 for r in out if r & low), 1 << (i - 1))
    return tuple(out)


def replays_to(E, slots, rule):
    """Both forward readings of the slots: canonical steps, folded one by one
    and by Rule.build, and the paper's rows folded unreduced and spanned once
    at the top."""
    m = E.n - 2 * len(slots)
    P, rows = rule.base(m), rule.base(m).rows
    for i in reversed(slots):
        m += 2
        P, rows = rule.step(i, P, m), paper_rows(rule, i, rows)
    return rule.build(slots, E.n) == P == E == span_masks(rows, E.n)


def levels(D):
    """(rule, members) for the three levels at D."""
    table = build_families(D)
    return [(F0, table.f0), (F1, table.f1), (COLLECTION, build_collection(D).members)]


def test_step_equals_the_span_of_the_paper_rows():
    # Subspace equality is structural on the rows, so this also shows that
    # every step comes out in canonical RREF, row for row as embed gives it
    steps = 0
    for D in range(2, 15, 2):
        for rule, below in levels(D - 2):
            for P in below:
                for i in range(1, D + 1):
                    E = rule.step(i, P, D)
                    assert E == span_masks(paper_rows(rule, i, P.rows), D)
                    assert E.rows == embed_step(rule, i, P.rows)
                    steps += 1
    assert steps == 62364


def test_each_copy_of_the_fan_is_the_row_step():
    # every member P of V_m below each V_D, fanned from every top slot down to slot 1 and at
    # the top alone, packed at stride D and at a wider one, as the walk fans a member of V_m
    # at the stride of the V_n it ends in: copy c is the row step at slot top - c, with its
    # row count, and nothing else lies in its W bits or past the last copy
    fanned = 0
    for D in range(2, 13, 2):
        for rule in (F0, F1, COLLECTION):
            for m in range(0, D - 1, 2):
                for P, _ in stack_pairs(rule, None, m):
                    for top in range(1, m + 3):
                        for bottom, stride in product((1, top), (D, 14)):
                            W, word, dims = rule.fan(top, *pack(P.rows, stride), stride, bottom)
                            assert W == stride * (P.dim + 1) and len(dims) == top - bottom + 1
                            want = [row_step(rule, top - c, P, m + 2) for c in range(len(dims))]
                            got, rest = copies(W, word, dims)
                            assert got == [pack(E.rows, stride) for E in want], (D, rule, P, top, bottom)
                            assert rest == 0, (D, rule, P, top, bottom)
                            fanned += len(dims)
                    assert all(rule.step(i, P, m + 2) == row_step(rule, i, P, m + 2) for i in range(1, m + 3))
    assert fanned == 255600  # the copies over all D, rule, P, top, bottom and stride


def test_slot_steps_never_reduce_rows(monkeypatch):
    lower = levels(6)
    members = levels(8)
    table = build_families(8)

    def no_rref(masks):
        raise AssertionError("_rref called")

    monkeypatch.setattr("catspan.gf2._rref", no_rref)
    for rule, below in lower:
        for P in below:
            for i in range(1, 9):
                rule.step(i, P, 8)
    for rule, top in members:
        for E in top:
            assert rule.build(peel(E, rule), 8) == E
    for E in table.f1:
        assert level_up(level_down(E)) == E
    for E in build_collection(8).members:
        arcs_of(E)
        to_lagrangian(E)
    assert build_families(8) == table


def test_peel_accepts_members_at_their_own_level():
    for D in range(0, 13, 2):
        table = build_families(D)
        for E in table.f0:
            assert peel(E, F0) is not None and peel(E, F1) is None
            assert replays_to(E, peel(E, F0), F0)
        for E in table.f1:
            assert peel(E, F1) is not None and peel(E, F0) is None
            assert replays_to(E, peel(E, F1), F1)
        for E in build_collection(D).members:
            assert peel(E, COLLECTION) is not None
            assert replays_to(E, peel(E, COLLECTION), COLLECTION)


def test_peel_agrees_with_tables_on_brute_force_subspaces():
    for D in range(2, 9, 2):
        table = build_families(D)
        iso = isotropic(D)
        assert {E for E in iso if peel(E, F0) is not None} == table.f0
        assert {E for E in iso if peel(E, F1) is not None} == table.f1
        accepted = {E for E in all_subspaces(D) if peel(E, COLLECTION) is not None}
        assert accepted == build_collection(D).members


def test_peel_rejects_odd_dimensions():
    with pytest.raises(ValueError, match="must be even"):
        peel(Subspace(3, ()), F0)
    with pytest.raises(ValueError, match="no member in V_0"):
        F1.base(0)


def test_inverse_maps_equal_table_inversions():
    for D in range(2, 13, 2):
        table = build_families(D)
        up = {level_down(E): E for E in table.f1}
        assert set(up) == set(table.f0_sub)
        for E0, E in up.items():
            assert level_up(E0) == E
        for E0 in table.f0_lagrangian:
            with pytest.raises(ValueError, match="not a sub-Lagrangian"):
                level_up(E0)
        arcs = {span_arcs(seq, D): seq for seq in enumerate_noncrossing(D)}
        assert set(arcs) == set(build_collection(D).members)
        for E, seq in arcs.items():
            assert arcs_of(E) == seq


def test_the_maps_are_arc_surgery_on_the_prefix_matchings():
    # with P_b = e_1 + ... + e_b, E0 is the span of P_i + P_j over a matching's arcs (i, j), a level-0
    # member: level_up adds P_a + P_b for the first and last unmatched points a, b, and level_down
    # takes it off again; with one unmatched point E0 is Lagrangian, and the matching's arcs that
    # open at an even point i are the arc set, each as (i + 1, j)
    for D in range(0, 13, 2):
        counts = [0, 0]
        for arcs, free in prefix_matchings(D):
            runs = [(1 << i) - 1 ^ (1 << j) - 1 for i, j in arcs]
            E0 = span_masks(runs, D)
            if len(free) >= 3:
                E1 = span_masks(runs + [(1 << free[0]) - 1 ^ (1 << free[-1]) - 1], D)
                assert level_up(E0) == E1 and level_down(E1) == E0, (D, arcs)
                counts[0] += 1
            elif len(free) == 1:
                C = from_lagrangian(E0)
                assert to_lagrangian(C) == E0, (D, arcs)
                assert arcs_of(C) == ArcSequence.of(Arc(i + 1, j) for i, j in arcs if i % 2 == 0), (D, arcs)
                counts[1] += 1
        # every sub-Lagrangian and every Lagrangian member of level 0, once each
        assert counts == [math.comb(D + 1, D // 2 - 1) if D else 0, catalan(D // 2 + 1)], D
