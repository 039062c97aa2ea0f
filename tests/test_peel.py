"""The slot peel behind the map ops, checked exhaustively against the tables.

The peel runs the slot induction backwards instead of building the table at
D.  Here every table member must peel at its own level and no other, the
peel must agree with the tables on every brute-force subspace that small D
allows, and the peel-based inverse maps must equal plain table inversions.
The step builds its rows straight in canonical RREF; here it must equal the
span of the paper's rows, and neither direction may reduce rows at all.
"""

import pytest

from _fixtures import embed, isotropic
from catspan.families import build_families, level_down, level_up
from catspan.gf2 import Subspace, span_masks
from catspan.noncrossing import arcs_of, build_collection, enumerate_noncrossing, span_arcs, to_lagrangian
from catspan.oracle import all_subspaces
from catspan.slots import COLLECTION, F0, F1, peel, replay


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
    """Both forward readings of the slots: canonical steps, and the paper's
    rows folded unreduced and spanned once at the top."""
    m = E.n - 2 * len(slots)
    rows = replay(slots, rule.base(m).rows, m, lambda i, rows, _: paper_rows(rule, i, rows))
    return replay(slots, rule.base(m), m, rule.step) == E == span_masks(rows, E.n)


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
