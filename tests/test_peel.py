"""The slot peel behind the map ops, checked exhaustively against the tables.

The peel runs the slot induction backwards instead of building the table at
D.  Here every table member must peel at its own level and no other, the
peel must agree with the tables on every brute-force subspace that small D
allows, and the peel-based inverse maps must equal plain table inversions.
"""

import pytest

from _fixtures import isotropic
from catspan.families import build_families, level_down, level_up
from catspan.gf2 import Subspace
from catspan.noncrossing import arcs_of, build_collection, enumerate_noncrossing, span_arcs
from catspan.oracle import all_subspaces
from catspan.slots import COLLECTION, F0, F1, peel, replay


def replays_to(E, slots, rule):
    """Both forward readings of the slots, subspace steps and unreduced rows."""
    m = E.n - 2 * len(slots)
    return replay(slots, rule.base(m), m, rule.step) == E == rule.build(slots, E.n)


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
        peel(Subspace.zero(3), F0)
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
