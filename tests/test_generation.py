"""Exact-once generation of the families from canonical parents.

build_families makes each member once: step(i, P) only for the slots i up
to first_slot(P) + 1.  Here its tables must equal the plain layer builder,
which tries every slot on every member below and keeps the distinct ones;
first_slot must be the slot the peel takes; and the count over first slots
must give the closed forms far past any size the tables reach.
"""

import math
from collections import Counter

import pytest

import catspan.families as families
from catspan.families import build_families
from catspan.gf2 import Subspace
from catspan.slots import F0, F1, first_slot, layer, peel


def first_slot_counts(start, D_max):
    """Members per first slot (None for the base) at each D from start to
    D_max, counted by the children rule alone: the base's children take
    slots 1..D, and a child of a parent with first slot f takes 1..min(D, f + 1).
    A child's first slot is its own slot i, so slot i at D counts the base
    and every parent with f >= i - 1 (f <= D - 2, so f + 1 is never cut)."""
    counts = {None: 1}
    yield start, counts
    for D in range(start + 2, D_max + 1, 2):
        nxt = {None: 1}
        reach = counts[None]
        for i in range(D, 0, -1):
            reach += counts.get(i - 1, 0)
            nxt[i] = reach
        counts = nxt
        yield D, counts


def test_families_equal_the_plain_layer_builder():
    f0, f1 = {Subspace.zero(0)}, set()
    for D in range(2, 15, 2):
        f0 = layer(F0.step, D, f0, F0.base(D))
        f1 = layer(F1.step, D, f1, F1.base(D))
        table = build_families(D)
        assert table.f0 == f0 and table.f1 == f1, D


def test_first_slot_is_the_first_peeled_slot():
    for D in range(0, 15, 2):
        table = build_families(D)
        for rule, members in ((F0, table.f0), (F1, table.f1)):
            for E in members:
                slots = peel(E, rule)
                assert first_slot(E, rule) == (slots[0] if slots else None), (D, E)


def test_first_slot_counts_give_the_closed_forms():
    for D, counts in first_slot_counts(0, 200):
        assert sum(counts.values()) == math.comb(D + 1, D // 2), D
    for D, counts in first_slot_counts(2, 200):
        assert sum(counts.values()) == math.comb(D + 1, (D - 2) // 2), D


def test_first_slot_counts_match_the_tables():
    level0 = dict(first_slot_counts(0, 12))
    level1 = dict(first_slot_counts(2, 12))
    for D in range(2, 13, 2):
        table = build_families(D)
        assert Counter(first_slot(E, F0) for E in table.f0) == level0[D], D
        assert Counter(first_slot(E, F1) for E in table.f1) == level1[D], D


def test_a_repeated_member_fails_the_build(monkeypatch):
    # every slot on every parent, as the plain layer does, repeats members
    monkeypatch.setattr(families, "first_slot", lambda P, rule: None)
    with pytest.raises(AssertionError, match="13 candidates for 10 members in V_4"):
        build_families.__wrapped__(4)
