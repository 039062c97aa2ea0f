"""Property tests of the map ops at D = 20..64, beyond the exhaustive range.

Members are grown from random slot sequences, the way the induction builds
them, so no table at D is needed.  The runs are derandomized: the suite
stays deterministic.
"""

import random
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from catspan.families import level_down, level_up  # noqa: E402
from catspan.gf2 import span_masks  # noqa: E402
from catspan.noncrossing import (  # noqa: E402
    ArcSequence,
    arcs_of,
    decompose,
    extend_seq,
    from_lagrangian,
    span_arcs,
    to_lagrangian,
)
from catspan.slots import COLLECTION, F0, F1, embed, peel  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None, database=None)


@st.composite
def slot_runs(draw, bottom_min):
    """(D, bottom, slots): one slot in [1, m] for each level m above bottom."""
    D = draw(st.integers(10, 32)) * 2
    steps = draw(st.integers(0, (D - bottom_min) // 2))
    bottom = D - 2 * steps
    slots = [draw(st.integers(1, m)) for m in range(bottom + 2, D + 1, 2)]
    return D, bottom, slots


def grow(kind, D, bottom, slots):
    """Member of f0, f1 or the collection built by the given slots."""
    rows = [(1 << bottom) - 1] if kind == "f1" else []
    fan = 0b101 if kind == "collection" else 0b111
    for i in slots:
        rows = [embed(i, r, fan) for r in rows]
        if kind != "collection" or i % 2:
            rows.append(1 << (i - 1))
    return span_masks(rows, D)


def grow_arcs(D, bottom, slots):
    seq = ArcSequence()
    for m, i in zip(range(bottom + 2, D + 1, 2), slots):
        seq = extend_seq(i, seq, m)
    return seq


@PROPERTY
@given(slot_runs(2))
def test_level_maps_round_trip(run):
    E = grow("f1", *run)
    assert peel(E, F1) is not None and peel(E, F0) is None
    E0 = level_down(E)
    assert E0.dim + 1 == E.dim
    assert peel(E0, F0) is not None
    assert level_up(E0) == E


@PROPERTY
@given(slot_runs(0))
def test_level_zero_members(run):
    E = grow("f0", *run)
    assert peel(E, F0) is not None and peel(E, F1) is None
    if 2 * E.dim < E.n:
        assert level_down(level_up(E)) == E
    else:
        assert to_lagrangian(from_lagrangian(E)) == E


@PROPERTY
@given(slot_runs(0))
def test_collection_maps_round_trip(run):
    E = grow("collection", *run)
    assert peel(E, COLLECTION) is not None
    seq = arcs_of(E)
    assert span_arcs(seq, E.n) == E and len(seq) == E.dim
    L = to_lagrangian(E)
    assert 2 * L.dim == E.n and peel(L, F0) is not None
    assert from_lagrangian(L) == E


@PROPERTY
@given(slot_runs(0))
def test_arc_sets_round_trip(run):
    D = run[0]
    seq = grow_arcs(*run)
    E = span_arcs(seq, D)
    assert E.dim == len(seq)
    assert arcs_of(E) == seq


def test_every_map_op_is_fast_at_d64():
    D = 64
    rng = random.Random(0)
    slots = [rng.randint(1, m) for m in range(2, D + 1, 2)]
    seq = grow_arcs(D, 0, slots)
    ops = [
        (span_arcs, seq, D),
        (arcs_of, grow("collection", D, 0, slots)),
        (level_down, grow("f1", D, 2, slots[1:])),
        (level_up, grow("f0", D, 2, slots[1:])),
        (to_lagrangian, grow("collection", D, 0, slots)),
        (from_lagrangian, grow("f0", D, 0, slots)),
        (decompose, seq, D),
    ]
    for fn, *args in ops:
        t0 = time.perf_counter()
        fn(*args)
        took = time.perf_counter() - t0
        assert took < 1.0, f"{fn.__name__} took {took:.2f}s at D={D}"
