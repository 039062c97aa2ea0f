"""The package's records are NamedTuples, and ArcSequence the tuple of its arcs:
each keeps the repr, order and checks of the frozen dataclass it replaced, Arc
and Line stay distinct, and only the trusted Subspace._make skips the
canonical-RREF check."""

import copy
import pickle
import random
import re
from itertools import product

import pytest

from _fixtures import lines_in
from catspan import noncrossing
from catspan.conjecture import MatchResult, SuppliedFamily
from catspan.counting import CountRow
from catspan.families import FamilyTable, Line
from catspan.gf2 import Subspace, span_masks
from catspan.noncrossing import Arc, ArcSequence, OddCollection, enumerate_noncrossing, odd_arcs, seq_key
from catspan.oracle import OracleBudget, cells
from catspan.slots import COLLECTION, F0, F1, members
from catspan.verify import CheckResult


def test_arc_and_line_are_distinct():
    assert Arc(1, 3) != Line(1, 3) and Line(1, 3) != Arc(1, 3)
    assert not Arc(1, 3) == Line(1, 3) and not Line(1, 3) == Arc(1, 3)
    assert Arc(1, 3) != (1, 3) and (1, 3) != Line(1, 3)
    assert Arc(1, 3) == Arc(1, 3) and not Arc(1, 3) != Arc(1, 3)
    assert Line(1, 3) == Line(1, 3) and not Line(1, 3) != Line(1, 3)
    assert len({Arc(1, 3), Line(1, 3)}) == 2


def test_hashes_are_those_of_the_field_tuples():
    assert hash(Arc(1, 3)) == hash(Line(1, 3)) == hash((1, 3))
    assert hash(Subspace(4, (1, 6))) == hash((4, (1, 6)))
    seq = ArcSequence.of([Arc(3, 3), Arc(1, 5)])
    assert hash(seq) == hash((Arc(1, 5), Arc(3, 3)))
    assert hash(CountRow(2, "f0", 3, 3)) == hash((2, "f0", 3, 3))


def test_arcs_and_lines_sort_by_their_ends():
    rng = random.Random(5)
    arcs = odd_arcs(10)
    shuffled = rng.sample(arcs, len(arcs))
    assert sorted(shuffled) == arcs == sorted(arcs, key=lambda x: (x.a, x.b))
    lines = [Line(a, b) for a in range(1, 7) for b in range(a, 7)]
    assert sorted(rng.sample(lines, len(lines))) == lines
    assert Arc(1, 5) < Arc(3, 3) and Line(2, 2) > Line(1, 6)


REPRS = [
    (Arc(1, 3), "Arc(a=1, b=3)"),
    (Line(1, 3), "Line(a=1, b=3)"),
    (Subspace(4, (1,)), "Subspace(n=4, rows=(1,))"),
    (ArcSequence.of([Arc(1, 3)]), "ArcSequence(arcs=(Arc(a=1, b=3),))"),
    (OddCollection(2, frozenset({Subspace(2)})), "OddCollection(n=2, members=frozenset({Subspace(n=2, rows=())}))"),
    (
        FamilyTable(0, frozenset(), frozenset(), frozenset(), frozenset()),
        "FamilyTable(n=0, f0=frozenset(), f1=frozenset(), f0_lagrangian=frozenset(), f0_sub=frozenset())",
    ),
    (CountRow(2, "f0", 3, 3), "CountRow(D=2, label='f0', observed=3, expected=3)"),
    (CheckResult("arc-bijection", 4, True), "CheckResult(name='arc-bijection', D=4, ok=True, counterexample=None)"),
    (OracleBudget(), "OracleBudget(max_dim=8, max_odd_dim=10)"),
    (SuppliedFamily(1, (Subspace(1),)), "SuppliedFamily(d=1, subgroups=(Subspace(n=1, rows=()),))"),
    (MatchResult(True, (1,), 1), "MatchResult(found=True, witness=(1,), tried=1, reason=None)"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[type(record).__name__ for record, _ in REPRS])
def test_reprs_are_unchanged(record, text):
    assert repr(record) == text
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


def test_arc_sequence_acts_as_its_arcs():
    seq = ArcSequence.of([Arc(3, 3), Arc(1, 5)])
    assert tuple(seq) == (Arc(1, 5), Arc(3, 3))
    assert len(seq) == 2 and list(seq) == [Arc(1, 5), Arc(3, 3)]
    assert Arc(3, 3) in seq and Arc(1, 5) in seq
    assert Arc(1, 1) not in seq and tuple(seq) not in seq and Line(3, 3) not in seq
    empty = ArcSequence()
    assert len(empty) == 0 and list(empty) == [] and not empty and seq
    assert copy.deepcopy(seq) == seq


def test_arc_sequence_is_the_tuple_of_its_arcs(monkeypatch):
    arcs = (Arc(1, 5), Arc(3, 3))
    seq = ArcSequence(arcs)
    assert seq == arcs and hash(seq) == hash(arcs) and {arcs: 1}[seq] == 1
    assert seq != (arcs,) and ArcSequence() == () and hash(ArcSequence()) == hash(())
    assert not hasattr(seq, "arcs") and not any(hasattr(seq, name) for name in ("_make", "_replace", "_asdict"))
    assert not {"__len__", "__iter__", "__contains__", "__getnewargs__"} & set(vars(ArcSequence))
    # copy, deepcopy and pickle rebuild through the checking constructor, once each
    checked, check = [], noncrossing.is_noncrossing
    monkeypatch.setattr(noncrossing, "is_noncrossing", lambda xs: checked.append(xs) or check(xs))
    for rebuild in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        checked.clear()
        back = rebuild(seq)
        assert type(back) is ArcSequence and back == seq and checked == [arcs]
    raw = tuple.__new__(ArcSequence, (Arc(1, 5), Arc(3, 7)))  # crossing, built unchecked
    with pytest.raises(ValueError, match=re.escape("arcs cross: [(1, 5), (3, 7)]")):
        pickle.loads(pickle.dumps(raw))
    monkeypatch.undo()
    # seq_key orders as the (a, b) pairs did, grade first
    rng = random.Random(12)
    for D in range(0, 13, 2):
        seqs = list(enumerate_noncrossing(D))
        shuffled = rng.sample(seqs, len(seqs))
        by_pairs = sorted(shuffled, key=lambda x: (len(x), tuple((arc.a, arc.b) for arc in x)))
        assert sorted(shuffled, key=seq_key) == by_pairs == seqs, D


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Arc(3, 1), "bad arc bounds (3, 1)"),
        (lambda: Arc(0, 1), "bad arc bounds (0, 1)"),
        (lambda: Arc(2, 3), "arc endpoints must be odd, got (2, 3)"),
        (lambda: ArcSequence((Arc(3, 3), Arc(1, 1))), "arcs must be sorted and distinct; use ArcSequence.of"),
        (lambda: ArcSequence((Arc(1, 1), Arc(1, 1))), "arcs must be sorted and distinct; use ArcSequence.of"),
        (lambda: ArcSequence.of([Arc(1, 1), Arc(1, 1)]), "duplicate arcs"),
        (lambda: ArcSequence((Arc(1, 5), Arc(3, 7))), "arcs cross: [(1, 5), (3, 7)]"),
        (lambda: Line(0, 2), "bad line bounds (0, 2)"),
        (lambda: Line(3, 2), "bad line bounds (3, 2)"),
    ],
)
def test_validation_messages_are_unchanged(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_subspace_rejects_rows_not_in_canonical_rref():
    # the space <e_1 + e_2, e_1> is <e_1, e_2>: built raw, lines_in would miss Line(1, 1)
    with pytest.raises(ValueError, match=re.escape("rows (3, 1) are not canonical RREF in V_4")):
        Subspace(4, (3, 1))
    for rows in [(2, 1), (1, 1), (3, 2), (0,), (-1,), (16,), (1, 5)]:
        with pytest.raises(ValueError, match="not canonical RREF"):
            Subspace(4, rows)
    assert lines_in(span_masks([3, 1], 4)) == {Line(1, 1), Line(1, 2), Line(2, 2)}


def test_subspace_accepts_exactly_the_canonical_rows():
    # every tuple of up to three rows below 16 in V_3: accepted iff span_masks keeps it
    for k in range(4):
        for rows in product(range(16), repeat=k):
            try:
                canonical = span_masks(rows, 3).rows == rows
            except ValueError:  # a row outside V_3
                canonical = False
            if canonical:
                assert Subspace(3, rows).rows == rows
            else:
                with pytest.raises(ValueError):
                    Subspace(3, rows)


def test_every_built_subspace_passes_the_public_check():
    for n in range(9):
        assert Subspace(n) == Subspace(n, ()) == Subspace._make((n, ()))
    assert all(Subspace(4, rows) == Subspace._make((4, rows)) for rows in cells(4))
    for rule in (F0, F1, COLLECTION):
        for E in members(rule, 8):
            assert Subspace(*E) == E


def test_subspace_rejects_a_bad_dimension_or_row_container():
    for args in [(4, [1, 2]), (4, None), (4, range(0)), (True, ()), (False, ()), (4.0, ()), ("4", ())]:
        with pytest.raises(ValueError, match=r"^expected an int n and a tuple of rows, got "):
            Subspace(*args)
    for n in (-1, -2, -3):
        with pytest.raises(ValueError, match=rf"^ambient dimension must be even and >= 0, got {n}$"):
            Subspace(n)
    assert Subspace(3) == Subspace._make((3, ()))  # an odd dimension is a space too
    assert Subspace(0) == Subspace._make((0, ()))
    # _make trusts its fields, whatever they are
    assert Subspace._make((True, [1, 2])) == (True, [1, 2])


def test_make_is_the_unchecked_path():
    raw = Subspace._make((4, (3, 1)))
    assert raw.rows == (3, 1) and raw != span_masks([3, 1], 4)
