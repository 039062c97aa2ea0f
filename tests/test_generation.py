"""Exact-once generation of all three levels from canonical parents.

slots.members makes each member once: step(i, P) only for the slots i up
to first_slot(P) + 1.  Here the builders' tables must equal the plain layer
builder, which tries every slot on every member below and keeps the
distinct ones; the walk must repeat no member; first_slot must be the slot
the peel takes; and the count over first slots must give the closed forms
and the Catalan numbers far past any size the tables reach.  The walk starts
from the roots, the bases that no slot fits; the collection's one root is
the zero of V_0, which makes its tree the Lagrangian tree.  No output may
depend on the order of the walk.  f0 and f1 must also equal a second model
that uses no slot rule, the noncrossing prefix matchings.
"""

import math
from collections import Counter
from itertools import chain

import pytest

from _fixtures import copies, joined, pack, prefix_model, stack_pairs
from catspan import cli, conjecture, counting, families, noncrossing, slots, verify
from catspan.conjecture import SuppliedFamily
from catspan.counting import catalan
from catspan.families import FamilyTable, build_families
from catspan.gf2 import Subspace, subspace_key
from catspan.noncrossing import build_collection, to_lagrangian
from catspan.oracle import all_subspaces
from catspan.slots import COLLECTION, F0, F1, first_slot, members, packed, pairs, peel


def first_slot_counts(start, D_max, every_base=True):
    """Members per first slot (None for a root) at each D from start to
    D_max, counted by the children rule alone: a root's children take slots
    1..D, and a child of a parent with first slot f takes 1..min(D, f + 1).
    A child's first slot is its own slot i, so slot i at D counts the roots
    of V_{D-2} and every parent with f >= i - 1 (f <= D - 2, so f + 1 is
    never cut).  A root is a base that no slot fits: the base of every V_D at
    levels 0 and 1 (every_base), only the zero of V_0 in the collection."""
    counts = {None: 1}
    yield start, counts
    for D in range(start + 2, D_max + 1, 2):
        nxt = {None: 1} if every_base else {}
        reach = counts.get(None, 0)
        for i in range(D, 0, -1):
            reach += counts.get(i - 1, 0)
            if reach:
                nxt[i] = reach
        counts = nxt
        yield D, counts


def test_families_equal_the_plain_layer_builder():
    f0, f1, coll = {Subspace(0, ())}, set(), {Subspace(0, ())}
    for D in range(2, 15, 2):
        f0 = {F0.base(D), *(F0.step(i, x, D) for i in range(1, D + 1) for x in f0)}
        f1 = {F1.base(D), *(F1.step(i, x, D) for i in range(1, D + 1) for x in f1)}
        coll = {COLLECTION.base(D), *(COLLECTION.step(i, x, D) for i in range(1, D + 1) for x in coll)}
        table = build_families(D)
        assert table.f0 == f0 and table.f1 == f1, D
        assert build_collection(D).members == coll, D


def test_the_walk_repeats_no_member():
    for D in range(0, 17, 2):
        for rule in (F0, F1, COLLECTION):
            walk = list(members(rule, D))
            assert len(walk) == len(set(walk)), (D, rule)


def test_first_slot_is_the_first_peeled_slot():
    for D in range(0, 15, 2):
        table = build_families(D)
        levels = ((F0, table.f0), (F1, table.f1), (COLLECTION, build_collection(D).members))
        for rule, level in levels:
            for E in level:
                slots = peel(E, rule)
                assert first_slot(E, rule) == (slots[0] if slots else None), (D, E)


def test_first_slot_counts_give_the_closed_forms():
    for D, counts in first_slot_counts(0, 200):
        assert sum(counts.values()) == math.comb(D + 1, D // 2), D
    for D, counts in first_slot_counts(2, 200):
        assert sum(counts.values()) == math.comb(D + 1, (D - 2) // 2), D
    for D, counts in first_slot_counts(0, 200, every_base=False):
        assert sum(counts.values()) == catalan(D // 2 + 1), D


def test_first_slot_counts_match_the_tables():
    level0 = dict(first_slot_counts(0, 12))
    level1 = dict(first_slot_counts(2, 12))
    for D in range(2, 13, 2):
        table = build_families(D)
        assert Counter(first_slot(E, F0) for E in table.f0) == level0[D], D
        assert Counter(first_slot(E, F1) for E in table.f1) == level1[D], D
    for D, counts in first_slot_counts(0, 12, every_base=False):
        assert Counter(first_slot(E, COLLECTION) for E in build_collection(D).members) == counts, D


def test_v0_comes_from_the_walk():
    zero = Subspace(0, ())
    assert build_families(0) == FamilyTable(0, frozenset([zero]), frozenset(), frozenset([zero]), frozenset())
    assert build_collection(0).members == {zero}


def test_the_commands_build_no_table(monkeypatch, capsys, tmp_path):
    # every command walks slots.members; the table builders are library API only
    def no_table(n):
        raise AssertionError(f"a whole table was built at D={n}")

    for module in (families, noncrossing, cli, conjecture, counting, verify):
        for name in ("build_families", "build_collection"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_table)
    assert cli.main(["verify", "--D-max", "8", "--oracle"]) == 0
    assert cli.main(["export", "--D", "8", "--out", str(tmp_path)]) == 0
    assert cli.main(["enumerate", "--kind", "lagrangian", "--D", "8"]) == 0
    plain = SuppliedFamily(2, tuple(sorted(all_subspaces(2), key=subspace_key)))
    assert conjecture.gl_match(plain).found
    capsys.readouterr()


def test_the_collection_tree_is_the_lagrangian_tree():
    # one root, the zero of V_0; a member's peel is the level-0 peel of its image
    for D in range(0, 15, 2):
        zero = Subspace(D, ())
        assert first_slot(zero, COLLECTION) == (2 if D else None), D
        coll = list(members(COLLECTION, D))
        assert [E for E in coll if first_slot(E, COLLECTION) is None] == ([zero] if D == 0 else [])
        slots = [peel(E, COLLECTION) for E in coll]
        for E, seq in zip(coll, slots):
            assert len(seq) == D // 2 and seq == peel(to_lagrangian(E), F0), (D, E)
        assert sorted(slots) == sorted(peel(E, F0) for E in members(F0, D) if 2 * E.dim == D), D


def command_outputs(out, capsys):
    """What verify, export, enumerate and the matcher print or write at D = 8."""
    counting.grades.cache_clear()  # the counts must come from the walk as patched
    assert cli.main(["verify", "--D-max", "8", "--oracle"]) == 0
    seen = {"verify": capsys.readouterr().out}
    assert cli.main(["export", "--D", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    seen.update((path.name, path.read_bytes()) for path in out.iterdir())
    for kind in cli.SUBSPACE_KINDS + ("arcs",):
        for fmt in ("json", "csv", "text"):
            assert cli.main(["enumerate", "--kind", kind, "--D", "8", "--format", fmt]) == 0
            seen[kind, fmt] = capsys.readouterr().out
    plain = SuppliedFamily(2, tuple(sorted(all_subspaces(2), key=subspace_key)))
    seen["match"] = conjecture.gl_match(plain)
    return seen


def test_no_output_depends_on_the_walk_order(monkeypatch, capsys, tmp_path):
    walked = command_outputs(tmp_path / "walk", capsys)
    forward = list(members(F0, 8))

    def flip(W, word, dims):  # a run's copies in reverse order
        got, _ = copies(W, word, dims)
        return W, sum(P << W * c for c, (P, _) in enumerate(reversed(got))), dims[::-1]

    def backward(rule, n, start=None):  # forwards the start, so one start's walk is reversed too
        return [flip(*run) for run in reversed(list(packed(rule, n, start)))]

    # members walks slots.packed, and pairs zips two members walks, so every consumer's walk is
    # reversed, member by member
    for module in (slots, cli, counting):
        monkeypatch.setattr(module, "packed", backward)
    assert list(members(F0, 8)) == forward[::-1]
    assert command_outputs(tmp_path / "reversed", capsys) == walked
    counting.grades.cache_clear()


def test_pairs_carry_each_image_down_the_walk():
    # lockstep: the E side is the walk itself, in its order, and each image is
    # the one that the map's peel and replay build; no image repeats
    for D in range(0, 15, 2):
        for rule, image, to_image in ((F1, F0, families.level_down), (COLLECTION, F0, to_lagrangian)):
            walk = list(pairs(rule, image, D))
            assert [E for E, _ in walk] == list(members(rule, D)), (D, rule)
            assert all(Q == to_image(E) for E, Q in walk), (D, rule)
            assert len({Q for _, Q in walk}) == len(walk), (D, rule)


def test_pairs_never_truncate(monkeypatch):
    # the image walk from one root drops its last member: pairs raises rather than cut
    # the source walk from that root to the shorter length
    walk = slots.members

    def short(rule, n, start=None):
        got = list(walk(rule, n, start))
        return got[:-1] if (rule, start) == (F0, 4) else got

    monkeypatch.setattr(slots, "members", short)
    with pytest.raises(ValueError):
        list(pairs(F1, F0, 8))


def test_the_walk_equals_the_prefix_matching_model():
    # a second model with no slot rule: f0 and f1 from the noncrossing prefix matchings
    for D in range(0, 15, 2):
        f0, f1 = prefix_model(D)
        assert set(members(F0, D)) == f0, D
        assert set(members(F1, D)) == f1, D


def test_one_start_is_one_grade():
    # at levels 0 and 1 the tree under the base of V_m holds the one dimension
    # (D - m)/2 + full_base; across starts the trees partition the whole walk
    for D in range(2, 15, 2):
        for rule in (F0, F1, COLLECTION):
            walks = {m: list(members(rule, D, m)) for m in range(-2, D + 3)}
            assert Counter(chain.from_iterable(walks.values())) == Counter(members(rule, D)), (D, rule)
            if rule is COLLECTION:
                assert not any(walk for m, walk in walks.items() if m), D  # one root, the zero of V_0
                continue
            for m, walk in walks.items():
                root = m in range(2 * rule.full_base, D + 1, 2)
                assert {E.dim for E in walk} == ({(D - m) // 2 + rule.full_base} if root else set()), (D, m)
        for k in range(D // 2 + 1):
            below = math.comb(D + 1, k - 1) if k else 0
            assert sum(1 for _ in members(F0, D, D - 2 * k)) == math.comb(D + 1, k) - below, (D, k)


def test_export_walks_each_level_once(monkeypatch, capsys, tmp_path):
    # f0 and f1 one grade at a time, each walk from its start; the collection
    # once; and no second walk for the counts
    walks = []

    def recorded(rule, n, start=None):
        walks.append((rule, start))
        return packed(rule, n, start)

    for module in (slots, cli, counting):
        monkeypatch.setattr(module, "packed", recorded)
    counting.grades.cache_clear()
    assert cli.main(["export", "--D", "8", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    grades = [(F0, m) for m in range(0, 9, 2)] + [(F1, m) for m in range(2, 9, 2)]
    assert Counter(walks) == Counter(grades + [(COLLECTION, None)])


def run_members(runs):
    """(word, dims) of each member of the runs in walk order, after checking that nothing
    lies past a run's last copy."""
    out = []
    for W, word, dims in runs:
        got, rest = copies(W, word, dims)
        assert rest == 0
        out.extend(got)
    return out


def test_the_packed_walk_keeps_the_stack_walk_order():
    # against the walk over Subspaces that runs first_slot at every node and the row step
    # for every step: the same members, words and dims, in the same order; and the same
    # images from the zipped walks
    for D in range(0, 15, 2):
        for rule, image in ((F1, F0), (COLLECTION, F0)):
            assert list(pairs(rule, image, D)) == list(stack_pairs(rule, image, D)), (D, rule, image)
        for rule in (F0, F1, COLLECTION):
            for start in (None, *range(-2, D + 3)):
                want = [E for E, _ in stack_pairs(rule, None, D, start)]
                assert list(members(rule, D, start)) == want, (D, rule, start)
                assert run_members(packed(rule, D, start)) == [pack(E.rows, D) for E in want], (D, rule, start)


def test_the_leaf_strings_are_the_joined_basis_strings():
    # one format call on each run's word under its sentinel, member c the D * dims[c] chars at
    # W * c, for every rule and start; and the grades that export and enumerate lay out, each
    # leaf string with its grade, in canonical order
    kinds = (("f0", F0, None), ("f1", F1, None), ("lagrangian", F0, 0), ("collection", COLLECTION, None))
    for D in range(0, 15, 2):
        for rule in (F0, F1, COLLECTION):
            for start in (None, *range(0, D + 1, 2)):
                runs = [(W, format(word | 1 << W * len(dims), "b")[:0:-1], dims)
                        for W, word, dims in packed(rule, D, start)]
                leaves = [s[W * c:W * c + D * k] for W, s, dims in runs for c, k in enumerate(dims)]
                want = [joined(D, E.rows) for E, _ in stack_pairs(rule, None, D, start)]
                assert leaves == want, (D, rule, start)
        for kind, rule, start in kinds if D else ():
            level = sorted((E for E, _ in stack_pairs(rule, None, D, start)), key=subspace_key)
            rendered = [(k, word) for k, words in cli._grades(kind, D) for word in words]
            assert rendered == [(E.dim, joined(D, E.rows)) for E in level], (D, kind)
