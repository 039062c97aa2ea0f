"""Runtime verification suite behind the CLI verify command.

Each check walks one identity exhaustively at the given ambient dimension.
A check's body returns its first counterexample in full as text, or None
when the identity holds; _check names it, keeps its oracle cap as check.cap
and makes the public check, which returns a CheckResult.  Levels come from
slots.members.  level-bijection and lagrangian-correspondence take each image
from slots.pairs, the source walk zipped with the level-0 walk from each root;
the inverse map's peel, the round trip, the line test and the containment
clauses stay its witnesses.  These checks are the one implementation of each
identity, run on demand and by the acceptance gate at scale; tests/test_verify.py
plants a fault under each to show that it can fail, and the unit tests keep their own loops.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import chain
from typing import NamedTuple

from .counting import CountRow, gaussian_binomial, grades, verify_counts
from .families import classify_by_lines, level_up
from .gf2 import is_isotropic, subspace_key
from .noncrossing import (Arc, ArcSequence, arcs_of, decompose, enumerate_noncrossing, extend_seq, from_lagrangian,
                          is_noncrossing, odd_arcs, seq_key, shift_arc, span_arcs)
from .slots import COLLECTION, F0, F1, members, pairs
from .oracle import OracleBudget, all_isotropic, cells, noncrossing_direct

__all__ = ["CheckResult", "run_checks", "ORACLE_CHECKS"]


class CheckResult(NamedTuple):
    name: str
    D: int
    ok: bool
    counterexample: str | None = None


def _canonical(items, member=lambda E: E) -> list:
    """Items in the canonical order of the member that member picks from each."""
    return sorted(items, key=lambda x: subspace_key(member(x)))


def _check(name: str, cap: str | None = None):
    """Turn a body, from D to its first counterexample text or None, into the
    public check name, which returns a CheckResult.  cap, the OracleBudget field
    that caps an oracle check's D, stays as check.cap; functools.wraps copies it."""

    def wrap(body):
        @functools.wraps(body)
        def check(n: int, *args) -> CheckResult:
            text = body(n, *args)
            return CheckResult(name, n, text is None, text)

        check.cap = cap
        return check

    return wrap


def _sorted_on_failure(body):
    """Walk each level as slots.members yields it, and only after a failure
    walk it again in canonical order, to report the first counterexample.

    A missed image or a bad member is there in either order, so the first
    walk fails exactly when the second does.
    """

    @functools.wraps(body)
    def run(*args):
        text = body(*args, order=lambda walk, member=None: walk)
        return text and body(*args, order=_canonical)

    return run


def _onto(n: int, count: int, rule, dims, images) -> str | None:
    """Onto the members of rule's level with dimension in dims: each of the
    count source members maps into them with a left inverse, so it is onto
    exactly when their walk counts as many.  Only on a mismatch is images, a
    lazy walk, kept as a set, to name the canonically first member missed."""
    if count == sum(grades(rule, n)[k] for k in dims):
        return None
    hit = set(images)
    missed = min((E for E in members(rule, n) if E.dim in dims and E not in hit), key=subspace_key, default=None)
    if missed is None:  # every target member is hit, so the source walk repeats one
        return f"not injective: {count} members, {len(hit)} images"
    return f"not surjective, missed {missed.to_json()}"


@_check("families-isotropic")
@_sorted_on_failure
def check_families_isotropic(n: int, *, order) -> str | None:
    f1 = set(members(F1, n))
    hits = 0  # each f1 member is in f1, and so is each f0 member in both levels
    for E in order(chain(members(F0, n), f1)):
        if not is_isotropic(E):
            return f"non-isotropic member {E.to_json()}"
        hits += E in f1
    if hits > len(f1):
        clash = min((E for E in members(F0, n) if E in f1), key=subspace_key)
        return f"levels overlap at {clash.to_json()}"


@_check("level-bijection")
@_sorted_on_failure
def check_level_bijection(n: int, *, order) -> str | None:
    count = 0
    for E, E0 in order(pairs(F1, F0, n), lambda pair: pair[0]):
        kind, marked = classify_by_lines(E)
        if kind != "f1" or marked is None:
            return f"level-1 member misclassified as {kind}: {E.to_json()}"
        # an odd start and an even end also make the marked line parity 0
        if marked.a % 2 == 0 or marked.b % 2:
            return f"marked line ({marked.a}, {marked.b}) is not (odd, even)"
        try:
            up = level_up(E0)  # peels E0 at level 0 and rejects a Lagrangian
        except ValueError:
            return f"image {E0.to_json()} is not sub-Lagrangian level-0"
        m = marked.mask()
        if m not in E or m in E0 or not E.contains_subspace(E0) or E0.dim + 1 != E.dim:
            return f"{E.to_json()} != image + marked line"
        if up != E:
            return f"level_up(level_down(E)) != E at {E.to_json()}"
        count += 1
    return _onto(n, count, F0, range(n // 2), (E0 for _, E0 in pairs(F1, F0, n)))


@_check("arc-bijection")
def check_arc_bijection(n: int) -> str | None:
    count = 0
    for seq in enumerate_noncrossing(n):
        E = span_arcs(seq, n)
        if E.dim != len(seq):
            return f"grade broken: {seq.to_json()} spans dim {E.dim}"
        try:
            back = arcs_of(E)  # peels E in the collection
        except ValueError:
            return f"{seq.to_json()} spans a non-member {E.to_json()}"
        if back != seq:
            return f"arcs_of inverts wrongly at {seq.to_json()}"
        count += 1
    spans = (span_arcs(seq, n) for seq in enumerate_noncrossing(n))
    return _onto(n, count, COLLECTION, range(n + 1), spans)


@_check("lagrangian-correspondence")
@_sorted_on_failure
def check_lagrangian(n: int, *, order) -> str | None:
    """L = to_lagrangian(E) is E + E^!, E^! the annihilator of E in the even part.

    L lies in the Lagrangian level, so it is isotropic of dimension n/2.  It
    contains E, and its odd projection is E.  So L meets the even part in
    n/2 - dim E dimensions, which pair to zero with E: that is all of E^!,
    whose dimension is n/2 - dim E.  From those clauses, L = E + E^!.
    """
    count = 0
    for E, L in order(pairs(COLLECTION, F0, n), lambda pair: pair[0]):
        try:
            back = from_lagrangian(L)  # peels L at level 0 and checks its dimension
        except ValueError:
            return f"{E.to_json()} maps outside the Lagrangian level"
        if not L.contains_subspace(E):
            return f"image of {E.to_json()} does not contain it"
        if back != E:
            return f"round trip broken at {E.to_json()}"
        count += 1
    return _onto(n, count, F0, (n // 2,), (L for _, L in pairs(COLLECTION, F0, n)))


@_check("shift-lemmas")
def check_shift_lemmas(n: int) -> str | None:
    """Slot shifts: injective on arcs, preserve noncrossing pairs, and for odd
    slots the adjoined unit arc stays compatible."""
    small = odd_arcs(n - 2)
    for i in range(1, n + 1):
        images = {}
        for x in small:
            y = shift_arc(i, x, n)
            if y in images:
                return f"slot {i} merges {images[y]} and {(x.a, x.b)}"
            images[y] = (x.a, x.b)
            if i % 2 and not is_noncrossing([y, Arc(i, i)]):
                return f"slot {i} image {(y.a, y.b)} crosses the unit arc"
        for x1 in small:
            for x2 in small:
                if x1 < x2 and is_noncrossing([x1, x2]):
                    if not is_noncrossing([shift_arc(i, x1, n), shift_arc(i, x2, n)]):
                        return f"slot {i} breaks pair {(x1.a, x1.b)}, {(x2.a, x2.b)}"


@_check("embedding-compat")
def check_embedding_compat(n: int) -> str | None:
    """Spanning after a slot extension equals embedding the smaller span."""
    for seq in enumerate_noncrossing(n - 2):
        inner = span_arcs(seq, n - 2)
        for i in range(1, n + 1):
            direct = COLLECTION.step(i, inner, n)
            via_arcs = span_arcs(extend_seq(i, seq, n), n)
            if direct != via_arcs:
                return f"slot {i} on {seq.to_json()}: {direct.to_json()} != {via_arcs.to_json()}"


@_check("decompose-roundtrip")
def check_roundtrip(n: int) -> str | None:
    for seq in enumerate_noncrossing(n):
        if not len(seq):
            continue
        i, smaller = decompose(seq, n)
        back = extend_seq(i, smaller, n)
        if back != seq:
            return f"{seq.to_json()} -> ({i}, {smaller.to_json()}) -> {back.to_json()}"


@_check("inductive-closure")
def check_inductive_closure(n: int) -> str | None:
    """The extend-generated family equals the directly enumerated one."""
    generated = {ArcSequence()}
    for m in range(2, n + 1, 2):
        generated = {ArcSequence(), *(extend_seq(i, x, m) for i in range(1, m + 1) for x in generated)}
    direct = set(enumerate_noncrossing(n))
    if generated != direct:
        diff = min(generated ^ direct, key=seq_key)
        return f"sets differ at {diff.to_json()}"


@_check("oracle-noncrossing", "max_odd_dim")
def check_oracle_noncrossing(n: int, budget: OracleBudget = OracleBudget()) -> str | None:
    direct = noncrossing_direct(n, budget)
    fast = list(enumerate_noncrossing(n))
    if direct != fast:
        return f"{len(direct)} filtered vs {len(fast)} enumerated"


@_check("oracle-subspace-counts", "max_dim")
def check_oracle_subspace_counts(n: int, budget: OracleBudget = OracleBudget()) -> str | None:
    by_dim = Counter(len(rows) for rows in cells(n, budget))
    for k in range(n + 1):
        want = gaussian_binomial(n, k)
        if by_dim[k] != want:
            return f"dim {k}: {by_dim[k]} cells vs gaussian binomial {want}"


@_check("oracle-families", "max_dim")
@_sorted_on_failure
def check_oracle_families(n: int, budget: OracleBudget = OracleBudget(), *, order) -> str | None:
    """Brute-force isotropic subspaces against the family tables.

    Family members must all appear isotropic and classify to their own level;
    the line test does not detect membership among arbitrary isotropic
    subspaces, so exactness is asserted relative to the family union.
    """
    f0 = set(members(F0, n))
    iso = set(all_isotropic(n, budget=budget))
    fam = f0 | set(members(F1, n))
    if not fam <= iso:
        missing = min(fam - iso, key=subspace_key)
        return f"family member not in brute-force list: {missing.to_json()}"
    for E in order(fam):
        kind, _ = classify_by_lines(E)
        want = "f0" if E in f0 else "f1"
        if kind != want:
            return f"{E.to_json()} classifies as {kind}, expected {want}"


BASE_CHECKS = [
    check_families_isotropic,
    check_level_bijection,
    check_arc_bijection,
    check_lagrangian,
    check_shift_lemmas,
    check_embedding_compat,
    check_roundtrip,
    check_inductive_closure,
]

ORACLE_CHECKS = [
    check_oracle_noncrossing,
    check_oracle_subspace_counts,
    check_oracle_families,
]


def run_checks(
    d_min: int,
    d_max: int,
    oracle: bool = False,
    budget: OracleBudget = OracleBudget(),
) -> tuple[list[CountRow], list[CheckResult], list[tuple[int, str]]]:
    """Count rows plus identity checks for every even D in [d_min, d_max]; with
    oracle, the (D, check name) pairs above the check's cap come back skipped."""
    if d_min < 2 or d_min % 2 or d_max % 2 or d_max < d_min:
        raise ValueError(f"need even bounds with 2 <= D-min <= D-max, got [{d_min}, {d_max}]")
    counts = []
    results = []
    skipped = []
    for n in range(d_min, d_max + 1, 2):
        counts.extend(verify_counts(n))
        for check in BASE_CHECKS:
            results.append(check(n))
        if oracle:
            for check in ORACLE_CHECKS:
                if n <= getattr(budget, check.cap):
                    results.append(check(n, budget))
                else:
                    skipped.append((n, check.__name__))
    return counts, results, skipped
