"""Runtime verification suite behind the CLI verify command.

Each check walks one identity exhaustively at the given ambient dimension
and reports the first counterexample in full when something breaks.  These
checks are the one implementation of each identity: the installed tool runs
them on demand, and the acceptance gate runs them at scale.  The unit tests
keep their own independent loops at small D, and tests/test_verify.py plants
a fault under each check to show that it can fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import CountReport, gaussian_binomial, verify_counts
from .families import build_families, classify_by_lines, level_down, level_up
from .gf2 import is_isotropic, span_masks, subspace_key, subspace_sum
from .noncrossing import (
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
from .slots import COLLECTION, layer
from . import oracle as oracle_mod

__all__ = ["CheckResult", "run_checks", "ORACLE_CHECKS"]


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    D: int
    ok: bool
    counterexample: str | None = None


def _fail(name: str, D: int, detail: str) -> CheckResult:
    return CheckResult(name, D, False, detail)


def _ok(name: str, D: int) -> CheckResult:
    return CheckResult(name, D, True)


def check_families_isotropic(n: int) -> CheckResult:
    name = "families-isotropic"
    table = build_families(n)
    for E in sorted(table.f0 | table.f1, key=subspace_key):
        if not is_isotropic(E):
            return _fail(name, n, f"non-isotropic member {E.to_json()}")
    if table.f0 & table.f1:
        clash = sorted(table.f0 & table.f1, key=subspace_key)[0]
        return _fail(name, n, f"levels overlap at {clash.to_json()}")
    return _ok(name, n)


def check_level_bijection(n: int) -> CheckResult:
    name = "level-bijection"
    table = build_families(n)
    images = {}
    for E in sorted(table.f1, key=subspace_key):
        kind, marked = classify_by_lines(E)
        if kind != "f1" or marked is None:
            return _fail(name, n, f"level-1 member misclassified as {kind}: {E.to_json()}")
        # an odd start and an even end also make the marked line parity 0
        if marked.a % 2 == 0 or marked.b % 2:
            return _fail(name, n, f"marked line ({marked.a}, {marked.b}) is not (odd, even)")
        E0 = level_down(E)
        if E0 not in table.f0_sub:
            return _fail(name, n, f"image {E0.to_json()} is not sub-Lagrangian level-0")
        line_span = span_masks([marked.mask()], n)
        if subspace_sum(E0, line_span) != E or E0.dim + 1 != E.dim:
            return _fail(name, n, f"{E.to_json()} != image + marked line")
        if E0 in images:
            return _fail(name, n, f"level_down collides at {E0.to_json()}")
        images[E0] = E
        if level_up(E0) != E:
            return _fail(name, n, f"level_up(level_down(E)) != E at {E.to_json()}")
    if set(images) != set(table.f0_sub):
        missing = sorted(set(table.f0_sub) - set(images), key=subspace_key)[0]
        return _fail(name, n, f"not surjective, missed {missing.to_json()}")
    return _ok(name, n)


def check_arc_bijection(n: int) -> CheckResult:
    name = "arc-bijection"
    coll = build_collection(n)
    seen = {}
    for seq in enumerate_noncrossing(n):
        E = span_arcs(seq, n)
        if E.dim != len(seq):
            return _fail(name, n, f"grade broken: {seq.to_json()} spans dim {E.dim}")
        if E not in coll.members:
            return _fail(name, n, f"{seq.to_json()} spans a non-member {E.to_json()}")
        if E in seen:
            return _fail(name, n, f"{seq.to_json()} and {seen[E].to_json()} collide")
        seen[E] = seq
        if arcs_of(E) != seq:
            return _fail(name, n, f"arcs_of inverts wrongly at {seq.to_json()}")
    if set(seen) != set(coll.members):
        missing = sorted(set(coll.members) - set(seen), key=subspace_key)[0]
        return _fail(name, n, f"not surjective, missed {missing.to_json()}")
    return _ok(name, n)


def check_lagrangian(n: int) -> CheckResult:
    name = "lagrangian-correspondence"
    coll = build_collection(n)
    table = build_families(n)
    images = set()
    for E in coll.sorted_members():
        L = to_lagrangian(E)
        if L not in table.f0_lagrangian:
            return _fail(name, n, f"{E.to_json()} maps outside the Lagrangian level")
        if from_lagrangian(L) != E:
            return _fail(name, n, f"round trip broken at {E.to_json()}")
        images.add(L)
    if images != set(table.f0_lagrangian):
        missing = sorted(set(table.f0_lagrangian) - images, key=subspace_key)[0]
        return _fail(name, n, f"not surjective, missed {missing.to_json()}")
    return _ok(name, n)


def _all_arcs(n: int) -> list[Arc]:
    return [Arc(a, b) for a in range(1, n, 2) for b in range(a, n, 2)]


def check_shift_lemmas(n: int) -> CheckResult:
    """Slot shifts: injective on arcs, preserve noncrossing pairs, and for odd
    slots the adjoined unit arc stays compatible."""
    name = "shift-lemmas"
    small = _all_arcs(n - 2)
    for i in range(1, n + 1):
        images = {}
        for x in small:
            y = shift_arc(i, x, n)
            if y in images:
                return _fail(name, n, f"slot {i} merges {images[y]} and {(x.a, x.b)}")
            images[y] = (x.a, x.b)
            if i % 2 and not is_noncrossing([y, Arc(i, i)]):
                return _fail(name, n, f"slot {i} image {(y.a, y.b)} crosses the unit arc")
        for x1 in small:
            for x2 in small:
                if x1 < x2 and is_noncrossing([x1, x2]):
                    if not is_noncrossing([shift_arc(i, x1, n), shift_arc(i, x2, n)]):
                        return _fail(
                            name,
                            n,
                            f"slot {i} breaks pair {(x1.a, x1.b)}, {(x2.a, x2.b)}",
                        )
    return _ok(name, n)


def check_embedding_compat(n: int) -> CheckResult:
    """Spanning after a slot extension equals embedding the smaller span."""
    name = "embedding-compat"
    for seq in enumerate_noncrossing(n - 2):
        inner = span_arcs(seq, n - 2)
        for i in range(1, n + 1):
            direct = COLLECTION.step(i, inner, n)
            via_arcs = span_arcs(extend_seq(i, seq, n), n)
            if direct != via_arcs:
                return _fail(
                    name, n, f"slot {i} on {seq.to_json()}: {direct.to_json()} != {via_arcs.to_json()}"
                )
    return _ok(name, n)


def check_roundtrip(n: int) -> CheckResult:
    name = "decompose-roundtrip"
    for seq in enumerate_noncrossing(n):
        if not len(seq):
            continue
        i, smaller = decompose(seq, n)
        back = extend_seq(i, smaller, n)
        if back != seq:
            return _fail(name, n, f"{seq.to_json()} -> ({i}, {smaller.to_json()}) -> {back.to_json()}")
    return _ok(name, n)


def check_inductive_closure(n: int) -> CheckResult:
    """The extend-generated family equals the directly enumerated one."""
    name = "inductive-closure"
    generated = {ArcSequence()}
    for m in range(2, n + 1, 2):
        generated = layer(extend_seq, m, generated, ArcSequence())
    direct = set(enumerate_noncrossing(n))
    if generated != direct:
        diff = sorted(generated ^ direct, key=seq_key)[0]
        return _fail(name, n, f"sets differ at {diff.to_json()}")
    return _ok(name, n)


def check_oracle_noncrossing(n: int, budget: oracle_mod.OracleBudget | None = None) -> CheckResult:
    name = "oracle-noncrossing"
    direct = oracle_mod.noncrossing_direct(n, budget)
    fast = sorted(enumerate_noncrossing(n), key=seq_key)
    if direct != fast:
        return _fail(name, n, f"{len(direct)} filtered vs {len(fast)} enumerated")
    return _ok(name, n)


def check_oracle_subspace_counts(n: int, budget: oracle_mod.OracleBudget | None = None) -> CheckResult:
    name = "oracle-subspace-counts"
    for k in range(n + 1):
        got = len(oracle_mod.all_subspaces(n, dim_filter=k, budget=budget))
        want = gaussian_binomial(n, k)
        if got != want:
            return _fail(name, n, f"dim {k}: {got} cells vs gaussian binomial {want}")
    return _ok(name, n)


def check_oracle_families(n: int, budget: oracle_mod.OracleBudget | None = None) -> CheckResult:
    """Brute-force isotropic subspaces against the family tables.

    Family members must all appear isotropic and classify to their own level;
    the line test does not detect membership among arbitrary isotropic
    subspaces, so exactness is asserted relative to the family union.
    """
    name = "oracle-families"
    table = build_families(n)
    iso = set(oracle_mod.all_isotropic(n, budget=budget))
    fam = table.f0 | table.f1
    if not fam <= iso:
        missing = sorted(fam - iso, key=subspace_key)[0]
        return _fail(name, n, f"family member not in brute-force list: {missing.to_json()}")
    for E in sorted(fam, key=subspace_key):
        kind, _ = classify_by_lines(E)
        want = "f0" if E in table.f0 else "f1"
        if kind != want:
            return _fail(name, n, f"{E.to_json()} classifies as {kind}, expected {want}")
    return _ok(name, n)


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

# the OracleBudget field that caps the ambient dimension of each oracle check;
# keyed by name, which survives wrapping the checks (functools.wraps)
ORACLE_CAPS = {
    "check_oracle_noncrossing": "max_odd_dim",
    "check_oracle_subspace_counts": "max_dim",
    "check_oracle_families": "max_dim",
}


def run_checks(
    d_min: int,
    d_max: int,
    oracle: bool = False,
    budget: oracle_mod.OracleBudget | None = None,
) -> tuple[list[CountReport], list[CheckResult], list[tuple[int, str]]]:
    """Counts plus identity checks for every even D in [d_min, d_max]; with
    oracle, the (D, check name) pairs above the check's cap come back skipped."""
    if d_min < 2 or d_min % 2 or d_max % 2 or d_max < d_min:
        raise ValueError(f"need even bounds with 2 <= D-min <= D-max, got [{d_min}, {d_max}]")
    budget = budget or oracle_mod.OracleBudget()
    reports = []
    results = []
    skipped = []
    for n in range(d_min, d_max + 1, 2):
        reports.append(verify_counts(n))
        for check in BASE_CHECKS:
            results.append(check(n))
        if oracle:
            for check in ORACLE_CHECKS:
                if n <= getattr(budget, ORACLE_CAPS[check.__name__]):
                    results.append(check(n, budget))
                else:
                    skipped.append((n, check.__name__))
    return reports, results, skipped
