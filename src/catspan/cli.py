"""Command-line front end.  Exit codes: 0 pass, 1 verification failure, 2 usage."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .conjecture import gl_match, load_family
from .counting import verify_counts
from .families import build_families, level_down, level_up
from .gf2 import Subspace, subspace_key
from .noncrossing import (
    ArcSequence,
    arcs_of,
    build_collection,
    decompose,
    enumerate_noncrossing,
    from_lagrangian,
    span_arcs,
    to_lagrangian,
)
from .oracle import BUDGET_VARS, OracleBudget
from .verify import ORACLE_CAPS, run_checks

SUBSPACE_KINDS = ("f0", "f1", "lagrangian", "collection")
# map ops that take a subspace; span-arcs and decompose take an arc set
SUBSPACE_MAPS = {
    "arcs-of": arcs_of,
    "level-down": level_down,
    "level-up": level_up,
    "lagrangian": to_lagrangian,
    "unlagrangian": from_lagrangian,
}
MAP_OPS = ("span-arcs", *SUBSPACE_MAPS, "decompose")


def _even(value: str) -> int:
    n = int(value)
    if n < 2 or n % 2:
        raise argparse.ArgumentTypeError(f"expected an even dimension >= 2, got {value}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catspan",
        description="Isotropic subspace families over GF(2) and their noncrossing combinatorics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="print one table in canonical order")
    p.add_argument("--kind", required=True, choices=SUBSPACE_KINDS + ("arcs",))
    p.add_argument("--D", required=True, type=_even, dest="D")
    p.add_argument("--grade", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("verify", help="run the identity and counting checks")
    p.add_argument("--D-min", type=_even, default=2, dest="d_min")
    p.add_argument("--D-max", required=True, type=_even, dest="d_max")
    p.add_argument("--oracle", action="store_true", help="add brute-force cross-checks")

    p = sub.add_parser("map", help="apply one bijection to a JSON-encoded input")
    p.add_argument("--op", required=True, choices=MAP_OPS)
    p.add_argument("--D", required=True, type=_even, dest="D")
    p.add_argument("--input", required=True, help="JSON literal")

    p = sub.add_parser("match", help="check a subgroup family file for GL-equivalence")
    p.add_argument("--family", required=True)

    p = sub.add_parser("export", help="write every table for one dimension")
    p.add_argument("--D", required=True, type=_even, dest="D")
    p.add_argument("--out", required=True)
    return parser


def _sorted_subspaces(kind: str, n: int) -> list[Subspace]:
    if kind == "collection":
        return build_collection(n).sorted_members()
    table = build_families(n)
    pick = {"f0": table.f0, "f1": table.f1, "lagrangian": table.f0_lagrangian}[kind]
    return sorted(pick, key=subspace_key)


def _csv_out(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _subspace_csv(kind: str, n: int, members: list[Subspace]) -> list[list[str]]:
    out = [["D", "kind", "dim", "basis"]]
    for E in members:
        basis = "|".join(s for s in (E.to_json()["basis"]))
        out.append([str(n), kind, str(E.dim), basis])
    return out


def _arcs_csv(n: int, seqs: list[ArcSequence]) -> list[list[str]]:
    out = [["D", "kind", "s", "arcs"]]
    for seq in seqs:
        arcs = "|".join(f"{x.a}-{x.b}" for x in seq)
        out.append([str(n), "arcs", str(len(seq)), arcs])
    return out


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.D
    if args.kind == "arcs":
        seqs = [
            seq
            for seq in enumerate_noncrossing(n)
            if args.grade is None or len(seq) == args.grade
        ]
        if args.format == "json":
            print(json.dumps({"D": n, "kind": "arcs", "members": [s.to_json() for s in seqs]}))
        elif args.format == "csv":
            sys.stdout.write(_csv_out(_arcs_csv(n, seqs)))
        else:
            for seq in seqs:
                arcs = " ".join(f"({x.a},{x.b})" for x in seq) or "-"
                print(f"s={len(seq)} arcs={arcs}")
        return 0
    members = [
        E
        for E in _sorted_subspaces(args.kind, n)
        if args.grade is None or E.dim == args.grade
    ]
    if args.format == "json":
        print(json.dumps({"D": n, "kind": args.kind, "members": [E.to_json() for E in members]}))
    elif args.format == "csv":
        sys.stdout.write(_csv_out(_subspace_csv(args.kind, n, members)))
    else:
        for E in members:
            basis = "|".join(E.to_json()["basis"]) or "-"
            print(f"dim={E.dim} basis={basis}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    budget = OracleBudget.from_env()
    reports, results, skipped = run_checks(args.d_min, args.d_max, args.oracle, budget)
    for name, field in ORACLE_CAPS.items():
        dims = ", ".join(str(D) for D, skip in skipped if skip == name)
        if dims:
            cap = f"{BUDGET_VARS[field]}={getattr(budget, field)}"
            print(f"skipped {name} at D={dims}: above {cap}", file=sys.stderr)
    first_failure: str | None = None
    for report in reports:
        for row in report.rows:
            word = "PASS" if row.passed else "FAIL"
            print(
                f"D={row.D} count {row.label} observed={row.observed} "
                f"expected={row.expected} {word}"
            )
            if not row.passed and first_failure is None:
                first_failure = (
                    f"D={row.D} count {row.label}: observed {row.observed}, "
                    f"expected {row.expected}"
                )
    for res in results:
        word = "PASS" if res.ok else "FAIL"
        print(f"D={res.D} check {res.name} {word}")
        if not res.ok and first_failure is None:
            first_failure = f"D={res.D} {res.name}: {res.counterexample}"
    if first_failure is not None:
        print(f"first failure: {first_failure}")
        return 1
    print("all checks passed")
    return 0


def _subspace_in(payload, n: int) -> Subspace:
    if not isinstance(payload, dict) or "basis" not in payload:
        raise ValueError("expected a subspace object with a 'basis' key")
    E = Subspace.from_json({"D": n, **payload})
    if E.n != n:
        raise ValueError(f"input D={payload['D']!r} disagrees with --D {n}")
    return E


def cmd_map(args: argparse.Namespace) -> int:
    n = args.D
    payload = json.loads(args.input)
    if args.op in SUBSPACE_MAPS:
        out = SUBSPACE_MAPS[args.op](_subspace_in(payload, n)).to_json()
    elif args.op == "span-arcs":
        out = span_arcs(ArcSequence.from_json(payload), n).to_json()
    else:
        i, rest = decompose(ArcSequence.from_json(payload), n)
        out = {"i": i, "rest": rest.to_json()}
    print(json.dumps(out))
    return 0


def cmd_match(args: argparse.Namespace) -> int:
    fam = load_family(args.family)
    result = gl_match(fam)
    print(json.dumps(result.to_json(fam.d)))
    if result.reason is not None:
        print(f"reason: {result.reason}", file=sys.stderr)
    return 0 if result.found else 1


def cmd_export(args: argparse.Namespace) -> int:
    n = args.D
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    table = build_families(n)
    coll = build_collection(n)
    seqs = list(enumerate_noncrossing(n))
    report = verify_counts(n)

    files = {
        "families.json": json.dumps(table.to_json(), indent=2) + "\n",
        "collection.json": json.dumps(coll.to_json(), indent=2) + "\n",
        "arcs.json": json.dumps({"D": n, "members": [s.to_json() for s in seqs]}, indent=2) + "\n",
        "counts.json": json.dumps(
            {
                "D": n,
                "rows": [
                    {
                        "D": r.D,
                        "label": r.label,
                        "observed": r.observed,
                        "expected": r.expected,
                        "pass": r.passed,
                    }
                    for r in report.rows
                ],
            },
            indent=2,
        )
        + "\n",
        "families.csv": _csv_out(
            _subspace_csv("f0", n, table.sorted_f0()) + _subspace_csv("f1", n, table.sorted_f1())[1:]
        ),
        "collection.csv": _csv_out(_subspace_csv("collection", n, coll.sorted_members())),
        "arcs.csv": _csv_out(_arcs_csv(n, seqs)),
        "counts.csv": _csv_out(report.to_csv_rows()),
    }
    for name in sorted(files):
        path = out / name
        path.write_text(files[name], encoding="utf-8")
        print(f"wrote {path}")
    return 0


COMMANDS = {
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "map": cmd_map,
    "match": cmd_match,
    "export": cmd_export,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
