"""Command-line front end.  Exit codes: 0 pass, 1 verification failure, 2 usage."""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from typing import Iterable

from .families import level_down, level_up
from .gf2 import Subspace, subspace_key
from .noncrossing import (
    ArcSequence,
    arcs_of,
    decompose,
    enumerate_noncrossing,
    from_lagrangian,
    seq_key,
    span_arcs,
    to_lagrangian,
)
from .slots import COLLECTION, F0, F1, members

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


def _members(kind: str, n: int) -> Iterable[tuple]:
    """One level in canonical order, each member rendered once to its parts, whose
    number is its grade: an arc set's (a, b) pairs or a subspace's basis strings.
    f0, f1 and lagrangian come one grade, one walk start m, at a time: subspace_key
    sorts by dimension first, so grades sorted alone and chained by ascending
    dimension are the canonical order."""
    if kind == "arcs":
        return [pairs for _, pairs in map(seq_key, enumerate_noncrossing(n))]
    rule = {"f0": F0, "f1": F1, "lagrangian": F0, "collection": COLLECTION}[kind]
    # one collection walk: its grade is not fixed by its start
    starts = {"collection": [None], "lagrangian": [0]}.get(kind, range(n, 2 * rule.full_base - 1, -2))
    # canonical RREF makes each key unique, so sorting the keys sorts the members
    walks = (sorted(map(subspace_key, members(rule, n, m))) for m in starts)
    return (rows for _, rows in chain.from_iterable(walks))


def _csv_header(kind: str) -> list[str]:
    return ["D", "kind", "s", "arcs"] if kind == "arcs" else ["D", "kind", "dim", "basis"]


def _csv_row(kind: str, n: int, parts: tuple) -> list:
    cells = [f"{a}-{b}" for a, b in parts] if kind == "arcs" else parts
    return [n, kind, len(parts), "|".join(cells)]


def _json_member(kind: str, n: int, parts: tuple) -> str:
    """One member as json.dump(..., indent=2) lays it out in a list under a top-level key."""
    if kind == "arcs":
        arcs = ",\n      ".join(f"[\n        {a},\n        {b}\n      ]" for a, b in parts)
        return f"[\n      {arcs}\n    ]" if parts else "[]"
    basis = '[\n        "' + '",\n        "'.join(parts) + '"\n      ]' if parts else "[]"
    return f'{{\n      "D": {n},\n      "basis": {basis}\n    }}'


def cmd_enumerate(args: argparse.Namespace) -> int:
    n, kind = args.D, args.kind
    members = [m for m in _members(kind, n) if args.grade is None or len(m) == args.grade]
    if args.format == "json":
        shown = members if kind == "arcs" else [{"D": n, "basis": rows} for rows in members]
        print(json.dumps({"D": n, "kind": kind, "members": shown}))
    elif args.format == "csv":
        import csv
        rows = [_csv_header(kind)] + [_csv_row(kind, n, parts) for parts in members]
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    elif kind == "arcs":
        for pairs in members:
            print(f"s={len(pairs)} arcs={' '.join(f'({a},{b})' for a, b in pairs) or '-'}")
    else:
        for rows in members:
            print(f"dim={len(rows)} basis={'|'.join(rows) or '-'}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .oracle import BUDGET_VARS, OracleBudget
    from .verify import ORACLE_CHECKS, run_checks
    budget = OracleBudget.from_env()
    counts, results, skipped = run_checks(args.d_min, args.d_max, args.oracle, budget)
    for check in ORACLE_CHECKS:
        dims = ", ".join(str(D) for D, skip in skipped if skip == check.__name__)
        if dims:
            cap = f"{BUDGET_VARS[check.cap]}={getattr(budget, check.cap)}"
            print(f"skipped {check.__name__} at D={dims}: above {cap}", file=sys.stderr)
    first_failure: str | None = None
    for row in counts:
        word = "PASS" if row.passed else "FAIL"
        print(f"D={row.D} count {row.label} observed={row.observed} expected={row.expected} {word}")
        if not row.passed and first_failure is None:
            first_failure = f"D={row.D} count {row.label}: observed {row.observed}, expected {row.expected}"
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
    from .conjecture import gl_match, load_family
    fam = load_family(args.family)
    result = gl_match(fam)
    print(json.dumps(result.to_json(fam.d)))
    if result.reason is not None:
        print(f"reason: {result.reason}", file=sys.stderr)
    return 0 if result.found else 1


def _export(out, n: int, stem: str, kinds: dict[str, str]) -> tuple[list, dict[str, list[int]]]:
    """Write OUT/STEM.csv and OUT/STEM.json, {"D": n, KEY: [member, ...], ...} in the
    bytes of json.dump(..., indent=2), in one pass over the members of each KEY's kind.
    Return both paths and each kind's member count per grade 0..n."""
    import csv
    paths = [out / f"{stem}.csv", out / f"{stem}.json"]
    tally = {kind: [0] * (n + 1) for kind in kinds.values()}
    with paths[0].open("w", encoding="utf-8") as csv_fh, paths[1].open("w", encoding="utf-8") as fh:
        row = csv.writer(csv_fh, lineterminator="\n").writerow
        row(_csv_header(stem))  # families: the basis header that f0 and f1 share
        fh.write(f'{{\n  "D": {n}')
        for key, kind in kinds.items():
            fh.write(f',\n  "{key}": [')
            sep = "\n    "
            for parts in _members(kind, n):
                tally[kind][len(parts)] += 1
                row(_csv_row(kind, n, parts))
                fh.write(sep + _json_member(kind, n, parts))
                sep = ",\n    "
            fh.write("]" if sep == "\n    " else "\n  ]")
        fh.write("\n}\n")
    return paths, tally


def cmd_export(args: argparse.Namespace) -> int:
    import csv
    from pathlib import Path
    from .counting import count_rows
    n = args.D
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths, tally = {}, {}
    # the counts are tallied from the tables as they are written, so they come last
    for stem, kinds in [("arcs", {"members": "arcs"}), ("collection", {"members": "collection"}),
                        ("families", {"f0": "f0", "f1": "f1"})]:
        paths[stem], counted = _export(out, n, stem, kinds)
        tally.update(counted)
    counts = count_rows(n, tally["f0"], tally["f1"], tally["collection"], tally["arcs"])
    header = ["D", "label", "observed", "expected", "pass"]
    paths["counts"] = [out / "counts.csv", out / "counts.json"]
    with paths["counts"][0].open("w", encoding="utf-8") as fh:
        rows = [[r.D, r.label, r.observed, r.expected, str(r.passed).lower()] for r in counts]
        csv.writer(fh, lineterminator="\n").writerows([header] + rows)
    records = [dict(zip(header, (r.D, r.label, r.observed, r.expected, r.passed))) for r in counts]
    paths["counts"][1].write_text(json.dumps({"D": n, "rows": records}, indent=2) + "\n", encoding="utf-8")
    for stem in sorted(paths):  # file-name order
        for path in paths[stem]:
            print(f"wrote {path}")
    return 0


COMMANDS = {"enumerate": cmd_enumerate, "verify": cmd_verify, "map": cmd_map,
            "match": cmd_match, "export": cmd_export}


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
