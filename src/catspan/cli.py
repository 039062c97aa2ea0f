"""Command-line front end.  Exit codes: 0 pass, 1 verification failure, 2 usage."""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from itertools import chain
from typing import Iterable, Iterator

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


def _members(kind: str, n: int) -> list[tuple]:
    """One level in canonical order, each member rendered once to its parts, whose
    number is its grade: an arc set's (a, b) pairs or a subspace's basis strings."""
    if kind == "arcs":
        return [pairs for _, pairs in map(seq_key, enumerate_noncrossing(n))]
    walk = members({"f0": F0, "f1": F1, "lagrangian": F0, "collection": COLLECTION}[kind], n)
    if kind == "lagrangian":
        walk = (E for E in walk if 2 * E.dim == n)
    # canonical RREF makes each key unique, so sorting the keys sorts the members
    return [rows for _, rows in sorted(map(subspace_key, walk))]


def _csv_header(kind: str) -> list[str]:
    return ["D", "kind", "s", "arcs"] if kind == "arcs" else ["D", "kind", "dim", "basis"]


def _csv_rows(kind: str, n: int, members: list[tuple]) -> Iterator[list]:
    for parts in members:
        cells = [f"{a}-{b}" for a, b in parts] if kind == "arcs" else parts
        yield [n, kind, len(parts), "|".join(cells)]


def _write_csv(fh, header: list[str], rows: Iterable[list]) -> None:
    import csv
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _write_json(fh, n: int, kind: str, lists: dict[str, list[tuple]]) -> None:
    """Write {"D": n, KEY: [member, ...], ...} in the bytes of json.dump(..., indent=2),
    laying out one member at a time, never a whole table as one string."""
    fh.write(f'{{\n  "D": {n}')
    for key, members in lists.items():
        fh.write(f',\n  "{key}": [')
        for i, parts in enumerate(members):
            if kind == "arcs":
                arcs = ",\n      ".join(f"[\n        {a},\n        {b}\n      ]" for a, b in parts)
                text = f"[\n      {arcs}\n    ]" if parts else "[]"
            else:
                basis = '[\n        "' + '",\n        "'.join(parts) + '"\n      ]' if parts else "[]"
                text = f'{{\n      "D": {n},\n      "basis": {basis}\n    }}'
            fh.write((",\n    " if i else "\n    ") + text)
        fh.write("\n  ]" if members else "]")
    fh.write("\n}")


def cmd_enumerate(args: argparse.Namespace) -> int:
    n, kind = args.D, args.kind
    members = [m for m in _members(kind, n) if args.grade is None or len(m) == args.grade]
    if args.format == "json":
        shown = members if kind == "arcs" else [{"D": n, "basis": rows} for rows in members]
        print(json.dumps({"D": n, "kind": kind, "members": shown}))
    elif args.format == "csv":
        _write_csv(sys.stdout, _csv_header(kind), _csv_rows(kind, n, members))
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
    from .conjecture import gl_match, load_family
    fam = load_family(args.family)
    result = gl_match(fam)
    print(json.dumps(result.to_json(fam.d)))
    if result.reason is not None:
        print(f"reason: {result.reason}", file=sys.stderr)
    return 0 if result.found else 1


def _export(out, stem: str, header: list[str], rows: Iterable[list], write_json) -> None:
    """Write one table as OUT/STEM.csv, then OUT/STEM.json (write_json(fh) and a newline)."""
    path = out / f"{stem}.csv"
    with path.open("w", encoding="utf-8") as fh:
        _write_csv(fh, header, rows)
    print(f"wrote {path}")
    path = out / f"{stem}.json"
    with path.open("w", encoding="utf-8") as fh:
        write_json(fh)
        fh.write("\n")
    print(f"wrote {path}")


def cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path
    from .counting import verify_counts
    n = args.D
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # one table at a time, in file-name order
    for kind in ("arcs", "collection"):
        members = _members(kind, n)
        dump = partial(_write_json, n=n, kind=kind, lists={"members": members})
        _export(out, kind, _csv_header(kind), _csv_rows(kind, n, members), dump)
    counts = verify_counts(n)
    header = ["D", "label", "observed", "expected", "pass"]
    records = [dict(zip(header, (r.D, r.label, r.observed, r.expected, r.passed))) for r in counts]
    csv_rows = ([r.D, r.label, r.observed, r.expected, str(r.passed).lower()] for r in counts)
    _export(out, "counts", header, csv_rows, partial(json.dump, {"D": n, "rows": records}, indent=2))
    f0, f1 = _members("f0", n), _members("f1", n)
    rows = chain(_csv_rows("f0", n, f0), _csv_rows("f1", n, f1))
    dump = partial(_write_json, n=n, kind="f0", lists={"f0": f0, "f1": f1})
    _export(out, "families", _csv_header("f0"), rows, dump)
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
