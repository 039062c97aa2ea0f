"""Command-line front end.  Exit codes: 0 pass, 1 verification failure, 2 usage."""

from __future__ import annotations

import argparse
import json
import sys
from itertools import groupby, islice
from typing import Iterator

from .families import level_down, level_up
from .gf2 import Subspace
from .noncrossing import (ArcSequence, arcs_of, decompose, enumerate_noncrossing, from_lagrangian, span_arcs,
                          to_lagrangian)
from .slots import COLLECTION, F0, F1, packed

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
CHUNK = 256  # members of one grade laid out and written at once; only one chunk and one sorted grade are alive


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


def _grades(kind: str, n: int) -> Iterator[tuple[int, Iterator]]:
    """(k, its members) for each grade k of a table, in canonical order.  The arc sets stream in
    that order, grade by grade; a subspace's member is its joined basis string.  A run's rows come
    joined from one format call on its word, member c the n * dims[c] chars at W * c, and joined
    strings of one length n * k sort as subspace_key; a start m of f0, f1 or lagrangian is one
    grade, sorted alone, and the collection's one start sorts by (length, string)."""
    if kind == "arcs":
        yield from groupby(enumerate_noncrossing(n), len)
        return
    rule = {"f0": F0, "f1": F1, "lagrangian": F0, "collection": COLLECTION}[kind]
    starts = {"collection": [None], "lagrangian": [0]}.get(kind, range(n, 2 * rule.full_base - 1, -2))
    key = (lambda s: (len(s), s)) if kind == "collection" else None
    for m in starts:  # no name holds a sorted start, so it is freed before the next is sorted
        words = (s[W * c:W * c + n * k] for W, word, dims in packed(rule, n, m)
                 for s in [format(word | 1 << W * len(dims), "b")[:0:-1]] for c, k in enumerate(dims))
        for length, grade in groupby(sorted(words, key=key), len):
            yield length // n, grade


# a grade-k subspace's entry in each format: head, row separator, tail and the zero's entry;
# a json entry, compact or export's indent 2, opens with the separator from the entry before it
PARTS = {"csv": ("{n},{kind},{k},", "|", "\n", "{n},{kind},0,\n"),
         "text": ("dim={k} basis=", "|", "\n", "dim=0 basis=-\n"),
         "json": (', {{"D": {n}, "basis": ["', '", "', '"]}}', ', {{"D": {n}, "basis": []}}'),
         "export": (',\n    {{\n      "D": {n},\n      "basis": [\n        "', '",\n        "', '"\n      ]\n    }}',
                    ',\n    {{\n      "D": {n},\n      "basis": []\n    }}')}


def _layout(parts: list[str], n: int, k: int, words: list[str]) -> bytearray:
    """The entries of words, grade-k members whose k rows of n chars come joined, one after
    another.  Every entry of a grade has one width L, so the template is repeated and each
    of the n * k row columns goes in with one strided copy."""
    head, sep, tail, zero = parts
    template = (head + sep.join(["\0" * n] * k) + tail if k else zero).encode()
    out, L, joined = bytearray(template) * len(words), len(template), "".join(words).encode()
    for i in range(n * k):  # column i % n of row i // n, after i // n row separators
        out[len(head) + i // n * len(sep) + i::L] = joined[i::n * k]
    return out


# a grade-k arc set's entry in each format: head, arc separator, tail, the empty set's entry and one arc's text
ARC_PARTS = {"csv": ("{n},arcs,{k},", "|", "\n", "{n},arcs,0,\n", "%d-%d"),
             "text": ("s={k} arcs=", " ", "\n", "s=0 arcs=-\n", "(%d,%d)"),
             "json": (", [", ", ", "]", ", []", "[%d, %d]"),
             "export": (",\n    [\n      ", ",\n      ", "\n    ]", ",\n    []",
                        "[\n        %d,\n        %d\n      ]")}


def _join(parts: list[str], n: int, k: int, sets: list[ArcSequence]) -> bytes:
    """The entries of sets, grade-k arc sets: each arc's text is formatted once, then joined per set."""
    head, sep, tail, zero, arc = parts
    texts = {x: arc % x for x in set().union(*sets)}
    return "".join([head + sep.join([texts[x] for x in seq]) + tail if k else zero for seq in sets]).encode()


def _csv_header(kind: str) -> str:
    return "D,kind,s,arcs\n" if kind == "arcs" else "D,kind,dim,basis\n"


def _entries(kind: str, n: int, fmts: tuple[str, ...], grade: int | None = None) -> Iterator[tuple]:
    """(grade, member count, their entries in each of fmts) for one table in canonical order, up to
    CHUNK members of one grade at a time: subspaces laid out in strided copies, arc sets joined."""
    table, layout = (ARC_PARTS, _join) if kind == "arcs" else (PARTS, _layout)
    for k, members in _grades(kind, n):
        parts = [[part.format(n=n, kind=kind, k=k) for part in table[fmt]] for fmt in fmts]
        while grade in (None, k) and (chunk := list(islice(members, CHUNK))):
            yield k, len(chunk), [layout(p, n, k, chunk) for p in parts]


def cmd_enumerate(args: argparse.Namespace) -> int:
    n, kind, fmt = args.D, args.kind, args.format
    sys.stdout.write({"csv": _csv_header(kind), "text": ""}.get(fmt, f'{{"D": {n}, "kind": "{kind}", "members": ['))
    skip = 2 if fmt == "json" else 0  # the first entry's ", "
    for _, _, (entries,) in _entries(kind, n, (fmt,), args.grade):  # streamed, one chunk at a time
        sys.stdout.write(entries[skip:].decode())
        skip = 0
    sys.stdout.write("]}\n" if fmt == "json" else "")
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
    paths = [out / f"{stem}.csv", out / f"{stem}.json"]
    tally = {kind: [0] * (n + 1) for kind in kinds.values()}
    with paths[0].open("wb") as csv_fh, paths[1].open("wb") as fh:
        csv_fh.write(_csv_header(stem).encode())  # families: the basis header that f0 and f1 share
        fh.write(f'{{\n  "D": {n}'.encode())
        for key, kind in kinds.items():
            fh.write(f',\n  "{key}": ['.encode())
            skip = 1  # the first entry's comma
            for k, count, (lines, entries) in _entries(kind, n, ("csv", "export")):
                tally[kind][k] += count
                csv_fh.write(lines)
                fh.write(memoryview(entries)[skip:])
                skip = 0
            fh.write(b"]" if skip else b"\n  ]")
        fh.write(b"\n}\n")
    return paths, tally


def cmd_export(args: argparse.Namespace) -> int:
    from pathlib import Path
    from .counting import count_rows
    n, out = args.D, Path(args.out)
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
    rows = [header] + [[r.D, r.label, r.observed, r.expected, str(r.passed).lower()] for r in counts]
    paths["counts"][0].write_text("".join(",".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")
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
