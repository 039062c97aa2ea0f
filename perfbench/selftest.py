"""Self-test of the benchmark harness at tiny sizes (export D=4, verify
D-max 4, queries at D=4 and d=2).

Usage (from the root of a catspan checkout):

    python3 perfbench/selftest.py

It checks that every workload, traced and untraced, prints every metric that
BENCHMARK.json names, with its unit, and reports no failed operation; that
an injected wrong expected answer is counted as a failed operation, not
passed; and that the benchmark refuses to run without the catspan sources.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(workload: str, trace: int, expected: dict) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bench.main(
            ["--workload", workload, "--seconds", "1", "--trace", str(trace)],
            sizes=bench.TINY,
            expected=expected,
        )
    return code, buf.getvalue().splitlines()


def check_metrics(spec: dict, pinned: dict) -> None:
    for workload in bench.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_bench(workload, trace, pinned)
            where = f"{workload} --trace {trace}"
            result = json.loads(lines[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(code == 0, f"{where}: exit 0")
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
            check(got == want, f"{where}: every {key} metric with its unit")
            check(
                all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                f"{where}: numeric values",
            )
            printed = [
                name
                for name, unit in want.items()
                if any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
            ]
            check(len(printed) == len(want), f"{where}: every metric printed by name with its unit")
            check(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{where}: error_rate 0 over {result['attempted']} operations",
            )
            check(any(line.startswith("error_rate=0.0 ") for line in lines), f"{where}: error_rate printed")


def expect_counted(workload: str, expected: dict, what: str) -> None:
    code, lines = run_bench(workload, 0, expected)
    result = json.loads(lines[-1])
    check(
        code == 0 and not result["correct"] and result["failed"] >= 1,
        f"{workload}: {what} counted as failed ({result['failed']} of {result['attempted']})",
    )
    check(any(line.startswith("error_rate=") and not line.startswith("error_rate=0.0 ") for line in lines),
          f"{workload}: {what} shows in error_rate")


def flip(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


def check_injected(pinned: dict) -> None:
    tiny = bench.TINY
    wrong = copy.deepcopy(pinned)
    files = wrong[f"export --D {tiny.export_D} --out out"]["files"]
    files["arcs.csv"] = flip(files["arcs.csv"])
    expect_counted("tables", wrong, "wrong file digest")

    wrong = copy.deepcopy(pinned)
    want = wrong[f"verify --D-max {tiny.verify_D} --oracle"]
    want["stdout"] = flip(want["stdout"])
    expect_counted("verify", wrong, "wrong stdout digest")

    wrong = copy.deepcopy(pinned)
    key = f"queries D={tiny.query_D} d={tiny.match_d} seed={bench.DEFAULT_SEED}"
    wrong[key] = flip(wrong[key])
    expect_counted("queries", wrong, "wrong transcript digest")

    derive = bench.Queries._map

    def wrong_level_up(self, op, payload, answer):
        req = derive(self, op, payload, answer)
        if op == "level-up":
            req.expect_stdout = req.expect_stdout.replace(b"1", b"0", 1)
        return req

    bench.Queries._map = wrong_level_up
    try:
        expect_counted("queries", pinned, "wrong derived level-up answer")
    finally:
        bench.Queries._map = derive


def check_refuses_without_sources() -> None:
    src = bench.SRC
    bench.SRC = src.parent / "no-such-src"
    try:
        code, lines = run_bench("tables", 0, {})
    finally:
        bench.SRC = src
    check(code != 0 and not lines, "refuses to run without catspan sources, printing no result")


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pinned = json.loads(bench.EXPECTED.read_text(encoding="utf-8"))
    check_metrics(spec, pinned)
    check_injected(pinned)
    check_refuses_without_sources()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
