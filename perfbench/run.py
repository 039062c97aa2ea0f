"""End-to-end benchmark of the catspan command-line tool.

Usage (from the root of a catspan checkout):

    python3 perfbench/run.py --workload {tables,verify,queries}
                             [--seed N] [--seconds S] [--trace 0|1]

The tool runs from ./src exactly as its console script would, one program
process at a time, in a closed loop with a single client.  Every invocation
gets a fresh empty temporary directory as cwd, HOME and XDG_CACHE_HOME, so no
state carries between repetitions, and every output is checked.  CPU time and
peak RSS come from os.wait4 on that one child.

Workloads:
  tables   one cold `catspan export --D 16`; all 8 files checked by sha256.
  verify   one cold `catspan verify --D-max 14 --oracle`; stdout by sha256.
  queries  streams of single-element requests, one cold process each: the
           seven `map` ops at D=14 and two `match` calls at d=5 (a GL
           translate that must exit 0, an altered family that must exit 1).
           Inputs come from --seed; answers are derived at set-up.

With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric.  With --trace 1 untraced units alternate with units whose
commands run under tracer.py, and the JSON object holds the per-layer metrics
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
TRACER = HERE / "tracer.py"
EXPECTED = HERE / "expected.json"

# identical to the console script that pyproject.toml declares
LAUNCH = ["-c", "import sys; from catspan.cli import main; sys.exit(main())"]
DEFAULT_SEED = 1
IMPORT_PROBES = 6  # cold imports before each unit and after the last
PROBE_LOOP = 8000  # iterations of the host-speed probe loop
PROBE_EVERY_S = 0.05
# Median time of one probe loop on the machine that results/README.md
# describes; end-to-end times are reported at this speed.  Never change it:
# it fixes the scale of every recorded time.
NOMINAL_LOOP_S = 0.00062
TRACED_PAIRS = 2  # least number of untraced/traced unit pairs
CHILD_TIMEOUT_S = 150
TRANSCRIPT_STREAMS = 2
MAP_OPS = ("span-arcs", "arcs-of", "level-down", "level-up", "lagrangian", "unlagrangian", "decompose")
LEVELS = tuple(range(2, 17, 2))


@dataclass(frozen=True)
class Sizes:
    export_D: int = 16
    verify_D: int = 14
    query_D: int = 14
    match_d: int = 5


FULL = Sizes()
TINY = Sizes(export_D=4, verify_D=4, query_D=4, match_d=2)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
)

CHECK_NAMES = (
    "families-isotropic",
    "level-bijection",
    "arc-bijection",
    "lagrangian-correspondence",
    "shift-lemmas",
    "embedding-compat",
    "decompose-roundtrip",
    "inductive-closure",
    "oracle-noncrossing",
    "oracle-subspace-counts",
    "oracle-families",
)

SELF_TIMED = (
    ("families.build_families", "families.lines_in", "families.level_down", "families.level_up")
    + tuple(
        f"noncrossing.{f}"
        for f in (
            "build_collection",
            "enumerate_noncrossing",
            "arcs_of",
            "to_lagrangian",
            "from_lagrangian",
            "decompose",
        )
    )
    + ("counting.verify_counts",)
    + tuple(f"verify.{c}" for c in CHECK_NAMES)
    + ("oracle.all_subspaces", "oracle.all_isotropic", "oracle.noncrossing_direct")
    + ("conjecture.gl_match", "conjecture.fingerprint", "conjecture.collection_as_plain")
)

PER_LAYER = (
    (
        ("gf2.span_masks.calls", "count"),
        ("gf2.span_masks.self_s", "s"),
        ("gf2.intersection.calls", "count"),
        ("gf2.null_space.calls", "count"),
    )
    + tuple((f"{name}.self_s", "s") for name in SELF_TIMED)
    + tuple((f"families.build_families.D{n}.self_s", "s") for n in LEVELS)
    + (
        ("families.build_families.members", "count"),
        ("families.build_families.candidates_per_member", "ratio"),
        ("families.lines_in.calls", "count"),
        ("noncrossing.extend_seq.calls", "count"),
        ("conjecture.gl_match.tried", "count"),
        ("cli.render.self_s", "s"),
        ("cli.output_bytes", "count"),
    )
    + tuple((f"cli.map.{op}.p50_ms", "ms") for op in MAP_OPS)
    + (
        ("cli.match.p50_ms", "ms"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    )
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- processes


@dataclass
class Run:
    """One finished program process."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    cwd: Path
    trace: dict | None


def _spawn(argv: list[str], box: Path, cwd: Path) -> Run:
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "HOME": str(cwd),
        "XDG_CACHE_HOME": str(cwd),
        "PYTHONPATH": str(SRC),
    }
    with open(box / "stdout", "wb") as out, open(box / "stderr", "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    # wait4 reaped the child; tell Popen so it never waits again
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        code=proc.returncode,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        stdout=(box / "stdout").read_bytes(),
        stderr=(box / "stderr").read_bytes(),
        cwd=cwd,
        trace=None,
    )


@contextmanager
def fresh_box():
    """A temporary directory holding an empty cwd; removed afterwards."""
    WORK.mkdir(exist_ok=True)
    box = Path(tempfile.mkdtemp(dir=WORK))
    try:
        cwd = box / "cwd"
        cwd.mkdir()
        yield box, cwd
    finally:
        shutil.rmtree(box, ignore_errors=True)


@contextmanager
def invoke(args: list[str], trace: bool = False, inputs: dict[str, bytes] | None = None):
    """Run `catspan ARGS` in a fresh box; input files sit beside the empty cwd."""
    with fresh_box() as (box, cwd):
        for name, data in (inputs or {}).items():
            (box / name).write_bytes(data)
        spans = box / "spans.json"
        argv = [str(TRACER), str(spans), *args] if trace else [*LAUNCH, *args]
        run = _spawn(argv, box, cwd)
        if trace and spans.exists():
            run.trace = json.loads(spans.read_text(encoding="utf-8"))
        yield run


def python_c(code: str) -> Run:
    """Run `python -c CODE` in a fresh box; it must exit 0."""
    with fresh_box() as (box, cwd):
        run = _spawn(["-c", code], box, cwd)
    if run.code != 0:
        raise RuntimeError(f"python -c {code!r} failed: {run.stderr.decode()[-500:]}")
    return run


def check_source() -> None:
    """catspan must import from ./src.  This first import also writes the
    bytecode cache, as an install would."""
    where = Path(python_c("import catspan; print(catspan.__file__)").stdout.decode().strip())
    if SRC.resolve() not in where.resolve().parents:
        raise RuntimeError(f"catspan imports from {where}, not from {SRC}")


def import_seconds() -> float:
    """Wall time of one cold `python -c "import catspan"`."""
    return python_c("import catspan").wall


def pin_to_one_cpu() -> None:
    """Pin the benchmark, and so every process it starts, to one CPU, the
    one HostSpeed samples.  The program is single-process; cpu_s shows any
    parallelism it adds."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostSpeed:
    """Speed of the CPU the program runs on, sampled while it runs.

    The virtual CPUs of a shared host change speed by up to about 25% from
    one ten-second stretch to the next, as other tenants load the physical
    cores, and whole 40s runs fall into fast or slow phases.  This thread
    shares the program's CPU (pin_to_one_cpu) and times a fixed pure-Python
    loop every PROBE_EVERY_S, about 1% of the CPU.  The loop and the program
    slow down together, so a time divided by factor() over the window it
    was taken in reads as the time at the loop's nominal speed.  A reference
    timed between units does not track: the speed changes within a unit.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while True:
            t0 = perf_counter()
            s = 0
            for i in range(PROBE_LOOP):
                s += i * i
            self.samples.append((t0, perf_counter() - t0))
            if self._stop.wait(PROBE_EVERY_S):
                return

    def factor(self, start: float, end: float) -> float:
        """Slowdown against the nominal speed: the median loop time in
        [start, end) over NOMINAL_LOOP_S; all samples if none fall inside."""
        inside = [dt for t, dt in self.samples if start <= t < end]
        return statistics.median(inside or [dt for _, dt in self.samples]) / NOMINAL_LOOP_S


# ---------------------------------------------------------------- workloads


@dataclass
class Unit:
    """One repetition of a workload's timed phase."""

    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0
    latencies: list[tuple[str, float]] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    slowdown: float = 1.0  # HostSpeed.factor over the unit

    def record(self, kind: str, run: Run, ok: bool, output_bytes: int) -> None:
        self.cpu += run.cpu
        self.rss_mb = max(self.rss_mb, run.rss_mb)
        self.attempted += 1
        self.failed += not ok
        self.output_bytes += output_bytes
        self.latencies.append((kind, run.wall))
        if run.trace is not None:
            self.traces.append(run.trace)
        if not ok:
            print(f"FAILED {kind}: exit {run.code}; {run.stderr.decode()[-300:]!r}", file=sys.stderr)


class Command:
    """One cold CLI command per unit; stdout and any files it writes under
    ./out are checked against sha256 digests pinned in expected.json."""

    min_units = 1

    def __init__(self, args: list[str], expected: dict) -> None:
        self.args = args
        self.want = expected[" ".join(args)]

    def unit(self, trace: bool) -> Unit:
        u = Unit()
        with invoke(self.args, trace) as run:
            out = run.cwd / "out"
            files = sorted(out.iterdir()) if out.is_dir() else []
            digests = {p.name: sha256(p.read_bytes()) for p in files}
            ok = (
                run.code == 0
                and sha256(run.stdout) == self.want["stdout"]
                and digests == self.want.get("files", {})
            )
            u.wall = run.wall
            u.record(self.args[0], run, ok, len(run.stdout) + sum(p.stat().st_size for p in files))
        return u


def tables(sizes: Sizes, expected: dict, seed: int) -> Command:
    return Command(["export", "--D", str(sizes.export_D), "--out", "out"], expected)


def verify(sizes: Sizes, expected: dict, seed: int) -> Command:
    return Command(["verify", "--D-max", str(sizes.verify_D), "--oracle"], expected)


@dataclass
class Request:
    kind: str
    args: list[str]
    inputs: dict[str, bytes]
    expect_code: int
    expect_stdout: bytes | None  # None: checked by witness instead
    family: list | None = None


def _apply(rows: list[int], m: int) -> int:
    """Image of m under the matrix with the given rows (bit r = <row r, m>)."""
    out = 0
    for r, row in enumerate(rows):
        out |= ((row & m).bit_count() & 1) << r
    return out


class Queries:
    """Seeded streams of single-element requests with answers derived at set-up.

    Round-trip pairs come from the enumerated tables: an arc set and its span,
    a level-1 member and its level-down image, a collection member and its
    Lagrangian.  A match answer is checked by applying the witness.
    """

    min_units = TRANSCRIPT_STREAMS

    def __init__(self, sizes: Sizes, expected: dict, seed: int) -> None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from catspan import families, gf2, noncrossing, oracle
        from catspan.conjecture import collection_as_plain

        self.families, self.gf2, self.nc = families, gf2, noncrossing
        self.D, self.d = sizes.query_D, sizes.match_d
        self.rng = random.Random(seed)
        key = gf2.subspace_key
        table = families.build_families(self.D)
        self.f1 = sorted(table.f1, key=key)
        self.f0_sub = table.f0_sub
        self.f0_lag = table.f0_lagrangian
        self.coll = noncrossing.build_collection(self.D).sorted_members()
        self.seqs = [s for s in noncrossing.enumerate_noncrossing(self.D) if len(s)]
        self.target = sorted(collection_as_plain(self.d), key=key)
        self.target_set = frozenset(self.target)
        self.by_dim = defaultdict(list)
        for S in oracle.all_subspaces(self.d):
            if S not in self.target_set:
                self.by_dim[S.dim].append(S)
        self.want_invariant = self._invariant(self.target)
        self.want_transcript = expected.get(f"queries D={self.D} d={self.d} seed={seed}")
        self.transcript = hashlib.sha256()
        self.streams = 0

    # -- request derivation

    def _map(self, op: str, payload, answer) -> Request:
        args = ["map", "--op", op, "--D", str(self.D), "--input", json.dumps(payload)]
        return Request(f"map.{op}", args, {}, 0, (json.dumps(answer) + "\n").encode())

    def _family_file(self, members: list) -> bytes:
        subgroups = [[self.gf2.mask_to_string(r, self.d) for r in rows] for rows in members]
        self.rng.shuffle(subgroups)
        return json.dumps({"d": self.d, "subgroups": subgroups}).encode()

    def _translate(self) -> list[list[int]]:
        """Generator rows of the collection moved by a random invertible matrix."""
        while True:
            A = [self.rng.randrange(1, 1 << self.d) for _ in range(self.d)]
            if self.gf2.span_masks(A, self.d).dim == self.d:
                return [[_apply(A, r) for r in S.rows] for S in self.target]

    def _invariant(self, subspaces: list) -> list:
        return sorted(
            (A.dim, sum(1 for B in subspaces if B != A and B.contains_subspace(A))) for A in subspaces
        )

    def _altered(self) -> list[list[int]]:
        """A translate with one member swapped for a non-member of the same
        dimension (or dropped when there is none); its containment profile
        differs from the collection's, so no GL map can carry it there."""
        while True:
            rows = self._translate()
            spaces = [self.gf2.span_masks(r, self.d) for r in rows]
            j = self.rng.choice([i for i, S in enumerate(spaces) if 0 < S.dim < self.d])
            pool = [S for S in self.by_dim[spaces[j].dim] if S not in spaces]
            if pool:
                spaces[j] = self.rng.choice(pool)
            else:
                del spaces[j]
            if self._invariant(spaces) != self.want_invariant:
                return [list(S.rows) for S in spaces]

    def stream(self) -> list[Request]:
        families, nc, rng, n = self.families, self.nc, self.rng, self.D
        out = []
        seq = rng.choice(self.seqs)
        out.append(self._map("span-arcs", seq.to_json(), nc.span_arcs(seq, n).to_json()))
        seq = rng.choice(self.seqs)
        out.append(self._map("arcs-of", nc.span_arcs(seq, n).to_json(), seq.to_json()))
        E1 = rng.choice(self.f1)
        E0 = families.level_down(E1)
        if E0 not in self.f0_sub:
            raise RuntimeError(f"set-up: level_down image is not sub-Lagrangian: {E0.to_json()}")
        out.append(self._map("level-down", E1.to_json(), E0.to_json()))
        E1 = rng.choice(self.f1)
        out.append(self._map("level-up", families.level_down(E1).to_json(), E1.to_json()))
        C = rng.choice(self.coll)
        L = nc.to_lagrangian(C)
        if L not in self.f0_lag:
            raise RuntimeError(f"set-up: Lagrangian image is not in f0: {L.to_json()}")
        out.append(self._map("lagrangian", C.to_json(), L.to_json()))
        C = rng.choice(self.coll)
        out.append(self._map("unlagrangian", nc.to_lagrangian(C).to_json(), C.to_json()))
        seq = rng.choice(self.seqs)
        i, rest = nc.decompose(seq, n)
        if nc.extend_seq(i, rest, n) != seq:
            raise RuntimeError(f"set-up: decompose does not round-trip at {seq.to_json()}")
        out.append(self._map("decompose", seq.to_json(), {"i": i, "rest": rest.to_json()}))
        for members, code in ((self._translate(), 0), (self._altered(), 1)):
            data = self._family_file(members)
            args = ["match", "--family", "../family.json"]
            out.append(Request("match", args, {"family.json": data}, code, None, members))
        return out

    # -- checking

    def _check_match(self, req: Request, run: Run) -> bool:
        if run.code != req.expect_code:
            return False
        try:
            answer = json.loads(run.stdout)
        except ValueError:
            return False
        if not isinstance(answer, dict):
            return False
        if req.expect_code == 1:
            return answer.get("found") is False and answer.get("witness") is None
        witness = answer.get("witness")
        if answer.get("found") is not True or not isinstance(witness, list) or len(witness) != self.d:
            return False
        if not all(isinstance(w, str) and len(w) == self.d and set(w) <= {"0", "1"} for w in witness):
            return False
        W = [self.gf2.string_to_mask(s) for s in witness]
        images = {self.gf2.span_masks([_apply(W, m) for m in rows], self.d) for rows in req.family}
        return images == self.target_set

    def unit(self, trace: bool) -> Unit:
        reqs = self.stream()
        u = Unit()
        t0 = perf_counter()
        for req in reqs:
            with invoke(req.args, trace, req.inputs) as run:
                if req.expect_stdout is None:
                    ok = self._check_match(req, run)
                else:
                    ok = run.code == req.expect_code and run.stdout == req.expect_stdout
                u.record(req.kind, run, ok, len(run.stdout))
                if self.streams < TRANSCRIPT_STREAMS:
                    for part in (req.args, sorted(req.inputs.items()), run.code):
                        self.transcript.update(repr(part).encode())
                    self.transcript.update(run.stdout)
        u.wall = perf_counter() - t0
        self.streams += 1
        if self.streams == TRANSCRIPT_STREAMS and self.want_transcript is not None:
            # the default-seed transcript is pinned: one more checked operation
            u.attempted += 1
            if self.transcript.hexdigest() != self.want_transcript:
                u.failed += 1
                print(f"FAILED transcript digest {self.transcript.hexdigest()}", file=sys.stderr)
        return u


WORKLOADS = {"tables": tables, "verify": verify, "queries": Queries}


# ---------------------------------------------------------------- metrics


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies; the maximum is
    returned and reported as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100
    p = 100 * (n - 10) // n
    return xs[-(-p * n // 100) - 1], p


def timed_unit(work, trace: bool, speed: HostSpeed) -> Unit:
    """One unit, with the host slowdown over its window."""
    t0 = perf_counter()
    unit = work.unit(trace)
    unit.slowdown = speed.factor(t0, perf_counter())
    return unit


def measure(work, seconds: float, speed: HostSpeed) -> tuple[list[Unit], list[float]]:
    """Repeat the workload's unit while at least half of another one fits in
    the time left, so a run measures about `seconds` even with long units.

    A few cold imports run before each unit and after the last one, so the
    import times sample the host over the whole run, as the units do.  Each
    unit gets the host slowdown over its own window; the imports come back
    already divided by the slowdown over theirs.
    """
    units: list[Unit] = []
    imports: list[float] = []

    def probe_imports() -> None:
        t0 = perf_counter()
        walls = [import_seconds() for _ in range(IMPORT_PROBES)]
        slowdown = speed.factor(t0, perf_counter())
        imports.extend(w / slowdown for w in walls)

    deadline = perf_counter() + seconds
    while True:
        probe_imports()
        units.append(timed_unit(work, False, speed))
        typical = statistics.median(u.wall for u in units)
        if len(units) >= work.min_units and perf_counter() + typical / 2 > deadline:
            probe_imports()
            return units, imports


def measure_traced(work, seconds: float, speed: HostSpeed) -> tuple[list[Unit], list[Unit]]:
    """Run pairs of one untraced and one traced unit while at least half of
    another pair fits in the time left, at least TRACED_PAIRS of them.  The order alternates
    (U T, T U, ...), so both sides of a pair see the same host phase and a
    steady drift cancels over two pairs."""
    untraced: list[Unit] = []
    traced: list[Unit] = []
    deadline = perf_counter() + seconds
    while True:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        done = {trace: timed_unit(work, trace, speed) for trace in order}
        untraced.append(done[False])
        traced.append(done[True])
        typical = statistics.median(u.wall + t.wall for u, t in zip(untraced, traced))
        if len(traced) >= TRACED_PAIRS and perf_counter() + typical / 2 > deadline:
            return untraced, traced


def end_to_end(imports: list[float], units: list[Unit]) -> tuple[dict, list[str]]:
    """Every time is divided by the host slowdown over its window."""
    latencies = [w / u.slowdown for u in units for _, w in u.latencies]
    tail_s, pct = tail(latencies)
    values = {
        "setup_s": statistics.median(imports),
        "wall_s": statistics.median(u.wall / u.slowdown for u in units),
        "cpu_s": statistics.median(u.cpu / u.slowdown for u in units),
        "peak_rss_mb": max(u.rss_mb for u in units),
        "query_p50_ms": statistics.median(latencies) * 1000,
        "query_tail_ms": tail_s * 1000,
    }
    notes = [
        f"units={len(units)} requests={len(latencies)}; unit walls as measured: "
        + " ".join(f"{u.wall:.3f}" for u in units)
        + "; host slowdowns: "
        + " ".join(f"{u.slowdown:.3f}" for u in units),
        f"query_tail_ms is p{pct} of {len(latencies)} requests",
        f"setup_s is the median of {len(imports)} cold imports",
    ]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, notes


def traced_values(traced: Unit) -> dict:
    """Layer metrics of one traced unit, summed over its processes."""
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    members = candidates = tried = 0
    for tr in traced.traces:
        spans = tr["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, *_ in spans:
            if parent >= 0:
                covered[parent] += end - start
        built: dict[int, int] = {}
        for i, (name, start, end, _, counted_s, counted_calls, info) in enumerate(spans):
            own = end - start - covered[i] - counted_s
            if name.startswith("verify.check_") and info is not None:
                name = f"verify.{info['check']}"
            self_s[name] += own
            calls[name] += 1
            if name == "families.build_families":
                self_s[f"families.build_families.D{info['n']}"] += own
                candidates += counted_calls
                built[info["n"]] = info["members"]
            elif name == "conjecture.gl_match" and info is not None:
                tried += info["tried"]
        members += sum(built.values())
        for name, (n, total) in tr["counts"].items():
            calls[name] += n
            self_s[name] += total

    values = {
        "gf2.span_masks.calls": calls["gf2.span_masks"],
        "gf2.span_masks.self_s": self_s["gf2.span_masks"],
        "gf2.intersection.calls": calls["gf2.intersection"],
        "gf2.null_space.calls": calls["gf2.null_space"],
        "families.build_families.members": members,
        "families.build_families.candidates_per_member": candidates / members if members else 0.0,
        "families.lines_in.calls": calls["families.lines_in"],
        "noncrossing.extend_seq.calls": calls["noncrossing.extend_seq"],
        "conjecture.gl_match.tried": tried,
        "cli.render.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.cmd_")),
        "cli.output_bytes": traced.output_bytes,
    }
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = self_s[name]
    for n in LEVELS:
        values[f"families.build_families.D{n}.self_s"] = self_s[f"families.build_families.D{n}"]
    return values


def per_layer(untraced: list[Unit], traced: list[Unit]) -> dict:
    """Median over the traced units of each layer metric; request latencies
    from the untraced units; overhead as the median paired difference.
    Unit walls and request latencies are divided by the host slowdown, as
    in end_to_end; span times are as measured."""
    each = [traced_values(t) for t in traced]
    values = {name: statistics.median(v[name] for v in each) for name in each[0]}
    per_kind: dict[str, list[float]] = defaultdict(list)
    for u in untraced:
        for kind, wall in u.latencies:
            per_kind[kind].append(wall / u.slowdown)
    values["cli.match.p50_ms"] = statistics.median(per_kind["match"]) * 1000 if per_kind["match"] else 0.0
    values["trace.untraced_wall_s"] = statistics.median(u.wall / u.slowdown for u in untraced)
    values["trace.traced_wall_s"] = statistics.median(t.wall / t.slowdown for t in traced)
    values["trace.overhead_s"] = statistics.median(
        t.wall / t.slowdown - u.wall / u.slowdown for u, t in zip(untraced, traced)
    )
    for op in MAP_OPS:
        walls = per_kind[f"map.{op}"]
        values[f"cli.map.{op}.p50_ms"] = statistics.median(walls) * 1000 if walls else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------- entry


def main(argv: list[str] | None = None, sizes: Sizes = FULL, expected: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "catspan" / "cli.py").is_file():
        print(f"error: no catspan sources under {SRC}", file=sys.stderr)
        return 2
    if expected is None:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))

    pin_to_one_cpu()
    check_source()
    work = WORKLOADS[args.workload](sizes, expected, args.seed)
    with HostSpeed() as speed:
        if args.trace:
            untraced, traced = measure_traced(work, args.seconds, speed)
            metrics = per_layer(untraced, traced)
            everything = untraced + traced
            notes = [
                f"{len(traced)} untraced/traced unit pairs; paired differences as measured: "
                + " ".join(f"{t.wall - u.wall:+.3f}" for u, t in zip(untraced, traced))
            ]
        else:
            units, imports = measure(work, args.seconds, speed)
            metrics, notes = end_to_end(imports, units)
            everything = units

    attempted = sum(u.attempted for u in everything)
    failed = sum(u.failed for u in everything)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for note in notes:
        print(note)
    print(f"error_rate={failed / attempted} ({failed} failed of {attempted} attempted)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
