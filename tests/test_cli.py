"""End-to-end runs of the command-line interface via main(argv)."""

import csv
import hashlib
import io
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from catspan import cli, gf2
from catspan.cli import main
from catspan.conjecture import collection_as_plain
from catspan.counting import verify_counts
from catspan.families import build_families
from catspan.gf2 import mask_to_string, subspace_key
from catspan.noncrossing import build_collection, enumerate_noncrossing, seq_key
from catspan.oracle import BUDGET_VARS

# digests of the benchmark's outputs, pinned by the perfbench harness
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_family(tmp_path, d, subgroups, name="family.json"):
    payload = {
        "d": d,
        "subgroups": [[mask_to_string(r, d) for r in E.rows] for E in subgroups],
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_enumerate_json(capsys):
    code, out, err = run(capsys, "enumerate", "--kind", "f0", "--D", "4")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["D"] == 4 and obj["kind"] == "f0"
    assert len(obj["members"]) == 10
    assert obj["members"][0] == {"D": 4, "basis": []}


def test_enumerate_grade_filter(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "f0", "--D", "4", "--grade", "2")
    assert code == 0
    members = json.loads(out)["members"]
    assert len(members) == 5
    assert all(len(m["basis"]) == 2 for m in members)


def test_enumerate_csv(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "f1", "--D", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "D,kind,dim,basis"
    assert len(lines) == 6
    assert lines[1].startswith("4,f1,1,")
    assert out.endswith("\n")


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "f0", "--D", "2", "--format", "text")
    assert code == 0
    assert out.splitlines() == ["dim=0 basis=-", "dim=1 basis=01", "dim=1 basis=10"]


def test_enumerate_arcs(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "arcs", "--D", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["members"] == [[], [[1, 1]], [[1, 3]], [[3, 3]], [[1, 1], [3, 3]]]

    code, out, _ = run(capsys, "enumerate", "--kind", "arcs", "--D", "4", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s=0 arcs=-"
    assert lines[-1] == "s=2 arcs=(1,1) (3,3)"

    code, out, _ = run(capsys, "enumerate", "--kind", "arcs", "--D", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "D,kind,s,arcs"
    assert lines[-1] == "4,arcs,2,1-1|3-3"


def test_enumerate_arcs_grade_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--kind", "arcs", "--D", "6", "--grade", "1")
    assert code == 0
    assert len(json.loads(out)["members"]) == 6


def test_enumerate_deterministic(capsys):
    first = run(capsys, "enumerate", "--kind", "collection", "--D", "6")
    second = run(capsys, "enumerate", "--kind", "collection", "--D", "6")
    assert first == second


def reference_members(kind, n):
    """One table built the slow way: the whole table, sorted by seq_key or subspace_key, then to_json each."""
    if kind == "arcs":
        return [seq.to_json() for seq in sorted(enumerate_noncrossing(n), key=seq_key)]
    if kind == "collection":
        table = build_collection(n).members
    else:
        fams = build_families(n)
        table = {"f0": fams.f0, "f1": fams.f1, "lagrangian": fams.f0_lagrangian}[kind]
    return [E.to_json() for E in sorted(table, key=subspace_key)]


def reference_csv_header(kind):
    return ["D", "kind", "s", "arcs"] if kind == "arcs" else ["D", "kind", "dim", "basis"]


def reference_csv_row(kind, n, m):
    cells = [f"{a}-{b}" for a, b in m] if kind == "arcs" else m["basis"]
    return [n, kind, len(cells), "|".join(cells)]


def reference_enumerate(members, kind, n, fmt, grade):
    """enumerate's output from reference_members, through json.dumps or csv.writer."""
    members = [m for m in members if grade is None or len(m if kind == "arcs" else m["basis"]) == grade]
    if fmt == "json":
        return json.dumps({"D": n, "kind": kind, "members": members}) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(reference_csv_header(kind))
        writer.writerows(reference_csv_row(kind, n, m) for m in members)
        return buf.getvalue()
    if kind == "arcs":
        lines = [f"s={len(m)} arcs={' '.join(f'({a},{b})' for a, b in m) or '-'}" for m in members]
    else:
        lines = [f"dim={len(m['basis'])} basis={'|'.join(m['basis']) or '-'}" for m in members]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("kind", ["f0", "f1", "lagrangian", "collection", "arcs"])
def test_enumerate_matches_the_sorted_to_json_reference(capsys, kind):
    for n in range(2, 13, 2):
        members = reference_members(kind, n)
        for fmt in ("json", "csv", "text"):
            for grade in (None, 0, 2, 4):
                argv = ["enumerate", "--kind", kind, "--D", str(n), "--format", fmt]
                argv += [] if grade is None else ["--grade", str(grade)]
                code, out, err = run(capsys, *argv)
                assert code == 0 and err == ""
                assert out == reference_enumerate(members, kind, n, fmt, grade), (n, fmt, grade)


def reference_export(n):
    """export's eight files, name -> text, built the slow way: reference_members, csv.writer,
    json.dump(..., indent=2), and the count rows of verify_counts' own walks."""
    files = {}

    def write(name, obj):
        buf = io.StringIO()
        if name.endswith(".json"):
            json.dump(obj, buf, indent=2)
            buf.write("\n")
        else:
            csv.writer(buf, lineterminator="\n").writerows(obj)
        files[name] = buf.getvalue()

    for stem, kinds in [("arcs", {"members": "arcs"}), ("collection", {"members": "collection"}),
                        ("families", {"f0": "f0", "f1": "f1"})]:
        obj, rows = {"D": n}, [reference_csv_header(stem)]
        for key, kind in kinds.items():
            obj[key] = reference_members(kind, n)
            rows += [reference_csv_row(kind, n, m) for m in obj[key]]
        write(f"{stem}.csv", rows)
        write(f"{stem}.json", obj)
    header = ["D", "label", "observed", "expected", "pass"]
    counts = [(r.D, r.label, r.observed, r.expected, r.passed) for r in verify_counts(n)]
    write("counts.csv", [header] + [[*row[:4], str(row[4]).lower()] for row in counts])
    write("counts.json", {"D": n, "rows": [dict(zip(header, row)) for row in counts]})
    return files


def reference_entry(fmt, kind, n, rows):
    """One subspace entry, one member at a time: an f-string line, or json.dumps' entry after
    the separator from the entry before it, compact or at export's indent-2 depth."""
    if fmt == "csv":
        return f"{n},{kind},{len(rows)},{'|'.join(rows)}\n"
    if fmt == "text":
        return f"dim={len(rows)} basis={'|'.join(rows) or '-'}\n"
    if fmt == "json":
        return ", " + json.dumps({"D": n, "basis": rows})
    return ",\n    " + json.dumps({"D": n, "basis": rows}, indent=2).replace("\n", "\n    ")


@pytest.mark.parametrize("fmt", ["csv", "text", "json", "export"])
def test_layout_matches_one_entry_at_a_time(fmt):
    rng = random.Random(fmt)
    for n in (2, 4, 6):
        for k in range(5):
            for count in (1, 2, 3, 4):
                members = [[format(rng.getrandbits(n), f"0{n}b") for _ in range(k)] for _ in range(count)]
                parts = [part.format(n=n, kind="f1", k=k) for part in cli.PARTS[fmt]]
                got = cli._layout(parts, n, k, ["".join(rows) for rows in members])
                assert got.decode() == "".join(reference_entry(fmt, "f1", n, rows) for rows in members), (n, k)
    zero = cli._layout([part.format(n=4, kind="f1", k=0) for part in cli.PARTS[fmt]], 4, 0, [""])
    assert zero.decode() == {"csv": "4,f1,0,\n", "text": "dim=0 basis=-\n", "json": ', {"D": 4, "basis": []}',
                             "export": ',\n    {\n      "D": 4,\n      "basis": []\n    }'}[fmt]


def test_chunk_edges_keep_every_output(capsys, tmp_path, monkeypatch):
    # chunks of 3 split grades of 2, 3 and 4 members short, exactly and one past an edge,
    # and every export key's first member opens a chunk; at D = 8 an arc grade of 10 = 3 * 3 + 1
    # members is one past an edge
    monkeypatch.setattr(cli, "CHUNK", 3)
    sizes = Counter(sum(1 for _ in members) for n in (2, 4, 6, 8) for kind in ("f0", "f1", "collection", "arcs")
                    for _, members in cli._grades(kind, n))
    assert sizes[2] and sizes[3] and sizes[4]
    assert [sum(1 for _ in sets) for _, sets in cli._grades("arcs", 8)] == [1, 10, 20, 10, 1]
    for n in (2, 4, 6, 8):
        out_dir = tmp_path / str(n)
        assert run(capsys, "export", "--D", str(n), "--out", str(out_dir))[0] == 0
        assert {p.name: p.read_text(encoding="utf-8") for p in out_dir.iterdir()} == reference_export(n), n
        for kind in ("f0", "f1", "lagrangian", "collection", "arcs"):
            members = reference_members(kind, n)
            for fmt in ("json", "csv", "text"):
                for grade in (None, 1):
                    argv = ["enumerate", "--kind", kind, "--D", str(n), "--format", fmt]
                    argv += [] if grade is None else ["--grade", str(grade)]
                    assert run(capsys, *argv)[1] == reference_enumerate(members, kind, n, fmt, grade), argv


def test_export_matches_the_slow_reference(capsys, tmp_path):
    for n in range(2, 11, 2):
        out_dir = tmp_path / str(n)
        code, out, err = run(capsys, "export", "--D", str(n), "--out", str(out_dir))
        assert code == 0 and err == ""
        expected = reference_export(n)
        assert len(expected) == 8
        assert out == "".join(f"wrote {out_dir / name}\n" for name in sorted(expected))
        assert {p.name: p.read_bytes().decode("utf-8") for p in out_dir.iterdir()} == expected, n


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "--D-max", "4")
    assert code == 0 and err == ""
    assert "D=2 count f0 observed=3 expected=3 PASS" in out
    assert "D=4 count f0 observed=10 expected=10 PASS" in out
    assert "all checks passed" in out
    assert " FAIL" not in out


def test_verify_oracle_flag(capsys):
    code, out, err = run(capsys, "verify", "--D-max", "4", "--oracle")
    assert code == 0 and err == ""
    assert "check oracle-noncrossing PASS" in out
    assert "check oracle-families PASS" in out


def test_verify_oracle_reports_skips(capsys, monkeypatch):
    monkeypatch.setenv("CATSPAN_ORACLE_MAX_DIM", "2")
    monkeypatch.setenv("CATSPAN_ORACLE_MAX_ODD_DIM", "4")
    code, out, err = run(capsys, "verify", "--D-max", "6", "--oracle")
    assert code == 0
    assert "D=4 check oracle-noncrossing PASS" in out
    assert "D=6 check oracle-noncrossing" not in out
    assert "D=2 check oracle-families PASS" in out
    assert "D=4 check oracle-families" not in out
    assert err.splitlines() == [
        "skipped check_oracle_noncrossing at D=6: above CATSPAN_ORACLE_MAX_ODD_DIM=4",
        "skipped check_oracle_subspace_counts at D=4, 6: above CATSPAN_ORACLE_MAX_DIM=2",
        "skipped check_oracle_families at D=4, 6: above CATSPAN_ORACLE_MAX_DIM=2",
    ]
    _, plain, _ = run(capsys, "verify", "--D-max", "6")
    assert [line for line in out.splitlines() if "oracle" not in line] == plain.splitlines()


def test_verify_oracle_default_caps(capsys, monkeypatch):
    # with neither variable set, the caps are OracleBudget()'s defaults: 10 for the odd part
    # runs oracle-noncrossing at every D here, 8 for the ambient space skips the rest at D = 10
    for var in BUDGET_VARS.values():
        monkeypatch.delenv(var, raising=False)
    code, out, err = run(capsys, "verify", "--D-max", "10", "--oracle")
    assert code == 0 and out.endswith("all checks passed\n")
    assert err == (
        "skipped check_oracle_subspace_counts at D=10: above CATSPAN_ORACLE_MAX_DIM=8\n"
        "skipped check_oracle_families at D=10: above CATSPAN_ORACLE_MAX_DIM=8\n"
    )


def test_verify_rejects_negative_oracle_cap(capsys, monkeypatch):
    monkeypatch.setenv("CATSPAN_ORACLE_MAX_DIM", "-5")
    code, out, err = run(capsys, "verify", "--D-max", "2", "--oracle")
    assert code == 2 and out == ""
    assert err == "error: CATSPAN_ORACLE_MAX_DIM must be >= 0, got '-5'\n"


def test_map_span_arcs_and_back(capsys):
    code, out, _ = run(capsys, "map", "--op", "span-arcs", "--D", "4", "--input", "[[1, 3]]")
    assert code == 0
    assert json.loads(out) == {"D": 4, "basis": ["1010"]}

    code, out, _ = run(
        capsys, "map", "--op", "arcs-of", "--D", "4", "--input", '{"basis": ["1010"]}'
    )
    assert code == 0
    assert json.loads(out) == [[1, 3]]


def test_map_level_ops(capsys):
    code, out, _ = run(
        capsys,
        "map",
        "--op",
        "level-down",
        "--D",
        "4",
        "--input",
        '{"basis": ["1111", "0100"]}',
    )
    assert code == 0
    assert json.loads(out) == {"D": 4, "basis": ["0100"]}

    code, out, _ = run(
        capsys, "map", "--op", "level-up", "--D", "4", "--input", '{"basis": ["0100"]}'
    )
    assert code == 0
    assert json.loads(out) == {"D": 4, "basis": ["1011", "0100"]}

    # the full-support line drops to the zero subspace
    code, out, _ = run(
        capsys, "map", "--op", "level-down", "--D", "4", "--input", '{"basis": ["1111"]}'
    )
    assert code == 0
    assert json.loads(out) == {"D": 4, "basis": []}


def test_map_lagrangian_ops(capsys):
    code, out, _ = run(
        capsys, "map", "--op", "lagrangian", "--D", "4", "--input", '{"basis": ["1000"]}'
    )
    assert code == 0
    assert json.loads(out) == {"D": 4, "basis": ["1000", "0001"]}

    code, out, _ = run(
        capsys,
        "map",
        "--op",
        "unlagrangian",
        "--D",
        "4",
        "--input",
        '{"basis": ["1000", "0001"]}',
    )
    assert code == 0
    assert json.loads(out) == {"D": 4, "basis": ["1000"]}


def test_map_decompose(capsys):
    code, out, _ = run(capsys, "map", "--op", "decompose", "--D", "4", "--input", "[[1, 3]]")
    assert code == 0
    assert json.loads(out) == {"i": 2, "rest": [[1, 1]]}


def test_map_errors(capsys):
    cases = [
        ("span-arcs", "not json"),
        ("span-arcs", "[[1, 3], [3, 5]]"),
        ("span-arcs", "[1]"),
        ("span-arcs", "{}"),
        ("span-arcs", "[[1.5, 3]]"),
        ("arcs-of", '{"basis": 5}'),
        ("arcs-of", '{"basis": ["10"]}'),
        ("arcs-of", '{"basis": ["1100"]}'),
        ("arcs-of", '{"D": 6, "basis": ["1010"]}'),
        ("arcs-of", '{"D": 4.0, "basis": ["1010"]}'),
        ("arcs-of", '{"D": "4", "basis": ["1010"]}'),
        ("level-down", '{"basis": ["1000"]}'),
        ("decompose", "[[5, 5]]"),
        ("decompose", "[[1, 7]]"),
    ]
    for op, payload in cases:
        code, out, err = run(capsys, "map", "--op", op, "--D", "4", "--input", payload)
        assert code == 2, (op, payload)
        assert err.startswith("error:") and err.count("\n") == 1
    payload = '{"D": "4", "basis": []}'
    _, _, err = run(capsys, "map", "--op", "arcs-of", "--D", "4", "--input", payload)
    assert err == "error: bad ambient dimension '4'\n"


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    nested = "[" * 100000
    code, out, err = run(capsys, "map", "--op", "span-arcs", "--D", "4", "--input", nested)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    path = tmp_path / "nested.json"
    path.write_text(nested, encoding="utf-8")
    code, out, err = run(capsys, "match", "--family", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_match_found(capsys, tmp_path):
    path = write_family(tmp_path, 2, collection_as_plain(2))
    code, out, err = run(capsys, "match", "--family", path)
    assert code == 0 and err == ""
    assert json.loads(out) == {"found": True, "witness": ["10", "01"], "tried": 1}


def test_match_not_found(capsys, tmp_path):
    members = sorted(collection_as_plain(2), key=subspace_key)
    path = write_family(tmp_path, 2, members[:-1])
    code, out, err = run(capsys, "match", "--family", path)
    assert code == 1
    assert json.loads(out) == {"found": False, "witness": None, "tried": 0}
    assert err.startswith("reason: size")


def test_match_file_errors(capsys, tmp_path):
    code, _, err = run(capsys, "match", "--family", str(tmp_path / "absent.json"))
    assert code == 2 and err.startswith("error:")

    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "match", "--family", str(bad))
    assert code == 2 and err.startswith("error:")

    shapeless = tmp_path / "shapeless.json"
    shapeless.write_text(json.dumps({"d": 2, "subgroups": 5}), encoding="utf-8")
    code, _, err = run(capsys, "match", "--family", str(shapeless))
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1

    boolean = tmp_path / "boolean.json"
    boolean.write_text(json.dumps({"d": True, "subgroups": [[], ["1"]]}), encoding="utf-8")
    code, _, err = run(capsys, "match", "--family", str(boolean))
    assert code == 2 and err.startswith("error:") and err.count("\n") == 1

    big = tmp_path / "big.json"
    big.write_text(json.dumps({"d": 6, "subgroups": []}), encoding="utf-8")
    code, _, err = run(capsys, "match", "--family", str(big))
    assert code == 2 and err.startswith("error:")


def test_export_writes_all_tables(capsys, tmp_path):
    out_dir = tmp_path / "tables"
    code, out, err = run(capsys, "export", "--D", "4", "--out", str(out_dir))
    assert code == 0 and err == ""
    names = [
        "arcs.csv",
        "arcs.json",
        "collection.csv",
        "collection.json",
        "counts.csv",
        "counts.json",
        "families.csv",
        "families.json",
    ]
    assert out.splitlines() == [f"wrote {out_dir / name}" for name in names]

    families = json.loads((out_dir / "families.json").read_text(encoding="utf-8"))
    assert families["D"] == 4
    assert len(families["f0"]) == 10 and len(families["f1"]) == 5
    assert families["f0"][0] == {"D": 4, "basis": []}
    dims = [len(entry["basis"]) for entry in families["f0"]]
    assert dims == sorted(dims)

    collection = json.loads((out_dir / "collection.json").read_text(encoding="utf-8"))
    assert collection["D"] == 4
    assert len(collection["members"]) == 5
    assert collection["members"][0] == {"D": 4, "basis": []}

    counts = json.loads((out_dir / "counts.json").read_text(encoding="utf-8"))
    assert all(row["pass"] for row in counts["rows"])

    csv_lines = (out_dir / "counts.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "D,label,observed,expected,pass"
    assert csv_lines[1] == "4,f0,10,10,true"

    families_csv = (out_dir / "families.csv").read_text(encoding="utf-8").splitlines()
    assert families_csv[0] == "D,kind,dim,basis"
    assert len(families_csv) == 16


def test_output_bytes_match_the_benchmark_digests(capsys, tmp_path, monkeypatch):
    expected = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    for var in BUDGET_VARS.values():
        monkeypatch.delenv(var, raising=False)

    code, out, _ = run(capsys, "export", "--D", "4", "--out", "out")
    assert code == 0
    pinned = expected["export --D 4 --out out"]
    assert sha256(out.encode()) == pinned["stdout"]
    written = {p.name: sha256(p.read_bytes()) for p in (tmp_path / "out").iterdir()}
    assert written == pinned["files"]

    code, out, _ = run(capsys, "verify", "--D-max", "4", "--oracle")
    assert code == 0
    assert sha256(out.encode()) == expected["verify --D-max 4 --oracle"]["stdout"]

    # enumerate prints the same CSV that export writes
    code, _, _ = run(capsys, "export", "--D", "6", "--out", "out6")
    assert code == 0

    def enumerated(kind):
        code, out, _ = run(capsys, "enumerate", "--kind", kind, "--D", "6", "--format", "csv")
        assert code == 0
        return out

    def exported(name):
        return (tmp_path / "out6" / name).read_text(encoding="utf-8")

    assert enumerated("collection") == exported("collection.csv")
    assert enumerated("arcs") == exported("arcs.csv")
    f1_rows = enumerated("f1").split("\n", 1)[1]
    assert enumerated("f0") + f1_rows == exported("families.csv")


def test_export_d16_matches_the_benchmark_digests(capsys, tmp_path, monkeypatch):
    pinned = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))["export --D 16 --out out"]
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "export", "--D", "16", "--out", "out")
    assert code == 0
    assert sha256(out.encode()) == pinned["stdout"]
    written = {p.name: sha256(p.read_bytes()) for p in (tmp_path / "out").iterdir()}
    assert written == pinned["files"]
    assert len(written) == 8


def test_export_deterministic(capsys, tmp_path):
    def snapshot(sub):
        out_dir = tmp_path / sub
        code, _, _ = run(capsys, "export", "--D", "6", "--out", str(out_dir))
        assert code == 0
        return {p.name: p.read_bytes() for p in out_dir.iterdir()}

    assert snapshot("first") == snapshot("second")


def test_export_json_is_json_dump_at_indent_2(capsys, tmp_path):
    for D in range(2, 13, 2):
        out_dir = tmp_path / str(D)
        code, _, _ = run(capsys, "export", "--D", str(D), "--out", str(out_dir))
        assert code == 0
        for name in ("arcs.json", "collection.json", "families.json"):
            text = (out_dir / name).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2) + "\n", (D, name)


def test_export_renders_each_row_once(capsys, tmp_path, monkeypatch):
    # each run's rows come joined from one format call on its packed word: no row goes
    # through mask_to_string, and no Subspace is built per member, only the bases of the walks
    calls = Counter()
    make, new, mask_to_string = gf2.Subspace._make, gf2.Subspace.__new__, gf2.mask_to_string

    def counting_make(cls, fields):
        calls["Subspace"] += 1
        return make(fields)

    def counting_new(cls, *args):
        calls["Subspace"] += 1
        return new(cls, *args)

    def counting_mask_to_string(mask, n):
        calls["mask_to_string"] += 1
        return mask_to_string(mask, n)

    def counting(name, render):
        def wrapper(*args):
            calls[name] += 1
            return render(*args)
        return wrapper

    # the arc sets, like the subspaces, are laid out a chunk of one grade at a time
    monkeypatch.setattr(cli, "_join", counting("_join", cli._join))
    monkeypatch.setattr(gf2.Subspace, "_make", classmethod(counting_make))
    monkeypatch.setattr(gf2.Subspace, "__new__", counting_new)
    monkeypatch.setattr(gf2, "mask_to_string", counting_mask_to_string)
    assert gf2.Subspace(2, (1,)) and gf2.span_masks([1], 2) and calls["Subspace"] == 2  # both paths counted
    calls.clear()
    code, _, _ = run(capsys, "export", "--D", "8", "--out", str(tmp_path / "out"))
    assert code == 0
    assert calls["mask_to_string"] == 0
    assert calls["_join"] == 5 * 2  # once per grade and format at D = 8, not once per Cat_5 = 42 arc sets
    # at most the base of each V_0..V_8 per subspace table, read to find the roots
    assert calls["Subspace"] <= 3 * (8 // 2 + 1)


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "f0", "--D", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--kind", "mystery", "--D", "4"])
    assert exc.value.code == 2
