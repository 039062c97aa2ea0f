"""End-to-end runs of the command-line interface via main(argv)."""

import json

import pytest

from catspan.cli import main
from catspan.conjecture import collection_as_plain
from catspan.gf2 import mask_to_string, subspace_key


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

    counts = json.loads((out_dir / "counts.json").read_text(encoding="utf-8"))
    assert all(row["pass"] for row in counts["rows"])

    csv_lines = (out_dir / "counts.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "D,label,observed,expected,pass"
    assert csv_lines[1] == "4,f0,10,10,true"

    families_csv = (out_dir / "families.csv").read_text(encoding="utf-8").splitlines()
    assert families_csv[0] == "D,kind,dim,basis"
    assert len(families_csv) == 16


def test_export_deterministic(capsys, tmp_path):
    def snapshot(sub):
        out_dir = tmp_path / sub
        code, _, _ = run(capsys, "export", "--D", "6", "--out", str(out_dir))
        assert code == 0
        return {p.name: p.read_bytes() for p in out_dir.iterdir()}

    assert snapshot("first") == snapshot("second")


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
