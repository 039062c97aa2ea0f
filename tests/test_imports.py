"""Package imports: no private names across modules, no stale exports, no
module export that only tests use, a package that loads each module on first
use, and README's Python examples run against the package as it is."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import catspan

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "catspan"


def test_no_private_imports_across_modules():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").startswith("catspan"):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert found == []


def test_every_export_resolves():
    modules = [catspan] + [
        importlib.import_module(f"catspan.{path.stem}")
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    ]
    stale = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert stale == []


def test_every_module_export_is_used_by_the_package():
    # read back in the package's own code, by name, attribute or import; the
    # definition and the __all__ string are no reference
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    unused = [
        f"{module}.{name}"
        for module in SUBMODULES
        for name in getattr(importlib.import_module(f"catspan.{module}"), "__all__", ())
        if name not in catspan.__all__ and name not in used
    ]
    assert unused == []


EXPORTS = [
    "Arc", "ArcSequence", "FamilyTable", "Line", "MatchResult", "OddCollection", "OracleBudget",
    "Subspace", "SuppliedFamily", "all_isotropic", "all_subspaces", "arcs_of", "build_collection",
    "build_families", "catalan", "classify_by_lines", "decompose", "enumerate_noncrossing",
    "extend_seq", "fingerprint", "from_lagrangian", "gaussian_binomial", "gl_match", "is_isotropic",
    "is_noncrossing", "level_down", "level_up", "load_family", "narayana",
    "noncrossing_direct", "shift_arc", "span_arcs", "span_masks", "to_lagrangian", "verify_counts",
]
SUBMODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def fresh(code: str) -> str:
    """Last line that CODE prints in a new interpreter importing catspan from ./src."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.splitlines()[-1]


LOADED = "import sys; print(' '.join(sorted(m for m in sys.modules if m.startswith('catspan.'))))"


def test_import_loads_no_submodule():
    assert fresh(f"import catspan; {LOADED}") == ""


EVERY_MODULE = "import sys; print(' '.join(sorted(sys.modules)))"


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "--op", "span-arcs", "--D", "4", "--input", "[[1, 3]]"],
        ["map", "--op", "decompose", "--D", "4", "--input", "[[1, 3]]"],
        ["map", "--op", "level-down", "--D", "4", "--input", '{"basis": ["1110"]}'],
        ["enumerate", "--kind", "collection", "--D", "4"],
        ["match", "--family", "FAMILY"],
    ],
)
def test_queries_load_only_what_they_use(tmp_path, argv):
    family = tmp_path / "family.json"  # the rank-1 collection, a match
    family.write_text('{"d": 1, "subgroups": [[], ["1"]]}', encoding="utf-8")
    argv = [str(family) if arg == "FAMILY" else arg for arg in argv]
    loaded = fresh(f"import catspan.cli; catspan.cli.main({argv!r}); {EVERY_MODULE}").split()
    modules = ["cli", "families", "gf2", "noncrossing", "slots"] + ["conjecture"] * (argv[0] == "match")
    assert [m for m in loaded if m.startswith("catspan.")] == [f"catspan.{m}" for m in sorted(modules)]
    # the records are NamedTuples: no command pays for dataclasses and what it imports;
    # a bare interpreter is the floor, in case its site imports either
    beyond_bare = set(loaded) - set(fresh(EVERY_MODULE).split())
    assert {"dataclasses", "inspect"} & beyond_bare == set()


def test_every_name_is_exported_once():
    assert sorted(catspan.__all__) == EXPORTS
    star = fresh("from catspan import *; print(sorted(k for k in dir() if not k.startswith('_')))")
    assert star == str(EXPORTS)


def test_every_submodule_resolves_after_a_bare_import():
    code = f"import catspan; print([getattr(catspan, m).__name__ for m in {SUBMODULES!r}])"
    assert fresh(code) == str([f"catspan.{m}" for m in SUBMODULES])


@pytest.mark.parametrize("name", ["no_such_name", "seq_key"])  # seq_key is not re-exported
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'catspan' has no attribute '{name}'"):
        getattr(catspan, name)


def test_readme_python_blocks_run():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
