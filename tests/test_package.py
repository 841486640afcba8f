"""The package namespace: lazily resolved exports, and the modules a CLI
process loads."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import covergame

DATA = Path(__file__).parent / "data"
SRC = str(Path(covergame.__file__).resolve().parent.parent)

# In a fresh interpreter: snapshots sys.modules, imports the CLI, runs one
# subcommand, and reports which of the watched modules the import added and
# which the run added. The snapshot leaves out whatever the interpreter
# loaded at start-up, so only what covergame adds is seen.
LOADED_SCRIPT = """
import contextlib, io, sys
WATCHED = ("covergame.allocation", "covergame.covers", "covergame.lp", "covergame.matching",
           "covergame.oracle", "dataclasses", "inspect", "json")
def added(before):
    return [m for m in WATCHED if m in sys.modules and m not in before]
start = set(sys.modules)
from covergame.cli import main
imported, after_import = added(start), set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(repr((code, imported, added(after_import))))
"""


def loaded_by(*argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_SCRIPT, *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(proc.stdout)


def test_cli_loads_no_solver_oracle_or_json():
    triangle, alloc = DATA / "triangle.g", DATA / "triangle.good.alloc"
    runs = {
        "gap": loaded_by("gap", triangle),
        "verify": loaded_by("verify", triangle, alloc),
        "cost": loaded_by("cost", triangle, "--coalition", "0,1"),
        "cover": loaded_by("cover", triangle),
        "frac-cover": loaded_by("frac-cover", triangle, "--canonical"),
        "allocate": loaded_by("allocate", triangle),
    }
    assert all(code == 0 and imported == [] for code, imported, _ in runs.values())
    added = {command: run[2] for command, run in runs.items()}
    assert added["gap"] == added["verify"] == []
    assert added["cost"] == added["cover"] == added["frac-cover"] == ["covergame.covers", "covergame.lp"]
    # The matching behind the grand cost loads in allocate alone. The CLI
    # reads the report's fields from game._alpha_core, so allocate loads
    # neither the AllocationReport dataclass nor dataclasses (nor inspect,
    # which dataclasses imports).
    allocate = set(added["allocate"])
    assert {"covergame.covers", "covergame.lp", "covergame.matching"} <= allocate
    assert not allocate & {"covergame.allocation", "covergame.oracle", "dataclasses", "inspect",
                           "json"}


def test_package_imports_only_the_standard_library():
    # Every absolute import in src/covergame names a standard-library
    # module; the package's own modules are imported relatively.
    outside = set()
    for path in Path(covergame.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.update(
                (path.name, name) for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            )
    assert outside == set()


def test_allocation_module_holds_only_its_record():
    # game defines allocate_alpha_core and imports AllocationReport when it
    # runs; allocation imports nothing from the package.
    source = Path(importlib.import_module("covergame.allocation").__file__).read_text("utf-8")
    assert "from ." not in source
    assert covergame.allocate_alpha_core.__module__ == "covergame.game"
    assert covergame._EXPORTS["allocate_alpha_core"] == "game"


def test_oracle_shares_no_logic_with_the_fast_paths():
    # The brute-force oracles certify covers, lp and matching, so they may
    # import only the graph, rational and game-input helpers of the package.
    source = Path(importlib.import_module("covergame.oracle").__file__).read_text("utf-8")
    relative = {
        node.module
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    assert relative <= {"game", "graphs", "rationals"}
    assert not relative & {"covers", "lp", "matching"}


def test_all_is_the_sorted_export_table():
    assert covergame.__all__ == sorted(covergame.__all__)
    assert covergame.__all__ == sorted(covergame._EXPORTS)
    assert len(covergame.__all__) == 43


def test_each_name_is_its_submodule_attribute():
    for name, module in covergame._EXPORTS.items():
        submodule = importlib.import_module(f"covergame.{module}")
        assert getattr(covergame, name) is getattr(submodule, name), name


def test_imports_are_deferred_only_at_the_start_up_boundaries():
    # Only the package namespace resolves names through a module
    # __getattr__, and only the CLI handlers and game's cover-computing
    # functions import inside a function, which keeps gap and verify
    # processes free of cover and LP code.
    hooks, deferred = set(), set()
    for path in Path(covergame.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(isinstance(node, ast.FunctionDef) and node.name == "__getattr__" for node in tree.body):
            hooks.add(path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node)
            ):
                deferred.add(path.name)
    assert hooks <= {"__init__.py"}
    assert deferred <= {"cli.py", "game.py"}


def test_covers_still_exposes_the_lp_names():
    from covergame import covers, lp

    for name in ("dual_packing_lp", "fractional_cover_lp", "solve"):
        assert getattr(covers, name) is getattr(lp, name)
    with pytest.raises(AttributeError):
        covers.nope


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        covergame.nope
    assert not hasattr(covergame, "nope")


def test_star_import():
    namespace = {}
    exec("from covergame import *", namespace)
    assert set(covergame.__all__) <= set(namespace)
    assert namespace["solve"] is covergame.lp.solve


def test_version_matches_pyproject():
    # A regex, not tomllib: the package supports Python 3.10, which has none.
    text = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None
    assert covergame.__version__ == match.group(1)


def test_readme_quickstart_prints_its_comment(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"^```python\n(.*?)^```$", quickstart, re.MULTILINE | re.DOTALL).group(1)
    expected = block.rstrip("\n").rsplit("\n", 1)[1]
    assert expected == "# 3/4 3/2 2 3/4"
    exec(block, {})
    assert capsys.readouterr().out == expected.removeprefix("# ") + "\n"
