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
WATCHED = ("covergame.allocation", "covergame.covers", "covergame.lp", "covergame.oracle",
           "dataclasses", "inspect", "json")
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
    assert added["cost"] == added["cover"] == ["covergame.covers"]
    assert added["frac-cover"] == ["covergame.covers", "covergame.lp"]
    # AllocationReport stays a dataclass, because callers change it with
    # dataclasses.replace, so allocate alone loads dataclasses (and inspect,
    # which dataclasses imports).
    allocate = set(added["allocate"])
    assert {"covergame.allocation", "covergame.covers", "covergame.lp", "dataclasses"} <= allocate
    assert not allocate & {"covergame.oracle", "json"}


def test_allocation_module_holds_only_its_record():
    # game defines allocate_alpha_core and imports AllocationReport when it
    # runs; allocation imports nothing from the package.
    source = Path(importlib.import_module("covergame.allocation").__file__).read_text("utf-8")
    assert "from ." not in source
    assert covergame.allocate_alpha_core.__module__ == "covergame.game"
    assert covergame._EXPORTS["allocate_alpha_core"] == "game"


def test_all_is_the_sorted_export_table():
    assert covergame.__all__ == sorted(covergame.__all__)
    assert covergame.__all__ == sorted(covergame._EXPORTS)
    assert len(covergame.__all__) == 44


def test_each_name_is_its_submodule_attribute():
    for name, module in covergame._EXPORTS.items():
        submodule = importlib.import_module(f"covergame.{module}")
        assert getattr(covergame, name) is getattr(submodule, name), name


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
