"""The package namespace: lazily resolved exports, and the modules a CLI
process loads."""

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

# Imports the CLI, runs gap, cost and verify in text format, and reports
# which of the modules that only the solver, the oracles or JSON output
# need were loaded after the import and after the runs.
LOADED_SCRIPT = """
import contextlib, io, sys
WATCHED = ("covergame.lp", "covergame.oracle", "json")
from covergame.cli import main
loaded = [[m for m in WATCHED if m in sys.modules]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["gap", sys.argv[1]]), main(["cost", sys.argv[1], "--coalition", "0,1"]),
             main(["verify", sys.argv[1], sys.argv[2]])]
loaded.append([m for m in WATCHED if m in sys.modules])
print(repr((codes, loaded)))
"""


def test_cli_loads_no_solver_oracle_or_json():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    args = [str(DATA / "triangle.g"), str(DATA / "triangle.good.alloc")]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_SCRIPT, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == repr(([0, 0, 0], [[], []]))


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
