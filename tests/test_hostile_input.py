"""Hostile input: the tests/data fixtures mutated by byte flips,
truncation, huge headers, huge tokens and line separators, run in-process
through every subcommand in both formats. Every run ends in a documented
exit code with its output on the right stream and no traceback, within a
time bound."""

import contextlib
import io
import re
import tempfile
import time
from pathlib import Path

from helpers import LINE_SEPARATORS, NEWLINES
from hypothesis import given, settings
from hypothesis import strategies as st

from covergame.cli import main

DATA = Path(__file__).parent / "data"
GRAPHS = [p.read_bytes() for p in sorted(DATA.glob("*.g"))]
ALLOCATIONS = [p.read_bytes() for p in sorted(DATA.glob("*.alloc"))]
SEPARATORS = [s.encode() for s in (*LINE_SEPARATORS.values(), *NEWLINES)]

# The slowest call measured over these examples took 0.05 s (allocate on
# a fixture, Python 3.11); the bound leaves twenty times that for slower
# machines and -X dev.
SECONDS_PER_CALL = 1.0

# derandomize: every run draws the same examples; no example database is kept.
HOSTILE = settings(derandomize=True, max_examples=400, deadline=None, database=None)

# Integers past the interpreter's int-to-str limit of 4300 digits, and
# below and above every size the readers check.
NUMBERS = st.one_of(
    st.integers(-3, 2**64).map(str),
    st.integers(4290, 4310).map(lambda k: "9" * k),
    st.integers(1, 30).map(lambda k: "1" + "0" * k),
)
TOKENS = st.one_of(NUMBERS, st.builds(
    lambda stem, k: stem * k,
    st.sampled_from(["9", "1/", "/9", "-", "x", "#", "\u0661", "\ufeff", "0"]),
    st.one_of(st.integers(1, 8), st.sampled_from([4299, 4300, 4301, 20_000])),
))


@st.composite
def mutated(draw, sources: list[bytes]) -> bytes:
    """One fixture with up to four mutations, each at a drawn offset."""
    data = draw(st.sampled_from(sources))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("flip", "truncate", "header", "token", "separator")))
        at = draw(st.integers(0, len(data)))
        if kind == "flip" and data:
            at = min(at, len(data) - 1)
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "header":  # the first line that is not a comment
            lines = data.split(b"\n")
            first = next((i for i, line in enumerate(lines) if not line.startswith(b"#")), 0)
            lines[first] = f"{draw(NUMBERS)} {draw(NUMBERS)}".encode()
            data = b"\n".join(lines)
        elif kind == "token":  # replaces a whitespace-separated token
            parts = re.split(rb"(\s+)", data)
            parts[2 * (at % (len(parts) // 2 + 1))] = draw(TOKENS).encode()
            data = b"".join(parts)
        else:
            data = data[:at] + draw(st.sampled_from(SEPARATORS)) + data[at:]
    return data


def run(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


@HOSTILE
@given(
    graph=st.one_of(st.sampled_from(GRAPHS), mutated(GRAPHS)),
    allocation=st.one_of(st.sampled_from(ALLOCATIONS), mutated(ALLOCATIONS)),
    members=st.one_of(st.sampled_from(["0", "0,1", "1,2,0"]), TOKENS, st.text(max_size=12)),
    canonical=st.booleans(),
    exhaustive=st.booleans(),
)
def test_every_subcommand_exits_cleanly(graph, allocation, members, canonical, exhaustive):
    with tempfile.TemporaryDirectory() as tmp:
        g, a = Path(tmp) / "g.txt", Path(tmp) / "a.txt"
        g.write_bytes(graph)
        a.write_bytes(allocation)
        commands = [
            ["cover", str(g)],
            ["frac-cover", str(g), *(["--canonical"] if canonical else [])],
            ["gap", str(g)],
            ["allocate", str(g)],
            ["cost", str(g), f"--coalition={members}"],
            ["verify", str(g), str(a), *(["--exhaustive"] if exhaustive else [])],
        ]
        for command in commands:
            for fmt in ("text", "json"):
                argv = [*command, "--format", fmt]
                code, out, err, seconds = run(argv)
                assert seconds < SECONDS_PER_CALL, (argv, seconds)
                assert "Traceback" not in err, argv
                if code in (0, 3):  # 3: verify printed its failed verdict
                    assert out and not err, (argv, code, err)
                    assert code == 0 or command[0] == "verify", argv
                else:
                    assert code in (1, 2), (argv, code, err)
                    assert out == "", (argv, code)
                    assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
