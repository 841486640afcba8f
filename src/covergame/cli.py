"""Command-line front end, and the one place that renders results.

Subcommands: cover, frac-cover, gap, allocate, cost, verify, one row each
of the table (name, help text, handler) the parser is built from; each
takes --format text|json and a graph. Rationals print as "p/q" (bare integer
when q = 1) and all iteration upstream is deterministic, so identical inputs
produce byte-identical output.

Each handler imports the layer it runs when it runs, so a process loads
only the modules its subcommand needs: gap and verify load no cover or LP
code, and only allocate loads ``dataclasses``. ``json`` loads only for
--format json.

Exit codes: 0 success, 1 input or validation error, 2 budget or cap
exceeded, 3 verification failed (verify only, with the witness printed),
4 internal error (a computed result failed its own certificate), 141 stdout
closed before the output was written.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .graphs import CapExceededError, edge_key, load_graph
from .rationals import ONE, _echo, _parse_integer, format_rational

if TYPE_CHECKING:  # each handler imports the layer it runs
    from .covers import CoverCertificate


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for budget errors
        raise argparse.ArgumentError(None, message)


def _fmt_walk(walk) -> str:
    return "-".join(str(v) for v in walk)


def _fmt_members(members) -> str:
    return ",".join(str(v) for v in sorted(members))


def _entries(values) -> list[dict] | None:
    """The nonzero entries of an edge vector in edge order; None stays None."""
    if values is None:
        return None
    return [{"edge": list(e), "value": format_rational(x)} for e, x in sorted(values.items()) if x]


def _rationals(vector) -> list[str] | None:
    return None if vector is None else [format_rational(x) for x in vector]


def _cover_output(cert: CoverCertificate, cycles=None) -> tuple[dict, list[str]]:
    """The JSON payload and text lines of a cover certificate, with the
    fractional support cycles when they are given."""
    payload = {
        "kind": cert.kind,
        "weight": format_rational(cert.weight),
        "entries": _entries(cert.values),
        "dual_witness": _rationals(cert.dual_witness),
    }
    lines = [f"kind: {payload['kind']}", f"weight: {payload['weight']}", "cover:"]
    lines.extend(f"  {_fmt_walk(item['edge'])} = {item['value']}" for item in payload["entries"])
    if cycles is not None:
        payload["fractional_cycles"] = [list(walk) for walk in cycles]
        lines.append("fractional cycles:" if cycles else "fractional cycles: none")
        lines.extend(f"  {_fmt_walk(walk)}" for walk in cycles)
    return payload, lines


def _cmd_cover(g, args) -> tuple[int, dict, list[str]]:
    from .covers import min_edge_cover_exact

    return 0, *_cover_output(min_edge_cover_exact(g))


def _cmd_frac_cover(g, args) -> tuple[int, dict, list[str]]:
    from .covers import _canonical_form, half_integral_cover

    cert, cycles = half_integral_cover(g), None
    if args.canonical:
        try:
            # cert.weight is the optimum: half_integral_cover certified it
            # against its dual witness.
            values, cycles = _canonical_form(g, cert.values, cert.weight)
            cert = cert._replace(values=values)
        except ValueError as exc:  # rejects the cover certified just above: a bug, not bad input
            raise RuntimeError(str(exc)) from exc
    return 0, *_cover_output(cert, cycles)


def _cmd_gap(g, args) -> tuple[int, dict, list[str]]:
    from .game import integrality_gap

    report = integrality_gap(g)
    cycle = report.cycle  # the witness weights are 1 on its edges, sorted by _entries
    weights = None if cycle is None else dict.fromkeys(map(edge_key, cycle, cycle[1:]), ONE)
    payload = {
        "ell": report.ell,
        "rho": format_rational(report.rho),
        "cycle": None if cycle is None else list(cycle),
        "witness_weights": _entries(weights),
    }
    lines = [
        f"ell: {'none' if report.ell is None else report.ell}",
        f"rho: {payload['rho']}",
        f"cycle: {'none' if cycle is None else _fmt_walk(cycle)}",
    ]
    return 0, payload, lines


def _cmd_allocate(g, args) -> tuple[int, dict, list[str]]:
    from .game import allocate_alpha_core

    report = allocate_alpha_core(g)
    grand_cost, ratio = (
        None if x is None else format_rational(x) for x in (report.grand_cost, report.ratio)
    )
    payload = {
        "alpha": format_rational(report.alpha),
        "total": format_rational(report.total),
        "grand_cost": grand_cost,
        "ratio": ratio,
        "allocation": _rationals(report.allocation),
    }
    lines = [
        f"alpha: {payload['alpha']}",
        f"total: {payload['total']}",
        f"grand cost: {grand_cost or 'unavailable (cap exceeded)'}",
        f"ratio: {ratio or 'unavailable'}",
        "allocation:",
        *(f"  {v} = {a}" for v, a in enumerate(payload["allocation"])),
    ]
    return 0, payload, lines


def _parse_members(text: str) -> list[int]:
    try:
        return [_parse_integer(part.strip()) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        message = f"bad coalition {_echo(text)}; expected comma-separated vertex ids"
        raise ValueError(message) from None


def _cmd_cost(g, args) -> tuple[int, dict, list[str]]:
    from .game import coalition_cost

    members = _parse_members(args.coalition)
    cost = format_rational(coalition_cost(g, members))
    coalition = sorted(set(members))
    lines = [f"coalition: {_fmt_members(coalition)}", f"cost: {cost}"]
    return 0, {"coalition": coalition, "cost": cost}, lines


def _cmd_verify(g, args) -> tuple[int, dict, list[str]]:
    from .game import check_core_dual, check_core_stars, parse_allocation

    allocation = parse_allocation(Path(args.allocation).read_text(encoding="utf-8"), g.vertex_count)

    dual_ok, bad_edge = check_core_dual(g, allocation)
    star_ok, bad_star = check_core_stars(g, allocation)
    payload: dict = {
        "dual": {"ok": dual_ok, "edge": None if bad_edge is None else list(bad_edge)},
        "stars": {
            "ok": star_ok,
            "vertex": None if bad_star is None else bad_star[0],
            "members": None if bad_star is None else sorted(bad_star[1]),
        },
        "oracle": None,
    }
    lines = [
        "dual check: ok" if dual_ok else f"dual check: violated at edge {_fmt_walk(bad_edge)}",
        "star check: ok"
        if star_ok
        else f"star check: violated at star v={bad_star[0]} T={_fmt_members(bad_star[1])}",
    ]
    ok = dual_ok and star_ok
    if args.exhaustive:
        from .oracle import brute_core_check

        oracle_ok, bad_coalition = brute_core_check(g, allocation)
        payload["oracle"] = {
            "ok": oracle_ok,
            "coalition": None if bad_coalition is None else sorted(bad_coalition),
        }
        lines.append(
            "oracle check: ok"
            if oracle_ok
            else f"oracle check: violated at coalition {_fmt_members(bad_coalition)}"
        )
        ok = ok and oracle_ok
    payload["ok"] = ok
    lines.append("verdict: core property holds" if ok else "verdict: core property violated")
    return (0 if ok else 3), payload, lines


_COMMANDS = (
    ("cover", "integral minimum-weight edge cover", _cmd_cover),
    ("frac-cover", "optimal half-integral edge cover", _cmd_frac_cover),
    ("gap", "shortest odd cycle and integrality gap", _cmd_gap),
    ("allocate", "stable allocation from the dual optimum", _cmd_allocate),
    ("cost", "exact cost of one coalition", _cmd_cost),
    ("verify", "check an allocation for the core property", _cmd_verify),
)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="covergame",
        description="Exact edge covers, integrality gaps, and stable allocations for edge cover games.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text, handler in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default: text)",
        )
        p.add_argument("graph")
        p.set_defaults(handler=handler)
    commands = sub.choices
    commands["cost"].add_argument(
        "--coalition", required=True, help="comma-separated vertex ids, e.g. 0,2,5"
    )
    commands["frac-cover"].add_argument(
        "--canonical",
        action="store_true",
        help="round until the fractional support is a union of disjoint odd cycles",
    )
    verify = commands["verify"]
    verify.add_argument("allocation")
    verify.add_argument(
        "--exhaustive", action="store_true", help="also run the all-coalitions brute-force oracle"
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, payload, lines = args.handler(load_graph(args.graph), args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (argparse.ArgumentError, OSError, ValueError) as exc:  # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:  # a certificate check failed: a bug, not bad input
        print(f"error: internal: {exc}", file=sys.stderr)
        return 4
    if args.format == "json":
        import json

        lines = [json.dumps(payload, indent=2)]
    try:
        print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader went away; the exit flush must not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process killed by it
    return code


if __name__ == "__main__":
    sys.exit(main())
