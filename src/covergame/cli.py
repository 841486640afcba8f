"""Command-line front end.

Subcommands: cover, frac-cover, gap, allocate, cost, verify. Every
subcommand accepts --format text|json; rationals print as "p/q" (bare
integer when q = 1) and all iteration upstream is deterministic, so
identical inputs produce byte-identical output.

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
from typing import Sequence

from .covers import (
    EXACT_CANDIDATE_CAP,
    CoverCertificate,
    canonicalize_to_odd_cycles,
    fractional_support_cycles,
    half_integral_cover,
    min_edge_cover_exact,
)
from .errors import CapExceededError
from .game import (
    allocate_alpha_core,
    check_core_dual,
    check_core_stars,
    coalition_cost,
    integrality_gap,
    parse_allocation,
)
from .graphs import load_graph
from .rationals import _echo, _parse_integer, format_rational


_CAP_HELP = "candidate-edge cap for the exact solver"


class _UsageError(Exception):
    pass


def _count(text: str) -> int:
    """argparse type of every numeric flag: ASCII digits only, so a bad
    value is a usage error."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, not {_echo(text)}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for budget errors
        raise _UsageError(message)


def _fmt_edge(e) -> str:
    return f"{e[0]}-{e[1]}"


def _fmt_walk(walk) -> str:
    return "-".join(str(v) for v in walk)


def _fmt_members(members) -> str:
    return ",".join(str(v) for v in sorted(members))


def _certificate_lines(cert: CoverCertificate, label: str) -> list[str]:
    lines = [f"kind: {cert.kind}", f"weight: {format_rational(cert.weight)}", f"{label}:"]
    for e, x in cert.nonzero_entries():
        lines.append(f"  {_fmt_edge(e)} = {format_rational(x)}")
    return lines


def _cmd_cover(g, args) -> tuple[int, dict, list[str]]:
    cert = min_edge_cover_exact(g, max_candidate_edges=args.cap)
    return 0, cert.to_json_dict(), _certificate_lines(cert, "cover")


def _cmd_frac_cover(g, args) -> tuple[int, dict, list[str]]:
    cert = half_integral_cover(g)
    if args.canonical:
        values = canonicalize_to_odd_cycles(g, cert.values)
        cert = CoverCertificate(cert.kind, values, cert.weight, cert.dual_witness)
        cycles = fractional_support_cycles(g, values)
        payload = cert.to_json_dict()
        payload["fractional_cycles"] = [list(walk) for walk in cycles]
        lines = _certificate_lines(cert, "cover")
        if cycles:
            lines.append("fractional cycles:")
            lines.extend(f"  {_fmt_walk(walk)}" for walk in cycles)
        else:
            lines.append("fractional cycles: none")
        return 0, payload, lines
    return 0, cert.to_json_dict(), _certificate_lines(cert, "cover")


def _cmd_gap(g, args) -> tuple[int, dict, list[str]]:
    report = integrality_gap(g)
    payload = {
        "ell": report.ell,
        "rho": format_rational(report.rho),
        "cycle": None if report.cycle is None else list(report.cycle),
        "witness_weights": None
        if report.witness_weights is None
        else [
            {"edge": [u, v], "value": format_rational(w)}
            for (u, v), w in sorted(report.witness_weights.items())
            if w
        ],
    }
    lines = [
        f"ell: {'none' if report.ell is None else report.ell}",
        f"rho: {format_rational(report.rho)}",
        f"cycle: {'none' if report.cycle is None else _fmt_walk(report.cycle)}",
    ]
    return 0, payload, lines


def _cmd_allocate(g, args) -> tuple[int, dict, list[str]]:
    report = allocate_alpha_core(g, max_candidate_edges=args.cap)
    payload = {
        "alpha": format_rational(report.alpha),
        "total": format_rational(report.total),
        "grand_cost": None if report.grand_cost is None else format_rational(report.grand_cost),
        "ratio": None if report.ratio is None else format_rational(report.ratio),
        "allocation": [format_rational(a) for a in report.allocation],
    }
    lines = [
        f"alpha: {format_rational(report.alpha)}",
        f"total: {format_rational(report.total)}",
        "grand cost: unavailable (cap exceeded)"
        if report.grand_cost is None
        else f"grand cost: {format_rational(report.grand_cost)}",
        "ratio: unavailable"
        if report.ratio is None
        else f"ratio: {format_rational(report.ratio)}",
        "allocation:",
    ]
    lines.extend(f"  {v} = {format_rational(a)}" for v, a in enumerate(report.allocation))
    return 0, payload, lines


def _parse_members(text: str) -> list[int]:
    try:
        return [_parse_integer(part.strip()) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        message = f"bad coalition {_echo(text)}; expected comma-separated vertex ids"
        raise ValueError(message) from None


def _cmd_cost(g, args) -> tuple[int, dict, list[str]]:
    members = _parse_members(args.coalition)
    cost = coalition_cost(g, members, max_candidate_edges=args.cap)
    payload = {"coalition": sorted(set(members)), "cost": format_rational(cost)}
    lines = [f"coalition: {_fmt_members(set(members))}", f"cost: {format_rational(cost)}"]
    return 0, payload, lines


def _cmd_verify(g, args) -> tuple[int, dict, list[str]]:
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
        "dual check: ok" if dual_ok else f"dual check: violated at edge {_fmt_edge(bad_edge)}",
        "star check: ok"
        if star_ok
        else f"star check: violated at star v={bad_star[0]} T={_fmt_members(bad_star[1])}",
    ]
    ok = dual_ok and star_ok
    if args.exhaustive:
        from .oracle import OracleBudget, brute_core_check

        # An --oracle-* flag left out keeps the OracleBudget default.
        limits = {
            "max_cover_edges": args.oracle_edges,
            "max_coalition_vertices": args.oracle_vertices,
        }
        budget = OracleBudget(**{k: v for k, v in limits.items() if v is not None})
        oracle_ok, bad_coalition = brute_core_check(g, allocation, budget)
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


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="covergame",
        description="Exact edge covers, integrality gaps, and stable allocations for edge cover games.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format (default: text)"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("cover", parents=[common], help="integral minimum-weight edge cover")
    p.add_argument("graph")
    p.add_argument("--cap", type=_count, default=EXACT_CANDIDATE_CAP, help=_CAP_HELP)
    p.set_defaults(handler=_cmd_cover)

    p = sub.add_parser("frac-cover", parents=[common], help="optimal half-integral edge cover")
    p.add_argument("graph")
    p.add_argument(
        "--canonical",
        action="store_true",
        help="round until the fractional support is a union of disjoint odd cycles",
    )
    p.set_defaults(handler=_cmd_frac_cover)

    p = sub.add_parser("gap", parents=[common], help="shortest odd cycle and integrality gap")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_gap)

    p = sub.add_parser("allocate", parents=[common], help="stable allocation from the dual optimum")
    p.add_argument("graph")
    p.add_argument("--cap", type=_count, default=EXACT_CANDIDATE_CAP, help=_CAP_HELP)
    p.set_defaults(handler=_cmd_allocate)

    p = sub.add_parser("cost", parents=[common], help="exact cost of one coalition")
    p.add_argument("graph")
    p.add_argument("--coalition", required=True, help="comma-separated vertex ids, e.g. 0,2,5")
    p.add_argument("--cap", type=_count, default=EXACT_CANDIDATE_CAP, help=_CAP_HELP)
    p.set_defaults(handler=_cmd_cost)

    p = sub.add_parser("verify", parents=[common], help="check an allocation for the core property")
    p.add_argument("graph")
    p.add_argument("allocation")
    p.add_argument(
        "--exhaustive", action="store_true", help="also run the all-coalitions brute-force oracle"
    )
    p.add_argument("--oracle-vertices", type=_count, help="oracle coalition budget")
    p.add_argument("--oracle-edges", type=_count, help="oracle cover-enumeration budget")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        g = load_graph(args.graph)
        code, payload, lines = args.handler(g, args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # GraphFormatError is a ValueError
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
