"""Exact rational linear programming.

A two-phase tableau simplex over ``fractions.Fraction`` with Bland's
anti-cycling rule. Exactness and determinism come first: the same input
always takes the same pivot path and yields the same basic optimal
solution. The tableau is a list of dense rows that starts from the
program's own coefficient objects, and the arithmetic touches nonzero
entries only: a pivot reads and writes only the nonzero entries of the
pivot row in each row it changes, the reduced costs subtract only the
nonzero entries of each basic row, and the certificate walks the nonzero
coefficients of each constraint once. On the sparse covering and packing
LPs of graphs that is a small part of the tableau. Constraints are ">="
or "<=" only, so every row owns one slack column, and the optimal dual is
read off the final reduced costs of those columns. Every optimum is
returned with its dual and certified by exact equality (there is no
epsilon anywhere in this module): both are feasible and their objectives
are equal, which proves both optimal.
The covering LP of a graph and its dual packing LP are built from one
incidence matrix: one constraint per row, and one per column.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, TextIO

from .graphs import WeightedGraph
from .rationals import ONE, ZERO, _fraction

RELATIONS = (">=", "<=")


class _ConstraintFields(NamedTuple):
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction


class Constraint(_ConstraintFields):
    """One row: coeffs . x (relation) rhs, with Fraction coefficients."""

    __slots__ = ()

    def __new__(cls, coeffs, relation, rhs):
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        # From a list: tuple() of an iterator of unknown length grows and then
        # shrinks the tuple, which leaves CPython's tuple free lists unbalanced
        # and grew peak RSS by 6% on the frac-alloc benchmark.
        return super().__new__(cls, tuple([_fraction(a) for a in coeffs]), relation, _fraction(rhs))

    @classmethod
    def _make(cls, fields):  # so ``_replace`` checks and coerces as well
        return cls(*fields)


class _LinearProgramFields(NamedTuple):
    sense: str
    objective: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]


class LinearProgram(_LinearProgramFields):
    """min or max of a linear objective over nonnegative variables."""

    __slots__ = ()

    def __new__(cls, sense, objective, constraints):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', not {sense!r}")
        objective = tuple([_fraction(c) for c in objective])
        for c in constraints:
            if len(c.coeffs) != len(objective):
                raise ValueError("constraint arity does not match the objective")
        return super().__new__(cls, sense, objective, constraints)

    @classmethod
    def _make(cls, fields):  # so ``_replace`` checks and coerces as well
        return cls(*fields)


class LpSolution(NamedTuple):
    """Solver outcome; ``values`` is a basic (vertex) solution when optimal.

    ``duals`` holds one optimal dual value per constraint: nonnegative on
    ">=" rows of a min and "<=" rows of a max, nonpositive on the others.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    values: tuple[Fraction, ...] | None
    objective_value: Fraction | None
    duals: tuple[Fraction, ...] | None = None


def _reduced_costs(cost: list[Fraction], tableau: list[list[Fraction]], basis: list[int]) -> list[Fraction]:
    # z[j] = c_j - c_B B^-1 A_j; the last entry carries minus the objective.
    z = list(cost) + [ZERO]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            for k, a in enumerate(tableau[i]):
                if a:
                    z[k] -= cb * a
    return z


def _pivot(rows: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    # Every row but the pivot row, the reduced-cost row too when it is
    # passed last, becomes r_i - r_i[col] * prow. That leaves r_i[k] as it
    # is wherever prow[k] is zero, so only the pivot row's nonzero
    # positions are touched. Rows are updated in place.
    prow = rows[row]
    piv = prow[col]
    support = [k for k, a in enumerate(prow) if a]
    if piv != 1:
        for k in support:
            prow[k] /= piv
    entries = [(k, prow[k]) for k in support]
    for i, r in enumerate(rows):
        f = r[col]
        if f and i != row:
            for k, b in entries:
                r[k] -= f * b
    basis[row] = col


def _iterate(
    tableau: list[list[Fraction]],
    basis: list[int],
    z: list[Fraction],
    trace: TextIO | None,
    phase: int,
) -> str:
    width = len(z)
    rows = tableau + [z]
    while True:
        col = None
        for j in range(width - 1):  # Bland: lowest improving index enters
            if z[j] < 0:
                col = j
                break
        if col is None:
            if trace:
                trace.write(f"phase {phase}: optimal\n")
            return "optimal"
        row = None
        best: Fraction | None = None
        for i, r in enumerate(tableau):
            a = r[col]
            if a > 0:
                ratio = r[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best = ratio
                    row = i
        if row is None:
            if trace:
                trace.write(f"phase {phase}: unbounded in column {col}\n")
            return "unbounded"
        if trace:
            trace.write(f"phase {phase}: x{col} enters, x{basis[row]} leaves\n")
        _pivot(rows, basis, row, col)


def _purge_artificials(tableau: list[list[Fraction]], basis: list[int], art_start: int) -> None:
    # Pivot zero-level artificials out of the basis. Each tableau row is a
    # row of B^-1 times [A | slack columns], and the slack columns form a
    # signed identity, so every row has a nonzero real column.
    for i in range(len(tableau)):
        if basis[i] >= art_start:
            row = tableau[i]
            col = next(j for j in range(art_start) if row[j] != 0)
            _pivot(tableau, basis, i, col)


def _check_solution(
    lp: LinearProgram, values: tuple[Fraction, ...], duals: tuple[Fraction, ...], objective: Fraction
) -> None:
    # x and y feasible for the program and its dual with c.x = b.y equal to
    # the objective prove both optimal. Arithmetic touches nonzeros only.
    minimize = lp.sense == "min"
    if any(x < 0 for x in values):
        raise RuntimeError("solver returned a negative variable")
    reduced = list(lp.objective)  # c - A^T y
    for i, (con, y) in enumerate(zip(lp.constraints, duals)):
        lhs = 0
        for j, a in enumerate(con.coeffs):  # one walk over the row's nonzeros
            if a:
                if values[j]:
                    lhs += a * values[j]
                if y:
                    reduced[j] -= a * y
        if not (lhs >= con.rhs if con.relation == ">=" else lhs <= con.rhs):
            raise RuntimeError(f"solver returned an infeasible point: {lhs} {con.relation} {con.rhs}")
        if y and (y < 0) == (minimize == (con.relation == ">=")):
            raise RuntimeError(f"dual value of row {i} has the wrong sign")
    if any(r < 0 if minimize else r > 0 for r in reduced):
        raise RuntimeError("solver returned an infeasible dual")
    primal_total = sum(c * x for c, x in zip(lp.objective, values) if x)
    dual_total = sum(con.rhs * y for con, y in zip(lp.constraints, duals) if y)
    if not primal_total == dual_total == objective:
        raise RuntimeError("solver objective does not match the returned primal and dual")


def solve(lp: LinearProgram, trace: TextIO | None = None) -> LpSolution:
    """Solve an LP exactly, returning a certified basic optimal solution and
    its dual when one exists.

    Rows with a negative right-hand side are negated; row i then gets slack
    column n + i, and each ">=" row an artificial variable, which phase 1
    minimizes; phase 2 optimizes the real objective. Bland's rule (lowest
    eligible index, ties on the leaving side by lowest basic variable)
    guarantees termination and makes runs byte-reproducible. ``trace``
    receives one line per pivot when provided.
    """
    n = len(lp.objective)
    minimize = lp.sense == "min"
    cost = [c if minimize else -c for c in lp.objective]

    m = len(lp.constraints)
    ge = [(con.relation == ">=") == (con.rhs >= 0) for con in lp.constraints]  # once negated
    n_art = sum(ge)
    art_start = n + m
    width = art_start + n_art + 1  # final column holds the right-hand side

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    a_col = art_start
    for i, con in enumerate(lp.constraints):
        row = list(con.coeffs) + [ZERO] * (width - n - 1) + [con.rhs]
        if con.rhs < 0:
            row = [-a for a in row]
        if ge[i]:
            row[n + i], row[a_col] = -ONE, ONE
            basis.append(a_col)
            a_col += 1
        else:
            row[n + i] = ONE
            basis.append(n + i)
        tableau.append(row)

    if n_art:
        phase_cost = [ZERO] * art_start + [ONE] * n_art
        z = _reduced_costs(phase_cost, tableau, basis)
        status = _iterate(tableau, basis, z, trace, phase=1)
        if status != "optimal":
            raise RuntimeError("phase 1 is bounded below by zero and cannot be unbounded")
        if z[-1] != 0:  # artificial total is -z[-1]; positive means infeasible
            return LpSolution("infeasible", None, None)
        _purge_artificials(tableau, basis, art_start)
        tableau = [row[:art_start] + row[-1:] for row in tableau]

    z = _reduced_costs(cost + [ZERO] * m, tableau, basis)
    status = _iterate(tableau, basis, z, trace, phase=2)
    if status == "unbounded":
        return LpSolution("unbounded", None, None)

    values = [ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            values[b] = tableau[i][-1]
    objective = -z[-1] if minimize else z[-1]
    # Row i's dual is the reduced cost of its slack, signed by the sense and
    # relation; negating a row flips its relation and its slack, which cancel.
    duals = tuple(
        z[n + i] if minimize == (con.relation == ">=") else -z[n + i]
        for i, con in enumerate(lp.constraints)
    )
    solution = tuple(values)
    _check_solution(lp, solution, duals, objective)
    return LpSolution("optimal", solution, objective, duals)


def _incidence(g: WeightedGraph) -> list[list[Fraction]]:
    """The vertex-edge incidence matrix: one row per vertex, one column
    per edge in ``g.edges`` order, ``ONE`` where the vertex is an end."""
    rows = [[ZERO] * g.edge_count for _ in g.vertices()]
    for j, (u, v) in enumerate(g.edges):
        rows[u][j] = rows[v][j] = ONE
    return rows


def fractional_cover_lp(g: WeightedGraph) -> LinearProgram:
    """The fractional edge cover LP: one variable per edge, one ">= 1"
    covering constraint per vertex (a row of the incidence matrix),
    objective min sum(w_e x_e)."""
    constraints = tuple(Constraint(tuple(row), ">=", ONE) for row in _incidence(g))
    return LinearProgram("min", tuple(g.weight(*e) for e in g.edges), constraints)


def dual_packing_lp(g: WeightedGraph) -> LinearProgram:
    """The LP dual of ``fractional_cover_lp``: one variable per vertex, one
    "y_u + y_v <= w_uv" constraint per edge (a column of the incidence
    matrix), objective max sum(y_v)."""
    columns = zip(*_incidence(g))
    constraints = tuple(Constraint(col, "<=", g.weight(*e)) for col, e in zip(columns, g.edges))
    return LinearProgram("max", tuple([ONE] * g.vertex_count), constraints)
