"""Exact rational LP/MILP oracle for checking the HiGHS backend.

Every number is converted exactly (``Fraction(float)``) and LPs are
solved by a two-phase tableau simplex under Bland's rule, which cannot
cycle.  No tolerance appears anywhere, so a status or an optimum from
here is the true one for the float data as given.  MILPs are solved by
depth-first branch and bound over the exact LP relaxations; a MILP is
reported unbounded only from a node that holds an integer-feasible
point (with rational data an unbounded relaxation then means an
unbounded MILP).  The tableaux are dense lists of Fractions: meant for
models of a few dozen variables and rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


@dataclass
class ExactResult:
    """An exact status, optimum and optimal point."""

    status: str
    objective: Fraction | None = None
    x: list[Fraction] = field(default_factory=list)


def q(value: object) -> Fraction:
    """``value`` as an exact rational (a float converts without rounding)."""
    return value if isinstance(value, Fraction) else Fraction(float(value))


def _bound(value: object) -> Fraction | None:
    """An exact variable bound; ``None`` for an infinite one."""
    if isinstance(value, Fraction) or math.isfinite(value):
        return q(value)
    return None


def _rows(a: object) -> list[list[Fraction]]:
    if sp.issparse(a):
        a = a.toarray()
    return [[q(v) for v in row] for row in a]


def _pivot(tab: list[list[Fraction]], basis: list[int], r: int, k: int) -> None:
    row = [v / tab[r][k] for v in tab[r]]
    tab[r] = row
    for i, other in enumerate(tab):
        f = other[k]
        if i != r and f:
            tab[i] = [a - f * b if b else a for a, b in zip(other, row)]
    basis[r] = k


def _minimize(
    tab: list[list[Fraction]], basis: list[int], cost: list[Fraction], entering: int
) -> bool:
    """Bland's-rule simplex over the first ``entering`` columns.

    Returns False when the objective is unbounded below.
    """
    while True:
        for k in range(entering):
            reduced = cost[k] - sum(
                cost[b] * tab[r][k] for r, b in enumerate(basis) if cost[b]
            )
            if reduced < 0:
                break
        else:
            return True
        ratios = [
            (row[-1] / row[k], basis[r], r) for r, row in enumerate(tab) if row[k] > 0
        ]
        if not ratios:
            return False
        _pivot(tab, basis, min(ratios)[2], k)


def _standard_lp(
    rows: list[tuple[list[Fraction], Fraction]], cost: list[Fraction]
) -> tuple[str, list[Fraction]]:
    """``min cost·y`` s.t. ``rows`` (``a·y = b``), ``y >= 0``: two phases."""
    n, m = len(cost), len(rows)
    tab = []
    for r, (a, b) in enumerate(rows):
        sign = -1 if b < 0 else 1
        tab.append([sign * v for v in a] + [Fraction(int(i == r)) for i in range(m)]
                   + [sign * b])
    basis = list(range(n, n + m))
    # Phase 1: drive the artificials to zero; they never re-enter.
    _minimize(tab, basis, [Fraction(0)] * n + [Fraction(1)] * m, n)
    if any(row[-1] for row, b in zip(tab, basis) if b >= n):
        return INFEASIBLE, []
    # Pivot every zero artificial out of the basis; a row with no
    # structural entry left is linearly dependent and is dropped.
    for r in reversed(range(m)):
        if basis[r] >= n:
            k = next((k for k in range(n) if tab[r][k]), None)
            if k is None:
                del tab[r], basis[r]
            else:
                _pivot(tab, basis, r, k)
    tab = [row[:n] + row[-1:] for row in tab]
    if not _minimize(tab, basis, cost, n):
        return UNBOUNDED, []
    y = [Fraction(0)] * n
    for row, b in zip(tab, basis):
        y[b] = row[-1]
    return OPTIMAL, y


def _solve_lp(
    c: list[Fraction],
    a_ub: list[list[Fraction]],
    b_ub: list[Fraction],
    a_eq: list[list[Fraction]],
    b_eq: list[Fraction],
    bounds: list[tuple[Fraction | None, Fraction | None]],
) -> ExactResult:
    """``min c·x`` s.t. ``a_ub x <= b_ub``, ``a_eq x = b_eq``, bounds."""
    # x_j = offset_j + sum(sign * y_col), y >= 0: shift a finite lower
    # bound, mirror a finite upper bound alone, split a free column.
    offsets, columns, widths = [], [], []
    width = 0
    for lo, hi in bounds:
        if lo is not None:
            offsets.append(lo)
            columns.append([(width, 1)])
            if hi is not None:
                widths.append((width, hi - lo))
            width += 1
        elif hi is not None:
            offsets.append(hi)
            columns.append([(width, -1)])
            width += 1
        else:
            offsets.append(Fraction(0))
            columns.append([(width, 1), (width + 1, -1)])
            width += 2
    total = width + len(a_ub) + len(widths)

    def lift(coeffs: list[Fraction]) -> tuple[list[Fraction], Fraction]:
        out, shift = [Fraction(0)] * total, Fraction(0)
        for j, a in enumerate(coeffs):
            if a:
                shift += a * offsets[j]
                for col, sign in columns[j]:
                    out[col] += sign * a
        return out, shift

    rows = []
    slack = width
    for coeffs, b in zip(a_ub, b_ub):
        a, shift = lift(coeffs)
        a[slack] = Fraction(1)
        slack += 1
        rows.append((a, b - shift))
    for col, span in widths:
        a = [Fraction(0)] * total
        a[col] = a[slack] = Fraction(1)
        slack += 1
        rows.append((a, span))
    for coeffs, b in zip(a_eq, b_eq):
        a, shift = lift(coeffs)
        rows.append((a, b - shift))
    cost, constant = lift(c)
    status, y = _standard_lp(rows, cost)
    if status != OPTIMAL:
        return ExactResult(status)
    x = [off + sum(sign * y[col] for col, sign in cols)
         for off, cols in zip(offsets, columns)]
    return ExactResult(OPTIMAL, constant + sum(a * v for a, v in zip(cost, y)), x)


def solve_exact(
    c: object,
    a_ub: object,
    b_ub: object,
    a_eq: object,
    b_eq: object,
    bounds: object,
    integrality: object = None,
) -> ExactResult:
    """Exact ``min c·x`` over the standard form ``Model.to_standard_form`` exports.

    Accepts floats, numpy arrays, scipy sparse matrices or Fractions;
    bounds may be infinite.  Columns flagged in ``integrality`` must be
    integral (depth-first branch and bound).
    """
    c = [q(v) for v in c]
    lp = (_rows(a_ub), [q(v) for v in b_ub], _rows(a_eq), [q(v) for v in b_eq])
    ints = [] if integrality is None else np.flatnonzero(integrality).tolist()
    bounds = [(_bound(lo), _bound(hi)) for lo, hi in bounds]
    return _branch_and_bound(c, lp, bounds, ints)


def _branch_and_bound(
    c: list[Fraction],
    lp: tuple,
    bounds: list[tuple[Fraction | None, Fraction | None]],
    ints: list[int],
) -> ExactResult:
    best: ExactResult | None = None
    nodes = [bounds]
    while nodes:
        node = nodes.pop()
        relaxed = _solve_lp(c, *lp, node)
        if relaxed.status == INFEASIBLE:
            continue
        if relaxed.status == UNBOUNDED:
            feasible = _branch_and_bound([Fraction(0)] * len(c), lp, node, ints)
            if feasible.status == OPTIMAL:
                return ExactResult(UNBOUNDED)
            continue
        if best is not None and relaxed.objective >= best.objective:
            continue
        j = next((j for j in ints if relaxed.x[j].denominator != 1), None)
        if j is None:
            best = relaxed
            continue
        lo, hi = node[j]
        split = relaxed.x[j]
        up, down = list(node), list(node)
        up[j] = (Fraction(math.ceil(split)), hi)
        down[j] = (lo, Fraction(math.floor(split)))
        nodes += [up, down]
    return best or ExactResult(INFEASIBLE)


def solve_model(model: object) -> ExactResult:
    """Exact optimum of a ``Model`` in its own sense, constant included.

    Reads the dense export, so the sparse one HiGHS solves is checked
    against an independent path.
    """
    c, a_ub, b_ub, a_eq, b_eq, bounds, integrality = model.to_standard_form()
    result = solve_exact(c, a_ub, b_ub, a_eq, b_eq, bounds, integrality)
    if result.status == OPTIMAL:
        sign = -1 if model.objective_sense == "max" else 1
        result.objective = sign * result.objective + q(model.objective.constant)
    return result


def assert_agrees(result: object, exact: ExactResult, tol: float = 1e-6) -> None:
    """A HiGHS ``SolveResult`` has the exact status and, when optimal, an
    objective within ``tol`` (relative above magnitude 1) of the exact one."""
    __tracebackhide__ = True
    assert result.status.value == exact.status, (
        f"HiGHS {result.status.value}, exact {exact.status}"
    )
    if exact.status == OPTIMAL:
        want = float(exact.objective)
        assert abs(result.objective - want) <= tol * max(1.0, abs(want)), (
            f"HiGHS {result.objective!r}, exact {want!r}"
        )
