"""A dense two-phase primal simplex LP solver in pure numpy.

This exists so that the repository is self-contained: the branch-and-bound
MILP solver (:mod:`repro.milp.branch_bound`) can run entirely without
scipy's HiGHS if asked to.  It is a compact dense-tableau implementation
only intended for the small LPs that appear in tests and in sub-network
certification of tiny networks.  The default pipeline uses HiGHS.

Pivoting uses vectorized **Dantzig pricing** (most-negative reduced
cost) with a vectorized ratio test; after a streak of degenerate pivots
it falls back to **Bland's rule** (first negative column, smallest basis
index on ties) until progress resumes, which restores the anti-cycling
guarantee Dantzig alone lacks.  ``pricing="bland"`` forces the old
always-Bland behaviour — kept for the iteration-count benchmark tests.

The entry point :func:`solve_lp` accepts the same standard form exported
by :meth:`repro.milp.model.Model.to_standard_form`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.milp.solution import SolveStatus

_BIG = 1e15

#: Phase-1 feasibility tolerance (sum of the artificials), and the
#: largest row or bound violation an ``optimal`` answer may carry.
_FEAS_TOL = 1e-7

#: Consecutive degenerate (zero-step) Dantzig pivots tolerated before
#: switching to Bland's rule; a non-degenerate pivot switches back.
_DEGENERATE_STREAK = 12


@dataclass
class LpResult:
    """Raw LP outcome of the simplex routine (minimization sense)."""

    status: SolveStatus
    objective: float
    x: np.ndarray
    iterations: int = 0


def solve_lp(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    bounds: list[tuple[float, float]],
    max_iter: int = 20000,
    tol: float = 1e-9,
    pricing: str = "dantzig",
) -> LpResult:
    """Minimize ``c @ x`` subject to inequality/equality rows and bounds.

    The general-bound problem is reduced to standard form
    ``min c'z s.t. Az = b, z >= 0`` by shifting finite lower bounds,
    splitting free variables, and turning finite upper bounds into rows.

    ``a_ub``/``a_eq`` may be dense arrays or scipy sparse matrices (the
    representation :meth:`Model.to_standard_form(sparse=True)` exports);
    sparse input is densified on entry since the tableau is dense anyway.

    Args:
        pricing: ``"dantzig"`` (default; most-negative reduced cost with
            Bland fallback after a degenerate streak) or ``"bland"``
            (always Bland — slower, used as the pricing baseline).

    Returns:
        An :class:`LpResult`; ``x`` has the caller's variable order and
        ``iterations`` counts the simplex pivots across both phases.
    """
    if pricing not in ("dantzig", "bland"):
        raise ValueError(f"unknown pricing rule {pricing!r}")
    # Accept either matrix representation without importing scipy.
    if hasattr(a_ub, "toarray"):
        a_ub = a_ub.toarray()
    if hasattr(a_eq, "toarray"):
        a_eq = a_eq.toarray()
    n = len(bounds)
    c = np.asarray(c, dtype=float)

    # Column mapping: each original var becomes either one shifted column
    # (finite lb) or a pair of columns (free).  ``colmap[j]`` is
    # (kind, col, shift) with kind in {"shift", "split"}.
    colmap: list[tuple[str, int, float]] = []
    num_cols = 0
    extra_ub_rows: list[tuple[int, float]] = []  # (var index, ub value)
    for j, (lb, ub) in enumerate(bounds):
        lb = -math.inf if lb is None else lb
        ub = math.inf if ub is None else ub
        if lb > ub:
            return LpResult(SolveStatus.INFEASIBLE, math.nan, np.empty(0))
        if math.isfinite(lb):
            colmap.append(("shift", num_cols, lb))
            num_cols += 1
        else:
            colmap.append(("split", num_cols, 0.0))
            num_cols += 2
        if math.isfinite(ub):
            extra_ub_rows.append((j, ub))

    def expand_row(row: np.ndarray) -> tuple[np.ndarray, float]:
        """Rewrite a row over original vars into standard-form columns.

        Returns the expanded row and the constant produced by lower-bound
        shifts (to be subtracted from the RHS).
        """
        out = np.zeros(num_cols)
        shift_const = 0.0
        for j, coef in enumerate(row):
            # repro-lint: ignore[RPR001] — structural sparsity skip: exactly-zero entries have no column image; tolerating near-zeros would drop real (if tiny) coefficients
            if coef == 0.0:
                continue
            kind, col, lb = colmap[j]
            if kind == "shift":
                out[col] = coef
                shift_const += coef * lb
            else:
                out[col] = coef
                out[col + 1] = -coef
        return out, shift_const

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    row_kinds: list[str] = []  # "le" or "eq"
    for i in range(a_ub.shape[0]):
        row, shift = expand_row(a_ub[i])
        rows.append(row)
        rhs.append(b_ub[i] - shift)
        row_kinds.append("le")
    for i in range(a_eq.shape[0]):
        row, shift = expand_row(a_eq[i])
        rows.append(row)
        rhs.append(b_eq[i] - shift)
        row_kinds.append("eq")
    for j, ub in extra_ub_rows:
        unit = np.zeros(n)
        unit[j] = 1.0
        row, shift = expand_row(unit)
        rows.append(row)
        rhs.append(ub - shift)
        row_kinds.append("le")

    c_std, c_shift = expand_row(c)

    m = len(rows)
    if m == 0:
        # Bound-only problem: optimum sits at a bound determined by sign.
        x = np.zeros(n)
        for j, (lb, ub) in enumerate(bounds):
            lb = -math.inf if lb is None else lb
            ub = math.inf if ub is None else ub
            if c[j] > 0:
                if not math.isfinite(lb):
                    return LpResult(SolveStatus.UNBOUNDED, -math.inf, np.empty(0))
                x[j] = lb
            elif c[j] < 0:
                if not math.isfinite(ub):
                    return LpResult(SolveStatus.UNBOUNDED, -math.inf, np.empty(0))
                x[j] = ub
            else:
                x[j] = lb if math.isfinite(lb) else (ub if math.isfinite(ub) else 0.0)
        return LpResult(SolveStatus.OPTIMAL, float(c @ x), x)

    a = np.vstack(rows)
    b = np.asarray(rhs, dtype=float)

    # Add slacks for "le" rows.
    num_slacks = sum(1 for k in row_kinds if k == "le")
    a_full = np.hstack([a, np.zeros((m, num_slacks))])
    slack_col = num_cols
    for i, kind in enumerate(row_kinds):
        if kind == "le":
            a_full[i, slack_col] = 1.0
            slack_col += 1

    # Normalize to b >= 0 so phase-1 artificials start feasible.
    for i in range(m):
        if b[i] < 0:
            a_full[i] *= -1.0
            b[i] *= -1.0

    total_cols = a_full.shape[1]
    status, basis, tableau, iters1 = _phase1(a_full, b, max_iter, tol, pricing)
    if status is not SolveStatus.OPTIMAL:
        return LpResult(status, math.nan, np.empty(0), iterations=iters1)

    c_full = np.zeros(total_cols)
    c_full[: len(c_std)] = c_std
    status, basis, tableau, iters2 = _phase2(
        tableau, basis, c_full, total_cols, max_iter, tol, pricing
    )
    iterations = iters1 + iters2
    if status is not SolveStatus.OPTIMAL:
        return LpResult(
            status,
            math.nan if status is not SolveStatus.UNBOUNDED else -math.inf,
            np.empty(0),
            iterations=iterations,
        )

    z = np.zeros(total_cols)
    for row_idx, col in enumerate(basis):
        if col < total_cols:
            z[col] = tableau[row_idx, -1]

    # Map standard-form columns back to original variables.
    x = np.zeros(n)
    for j in range(n):
        kind, col, lb = colmap[j]
        if kind == "shift":
            x[j] = z[col] + lb
        else:
            x[j] = z[col] - z[col + 1]
    if _violation(x, a_ub, b_ub, a_eq, b_eq, bounds) > _FEAS_TOL:
        # Pivoting on a tiny coefficient can leave a basic variable
        # negative while the reduced costs still read optimal.
        return LpResult(SolveStatus.ERROR, math.nan, np.empty(0), iterations=iterations)
    objective = float(c @ x)
    return LpResult(SolveStatus.OPTIMAL, objective, x, iterations=iterations)


def _violation(
    x: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    bounds: list[tuple[float, float]],
) -> float:
    """Largest violation of ``x`` over the rows and bounds (0 if feasible)."""
    lo = np.array([-math.inf if lb is None else lb for lb, _ in bounds], dtype=float)
    hi = np.array([math.inf if ub is None else ub for _, ub in bounds], dtype=float)
    parts = [lo - x, x - hi, a_ub @ x - b_ub, np.abs(a_eq @ x - b_eq)]
    return max(float(np.max(p, initial=0.0)) for p in parts)


def _phase1(
    a: np.ndarray, b: np.ndarray, max_iter: int, tol: float, pricing: str
) -> tuple[SolveStatus, list[int], np.ndarray, int]:
    """Find an initial basic feasible solution with artificial variables."""
    m, cols = a.shape
    tableau = np.hstack([a, np.eye(m), b.reshape(-1, 1)])
    basis = list(range(cols, cols + m))
    # Phase-1 objective: sum of artificials -> reduced-cost row.
    obj = np.zeros(cols + m + 1)
    obj[cols : cols + m] = 1.0
    for i in range(m):
        obj -= tableau[i]
    status, iters = _iterate(tableau, basis, obj, cols + m, max_iter, tol, pricing)
    if status is not SolveStatus.OPTIMAL:
        return status, basis, tableau, iters
    if -obj[-1] > _FEAS_TOL:
        return SolveStatus.INFEASIBLE, basis, tableau, iters
    # Pivot artificials out of the basis where possible.
    for row_idx, col in enumerate(basis):
        if col >= cols:
            pivot_col = next(
                (j for j in range(cols) if abs(tableau[row_idx, j]) > tol), None
            )
            if pivot_col is not None:
                _pivot(tableau, obj, basis, row_idx, pivot_col)
    keep = list(range(cols)) + [tableau.shape[1] - 1]
    tableau = tableau[:, keep]
    return SolveStatus.OPTIMAL, basis, tableau, iters


def _phase2(
    tableau: np.ndarray,
    basis: list[int],
    c_full: np.ndarray,
    cols: int,
    max_iter: int,
    tol: float,
    pricing: str,
) -> tuple[SolveStatus, list[int], np.ndarray, int]:
    """Optimize the true objective from the phase-1 basis."""
    m = tableau.shape[0]
    obj = np.zeros(cols + 1)
    obj[:cols] = c_full
    for i in range(m):
        col = basis[i]
        if col < cols and abs(obj[col]) > 0:
            obj -= obj[col] * tableau[i]
    status, iters = _iterate(tableau, basis, obj, cols, max_iter, tol, pricing)
    return status, basis, tableau, iters


def _iterate(
    tableau: np.ndarray,
    basis: list[int],
    obj: np.ndarray,
    cols: int,
    max_iter: int,
    tol: float,
    pricing: str = "dantzig",
) -> tuple[SolveStatus, int]:
    """Primal simplex iterations (shared by phases); returns pivot count.

    Entering column: vectorized Dantzig pricing (most-negative reduced
    cost), falling back to Bland's first-negative rule after
    :data:`_DEGENERATE_STREAK` consecutive zero-step pivots (and back to
    Dantzig once a pivot makes progress).  Leaving row: vectorized ratio
    test, smallest basis index among the minimal ratios (Bland's
    tie-break, which the fallback needs for its anti-cycling guarantee).
    """
    m = tableau.shape[0]
    degenerate_streak = 0
    for iteration in range(max_iter):
        reduced = obj[:cols]
        use_bland = pricing == "bland" or degenerate_streak >= _DEGENERATE_STREAK
        if use_bland:
            negative = np.flatnonzero(reduced < -tol)
            if negative.size == 0:
                return SolveStatus.OPTIMAL, iteration
            entering = int(negative[0])
        else:
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -tol:
                return SolveStatus.OPTIMAL, iteration
        column = tableau[:, entering]
        eligible = column > tol
        if not eligible.any():
            return SolveStatus.UNBOUNDED, iteration
        ratios = np.full(m, math.inf)
        ratios[eligible] = tableau[eligible, -1] / column[eligible]
        min_ratio = float(ratios.min())
        ties = np.flatnonzero(ratios <= min_ratio + tol)
        leaving_row = int(ties[np.argmin(np.asarray(basis)[ties])])
        degenerate_streak = 0 if min_ratio > tol else degenerate_streak + 1
        _pivot(tableau, obj, basis, leaving_row, entering)
    return SolveStatus.ITERATION_LIMIT, max_iter


def _pivot(
    tableau: np.ndarray,
    obj: np.ndarray,
    basis: list[int],
    row: int,
    col: int,
) -> None:
    """Pivot the tableau (and objective row) on (row, col)."""
    tableau[row] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0:
            tableau[i] -= tableau[i, col] * tableau[row]
    if abs(obj[col]) > 0:
        obj -= obj[col] * tableau[row]
    basis[row] = col
