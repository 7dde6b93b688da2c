"""Backend that compiles models to scipy's HiGHS LP/MILP solvers."""

from __future__ import annotations

import contextlib
import ctypes
import os
import sys
import time

import numpy as np
import scipy.optimize as sopt
import scipy.sparse as sparse

from repro import _faults
from repro.milp.solution import SolveResult, SolveStatus, finalize_user_sense

from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.milp.model import Model
    from repro.milp.session import SolverSession

_MILP_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}

_LINPROG_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


#: Nonzero budget of one block-diagonal LP stack: a stack holds as many
#: copies of a constraint system as fit in this many matrix nonzeros
#: (at least one).  Around this size the per-call overhead of
#: ``linprog`` (input cleaning, sparse stacking and format conversions)
#: is amortized; much larger stacks were slower on Table-1 DNN-5.
STACK_NNZ = 30_000


try:
    #: The C library, for ``fflush(NULL)`` around the muted MILP call.
    _LIBC: "ctypes.CDLL | None" = ctypes.CDLL(None)
except (OSError, TypeError):  # no dlopen(NULL) on this platform
    _LIBC = None


def _flush_all() -> None:
    """Flush Python's and C's buffered stdout into file descriptor 1."""
    if sys.stdout is not None:
        sys.stdout.flush()
    if _LIBC is not None:
        _LIBC.fflush(None)


@contextlib.contextmanager
def _muted_stdout() -> Iterator[None]:
    """Send file descriptor 1 to ``/dev/null`` for the block.

    scipy's HiGHS MILP prints a stray debug line
    (``HighsMipSolverData::transformNewIntegerFeasibleSolution ...``)
    with C ``printf``, out of reach of ``sys.stdout``.  Both buffers are
    flushed before the switch, so earlier output still reaches the real
    stdout, and again before fd 1 is restored, so the solver's buffered
    bytes land in ``/dev/null``.  Writes from other threads during the
    block are muted too.
    """
    _flush_all()
    try:
        saved = os.dup(1)
    except OSError:  # no fd 1 to mute
        yield
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, 1)
        yield
    finally:
        _flush_all()
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)


def _as_csr(a: object) -> "sparse.csr_matrix":
    """Accept a dense array or any scipy sparse matrix; return CSR."""
    if sparse.issparse(a):
        return a.tocsr()
    return sparse.csr_matrix(a)


def _block_diag(a: object, copies: int) -> "sparse.csr_matrix":
    """``kron(I_copies, a)`` in CSR."""
    return sparse.kron(sparse.identity(copies, format="csr"), _as_csr(a), format="csr")


class ScipyBackend:
    """Solve models with ``scipy.optimize.milp``/``linprog`` (HiGHS).

    Pure LPs are routed to ``linprog`` which avoids the MILP layer's
    presolve overhead; anything with integrality uses ``milp``.
    Constraint matrices are exported sparse (CSR, assembled from COO
    triplets) so no dense ``(rows, n)`` intermediate is built per solve.
    Several objectives over one pure-LP system are solved as one
    block-diagonal LP (:meth:`solve_lp_stack`).
    """

    def solve(
        self,
        model: "Model",
        time_limit: float | None = None,
        mip_gap: float | None = None,
    ) -> SolveResult:
        """Solve ``model`` and return a harmonized :class:`SolveResult`."""
        c, a_ub, b_ub, a_eq, b_eq, bounds, integrality = model.to_standard_form(
            sparse=True
        )
        result = self._solve_std(
            c, a_ub, b_ub, a_eq, b_eq, bounds, integrality, time_limit, mip_gap
        )
        return finalize_user_sense(
            result, model.objective_sense, model.objective.constant
        )

    def open_session(self, model: "Model") -> "SolverSession":
        """Open a cached-export :class:`~repro.milp.session.SolverSession`.

        The standard form is exported (sparse) exactly once; every
        objective the session solves re-runs HiGHS on the cached arrays,
        pure LPs in stacks (:meth:`solve_lp_stack`).
        """
        from repro.milp.session import SolverSession

        return SolverSession(self, model)

    @staticmethod
    def objectives_per_stack(nnz: int) -> int:
        """How many copies of a system with ``nnz`` matrix nonzeros one stack holds."""
        return max(1, STACK_NNZ // max(1, nnz))

    def solve_lp_stack(
        self,
        costs: Sequence[np.ndarray],
        a_ub: object,
        b_ub: np.ndarray,
        a_eq: object,
        b_eq: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        time_limit: float | None,
    ) -> list[SolveResult] | None:
        """Minimize every cost vector over one LP in one ``linprog`` call.

        The K copies of the system become one block-diagonal LP
        (``kron(I_K, A)``, tiled right-hand sides and bounds) whose
        objective is the K cost vectors concatenated.  The objective is
        separable over a product of identical polytopes, so block k of
        the solution is optimal for cost k alone under the same HiGHS
        tolerances; result k reports ``c_k · x_k`` and a 1/K share of
        the stack's solve time.  The per-solve ``time_limit`` is scaled
        by K for the stack.

        Returns:
            One minimization-sense result per cost vector when the stack
            is optimal or infeasible (the copies share their
            constraints, so infeasibility is shared too); ``None`` for
            any other status, in which case the caller re-solves the
            objectives one at a time.
        """
        copies = len(costs)
        n = lo.shape[0]
        stacked = self._solve_std(
            np.concatenate(costs),
            _block_diag(a_ub, copies),
            np.tile(b_ub, copies),
            _block_diag(a_eq, copies),
            np.tile(b_eq, copies),
            list(zip(np.tile(lo, copies), np.tile(hi, copies))),
            np.zeros(copies * n, dtype=bool),
            None if time_limit is None else copies * time_limit,
            None,
        )
        share = stacked.solve_time / copies
        if stacked.status is SolveStatus.INFEASIBLE:
            return [
                SolveResult(
                    status=SolveStatus.INFEASIBLE,
                    solve_time=share,
                    message=stacked.message,
                )
                for _ in costs
            ]
        if stacked.status is not SolveStatus.OPTIMAL:
            return None
        results = []
        for c, x in zip(costs, stacked.values.reshape(copies, n)):
            objective = float(c @ x)
            results.append(
                SolveResult(
                    status=SolveStatus.OPTIMAL,
                    objective=objective,
                    values=x.copy(),
                    solve_time=share,
                    message=stacked.message,
                    bound=objective,
                )
            )
        return results

    def _solve_std(
        self,
        c: np.ndarray,
        a_ub: object,
        b_ub: np.ndarray,
        a_eq: object,
        b_eq: np.ndarray,
        bounds: list[tuple[float, float]],
        integrality: np.ndarray,
        time_limit: float | None,
        mip_gap: float | None,
    ) -> SolveResult:
        """Dispatch a minimization-sense standard form to milp/linprog."""
        if _faults.ENABLED:
            _faults.fault_point("scipy.solve")
        t0 = time.perf_counter()
        if integrality.any():
            result = self._solve_milp(
                c, a_ub, b_ub, a_eq, b_eq, bounds, integrality, time_limit, mip_gap
            )
        else:
            result = self._solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds, time_limit)
        result.solve_time = time.perf_counter() - t0
        return result

    @staticmethod
    def _solve_milp(
        c: np.ndarray,
        a_ub: object,
        b_ub: np.ndarray,
        a_eq: object,
        b_eq: np.ndarray,
        bounds: list[tuple[float, float]],
        integrality: np.ndarray,
        time_limit: float | None,
        mip_gap: float | None,
    ) -> SolveResult:
        constraints = []
        if a_ub.shape[0]:
            constraints.append(sopt.LinearConstraint(_as_csr(a_ub), -np.inf, b_ub))
        if a_eq.shape[0]:
            constraints.append(sopt.LinearConstraint(_as_csr(a_eq), b_eq, b_eq))
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        options: dict = {"presolve": True}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        if mip_gap is not None:
            options["mip_rel_gap"] = float(mip_gap)
        with _muted_stdout():
            res = sopt.milp(
                c=c,
                constraints=constraints,
                integrality=integrality,
                bounds=sopt.Bounds(lo, hi),
                options=options,
            )
        status = _MILP_STATUS.get(res.status, SolveStatus.ERROR)
        if status is SolveStatus.ITERATION_LIMIT and time_limit is not None:
            status = SolveStatus.TIME_LIMIT
        values = np.asarray(res.x) if res.x is not None else np.empty(0)
        objective = float(res.fun) if res.fun is not None else float("nan")
        dual = getattr(res, "mip_dual_bound", None)
        if dual is not None:
            bound = float(dual)
        elif status is SolveStatus.OPTIMAL:
            bound = objective
        else:
            # A primal objective of an interrupted solve is NOT a sound
            # dual bound; report "no bound" rather than an unsound one.
            bound = float("nan")
        return SolveResult(
            status=status,
            objective=objective,
            values=values,
            nodes=int(getattr(res, "mip_node_count", 0) or 0),
            message=str(res.message),
            bound=bound,
        )

    @staticmethod
    def _solve_lp(
        c: np.ndarray,
        a_ub: object,
        b_ub: np.ndarray,
        a_eq: object,
        b_eq: np.ndarray,
        bounds: list[tuple[float, float]],
        time_limit: float | None,
    ) -> SolveResult:
        options: dict = {"presolve": True}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        res = sopt.linprog(
            c=c,
            A_ub=_as_csr(a_ub) if a_ub.shape[0] else None,
            b_ub=b_ub if a_ub.shape[0] else None,
            A_eq=_as_csr(a_eq) if a_eq.shape[0] else None,
            b_eq=b_eq if a_eq.shape[0] else None,
            bounds=bounds,
            method="highs",
            options=options,
        )
        status = _LINPROG_STATUS.get(res.status, SolveStatus.ERROR)
        # HiGHS reports one "limit reached" code for both wall-clock and
        # iteration limits; mirror `_solve_milp` so pure-LP sub-problems
        # report TIME_LIMIT when a time limit was actually requested
        # (global_cert's sound dual-bound fallback keys off this).
        if status is SolveStatus.ITERATION_LIMIT and time_limit is not None:
            status = SolveStatus.TIME_LIMIT
        values = np.asarray(res.x) if res.x is not None else np.empty(0)
        objective = float(res.fun) if res.fun is not None else float("nan")
        # Only a proven-optimal LP objective doubles as a sound dual
        # bound; an interrupted solve's primal value does not (callers
        # like global_cert treat any finite `bound` as certified).
        bound = objective if status is SolveStatus.OPTIMAL else float("nan")
        return SolveResult(
            status=status,
            objective=objective,
            values=values,
            message=str(res.message),
            bound=bound,
        )
