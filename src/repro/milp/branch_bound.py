"""A pure-Python branch-and-bound MILP solver over LP relaxations.

This backend demonstrates that the certification pipeline does not depend
on any specific commercial solver: given the standard form exported by
:class:`repro.milp.model.Model`, it performs best-first branch-and-bound,
solving LP relaxations either with scipy's HiGHS ``linprog`` (default,
``lp_solver="highs"``) or with the repository's own dense simplex
(``lp_solver="simplex"``).

Branching is most-fractional; node selection is best-bound; integrality
of "binary"/"integer" columns is enforced by bound tightening.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize as sopt

from repro.milp import simplex
from repro.milp.solution import SolveResult, SolveStatus, finalize_user_sense

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.milp.model import Model
    from repro.milp.session import SolverSession

_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    """A branch-and-bound node ordered by its LP relaxation bound."""

    bound: float
    seq: int
    lo: np.ndarray = field(compare=False)
    hi: np.ndarray = field(compare=False)


class BranchBoundBackend:
    """Best-first branch-and-bound MILP solver.

    Args:
        lp_solver: ``"highs"`` to relax with scipy linprog (sparse
            constraint matrices), ``"simplex"`` to use
            :mod:`repro.milp.simplex` (fully self-contained, dense).
        max_nodes: Safety cap on explored nodes.
    """

    name = "python"

    def __init__(self, lp_solver: str = "highs", max_nodes: int = 200000) -> None:
        if lp_solver not in ("highs", "simplex"):
            raise ValueError(f"unknown lp_solver {lp_solver!r}")
        self.lp_solver = lp_solver
        self.max_nodes = max_nodes

    # -- public API ---------------------------------------------------------

    def solve(
        self,
        model: "Model",
        time_limit: float | None = None,
        mip_gap: float | None = None,
    ) -> SolveResult:
        """Solve ``model``; see :meth:`repro.milp.model.Model.solve`."""
        c, a_ub, b_ub, a_eq, b_eq, bounds, integrality = model.to_standard_form(
            sparse=self.lp_solver == "highs"
        )
        result = self._solve_std(
            c, a_ub, b_ub, a_eq, b_eq, bounds, integrality, time_limit, mip_gap
        )
        return finalize_user_sense(
            result, model.objective_sense, model.objective.constant
        )

    def open_session(self, model: "Model") -> "SolverSession":
        """Open a cached-export :class:`~repro.milp.session.SolverSession`.

        The export is sparse when relaxations go to HiGHS and dense for
        the self-contained simplex.
        """
        from repro.milp.session import SolverSession

        return SolverSession(self, model, sparse=self.lp_solver == "highs")

    # -- internals ------------------------------------------------------------

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
        """Run branch-and-bound on a minimization-sense standard form."""
        t0 = time.perf_counter()
        result = self._branch_and_bound(
            c, a_ub, b_ub, a_eq, b_eq, bounds, integrality, time_limit, mip_gap
        )
        result.solve_time = time.perf_counter() - t0
        result.backend = f"{self.name}/{self.lp_solver}"
        return result

    def _solve_relaxation(
        self,
        c: np.ndarray,
        a_ub: object,
        b_ub: np.ndarray,
        a_eq: object,
        b_eq: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
    ) -> tuple[SolveStatus, float, np.ndarray, int]:
        """LP-relax with the configured engine.

        Returns ``(status, obj, x, iterations)``.
        """
        bounds = list(zip(lo, hi))
        if self.lp_solver == "highs":
            res = sopt.linprog(
                c=c,
                A_ub=a_ub if a_ub.shape[0] else None,
                b_ub=b_ub if a_ub.shape[0] else None,
                A_eq=a_eq if a_eq.shape[0] else None,
                b_eq=b_eq if a_eq.shape[0] else None,
                bounds=bounds,
                method="highs",
            )
            status = {
                0: SolveStatus.OPTIMAL,
                1: SolveStatus.ITERATION_LIMIT,
                2: SolveStatus.INFEASIBLE,
                3: SolveStatus.UNBOUNDED,
            }.get(res.status, SolveStatus.ERROR)
            x = np.asarray(res.x) if res.x is not None else np.empty(0)
            obj = float(res.fun) if res.fun is not None else math.nan
            return status, obj, x, 0
        lp = simplex.solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds)
        return lp.status, lp.objective, lp.x, lp.iterations

    def _branch_and_bound(
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
        int_cols = np.flatnonzero(integrality)
        lo0 = np.array([b[0] for b in bounds], dtype=float)
        hi0 = np.array([b[1] for b in bounds], dtype=float)

        status, obj, x, lp_iters = self._solve_relaxation(
            c, a_ub, b_ub, a_eq, b_eq, lo0, hi0
        )
        if status is not SolveStatus.OPTIMAL:
            return SolveResult(
                status=status,
                message="root relaxation not optimal",
                iterations=lp_iters,
            )
        if int_cols.size == 0:
            return SolveResult(
                status=SolveStatus.OPTIMAL, objective=obj, values=x, bound=obj,
                iterations=lp_iters,
            )

        seq = itertools.count()
        heap: list[_Node] = [_Node(obj, next(seq), lo0, hi0)]
        # Nodes whose LP relaxation failed (neither optimal nor
        # infeasible) prove nothing about their subtree: they stay open
        # at their parent's bound, and the solve ends with their status.
        failed: list[tuple[_Node, SolveStatus]] = []
        failed_bound = math.inf
        gap_closed = False
        incumbent_obj = math.inf
        incumbent_x: np.ndarray | None = None
        nodes_explored = 0
        deadline = None if time_limit is None else time.perf_counter() + time_limit

        while heap:
            if deadline is not None and time.perf_counter() > deadline:
                return self._finish(
                    incumbent_obj,
                    incumbent_x,
                    nodes_explored,
                    SolveStatus.TIME_LIMIT,
                    heap + [n for n, _ in failed],
                    lp_iters,
                )
            if nodes_explored >= self.max_nodes:
                return self._finish(
                    incumbent_obj,
                    incumbent_x,
                    nodes_explored,
                    SolveStatus.ITERATION_LIMIT,
                    heap + [n for n, _ in failed],
                    lp_iters,
                )
            node = heapq.heappop(heap)
            if mip_gap is not None and incumbent_x is not None:
                # Best-first order makes the popped node's bound the best
                # heap bound — no heap scan needed.  The gap is checked
                # on every pop (not only after incumbent updates), so a
                # slowly-improving bound also terminates.
                best_bound = min(node.bound, failed_bound)
                gap = abs(incumbent_obj - best_bound) / max(1.0, abs(incumbent_obj))
                if gap <= mip_gap:
                    heapq.heappush(heap, node)  # keep the bound sound
                    gap_closed = True
                    break
            if node.bound >= incumbent_obj - 1e-12:
                continue  # pruned by bound
            status, obj, x, iters = self._solve_relaxation(
                c, a_ub, b_ub, a_eq, b_eq, node.lo, node.hi
            )
            lp_iters += iters
            nodes_explored += 1
            if status not in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
                failed.append((node, status))
                failed_bound = min(failed_bound, node.bound)
                continue
            if status is not SolveStatus.OPTIMAL or obj >= incumbent_obj - 1e-12:
                continue
            frac_col = self._most_fractional(x, int_cols)
            if frac_col is None:
                incumbent_obj = obj
                incumbent_x = x
                if mip_gap is not None and heap:
                    best_bound = min(heap[0].bound, failed_bound)
                    gap = abs(incumbent_obj - best_bound) / max(1.0, abs(incumbent_obj))
                    if gap <= mip_gap:
                        gap_closed = True
                        break
                continue
            val = x[frac_col]
            lo_child = node.lo.copy()
            hi_child = node.hi.copy()
            hi_child[frac_col] = math.floor(val)
            if lo_child[frac_col] <= hi_child[frac_col]:
                heapq.heappush(heap, _Node(obj, next(seq), lo_child, hi_child))
            lo_child2 = node.lo.copy()
            hi_child2 = node.hi.copy()
            lo_child2[frac_col] = math.ceil(val)
            if lo_child2[frac_col] <= hi_child2[frac_col]:
                heapq.heappush(heap, _Node(obj, next(seq), lo_child2, hi_child2))

        # A closed gap covers the failed nodes' bounds too, and a failed
        # node the incumbent dominates hides nothing better; otherwise
        # the solve ends with the status of the best-bound failed node.
        left = [(n, s) for n, s in failed if n.bound < incumbent_obj - 1e-12]
        status = SolveStatus.INFEASIBLE
        if left and not gap_closed:
            status = min(left, key=lambda pair: pair[0].bound)[1]
        return self._finish(
            incumbent_obj, incumbent_x, nodes_explored, status,
            heap + [n for n, _ in failed], lp_iters,
        )

    @staticmethod
    def _most_fractional(x: np.ndarray, int_cols: np.ndarray) -> int | None:
        """Column with fractional part closest to 0.5, or None if integral."""
        if int_cols.size == 0:
            return None
        vals = x[int_cols]
        frac_dist = np.abs(vals - np.round(vals))  # distance from nearest int
        best = int(np.argmax(frac_dist))
        if frac_dist[best] <= _INT_TOL:
            return None
        return int(int_cols[best])

    @staticmethod
    def _finish(
        obj: float,
        x: "np.ndarray | None",
        nodes: int,
        fail_status: SolveStatus,
        open_nodes: "list[_Node]",
        lp_iters: int = 0,
    ) -> SolveResult:
        """Wrap up: report the incumbent if any, else the failure status.

        The sound dual bound is the minimum over the open nodes' LP
        bounds (heap nodes and nodes whose LP failed), capped by the
        incumbent itself: when the search space is exhausted — or every
        open node is dominated — the incumbent is the optimum.
        Interrupted solves (time/node limits, MIP-gap early exit, failed
        node LPs) therefore still report a finite, sound ``bound``.
        """
        best_open = min((n.bound for n in open_nodes), default=math.inf)
        if x is not None:
            status = (
                SolveStatus.OPTIMAL
                if fail_status is SolveStatus.INFEASIBLE
                else fail_status
            )
            return SolveResult(
                status=status,
                objective=obj,
                values=x,
                nodes=nodes,
                bound=min(obj, best_open),
                iterations=lp_iters,
            )
        bound = best_open if math.isfinite(best_open) else math.nan
        return SolveResult(
            status=fail_status, nodes=nodes, bound=bound, iterations=lp_iters
        )
