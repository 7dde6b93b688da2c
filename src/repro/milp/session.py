"""Solver sessions: one export, many objectives.

A :class:`SolverSession` snapshots a :class:`~repro.milp.model.Model`'s
standard form once and then answers a *sequence* of solves under
swapped objectives without ever re-exporting; pure-LP objectives are
solved several at a time as one block-diagonal LP.  It carries every
multi-objective solve (:meth:`Model.solve_many`: Algorithm 1's LP
stacks, the exact and global certifiers, split leaves).

Sessions are *snapshots*: changes made to the model after the session
was opened are not seen.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import _faults, _sanitize
from repro.milp.expr import LinExpr, Var
from repro.milp.model import Model
from repro.milp.solution import SolveResult, finalize_user_sense

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.milp.scipy_backend import ScipyBackend

__all__ = ["SolverSession", "objectives_per_stack", "open_session"]


class SolverSession:
    """Objective swaps + re-solves over one cached standard form.

    Create via :func:`open_session` or ``ScipyBackend.open_session``.
    The session captures the model's sparse export once; afterwards
    :meth:`set_objective` swaps the cost vector and :meth:`solve`
    re-solves without re-export, and :meth:`solve_objectives` runs a
    whole objective list, stacked where the nonzero budget allows.

    Args:
        solver: The HiGHS wrapper solving the snapshot.
        model: The model to snapshot (not referenced after ``__init__``
            except for objective-vector assembly and stack sizing).
    """

    def __init__(self, solver: "ScipyBackend", model: Model) -> None:
        (
            self._c,
            self._a_ub,
            self._b_ub,
            self._a_eq,
            self._b_eq,
            bounds,
            self._integrality,
        ) = model.to_standard_form(sparse=True)
        self._solver = solver
        self._model = model
        self._lo = np.array([b[0] for b in bounds], dtype=float)
        self._hi = np.array([b[1] for b in bounds], dtype=float)
        self._sense = model.objective_sense
        self._constant = model.objective.constant
        self._closed = False
        self._stack_rng: np.random.Generator | None = None  # sanitizer sampling

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Mark the session closed; idempotent.

        A closed session refuses further objective swaps and solves —
        reuse after close is a bug that must fail loudly, not solve a
        stale snapshot.
        """
        self._closed = True

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("solver session is closed")

    # -- solving ---------------------------------------------------------

    def set_objective(self, expr: LinExpr | Var, sense: str = "min") -> None:
        """Swap the objective (same semantics as :meth:`Model.solve_many`)."""
        self._require_open()
        c, expr = self._model.objective_vector(expr, sense)
        self._c = c
        self._sense = sense
        self._constant = expr.constant

    def solve(
        self, time_limit: float | None = None, mip_gap: float | None = None
    ) -> SolveResult:
        """Solve the snapshot under the current objective.

        Equivalent (same statuses, same optima) to solving the model
        with that objective set — the property the session test-suite
        asserts.
        """
        self._require_open()
        if _faults.ENABLED:
            _faults.fault_point("session.solve")
        result = self._solver._solve_std(
            self._c, self._a_ub, self._b_ub, self._a_eq, self._b_eq,
            list(zip(self._lo, self._hi)), self._integrality,
            time_limit, mip_gap,
        )
        return finalize_user_sense(result, self._sense, self._constant)

    def objectives_per_stack(self) -> int:
        """Objectives :meth:`solve_objectives` hands HiGHS per call.

        1 unless the session is a pure LP; then as many copies of the
        system as the solver's nonzero budget allows (module-level
        :func:`objectives_per_stack`).
        """
        self._require_open()
        return objectives_per_stack(self._model)

    def solve_objectives(
        self,
        objectives: 'Sequence[tuple["LinExpr | Var", str]]',
        time_limit: float | None = None,
    ) -> list[SolveResult]:
        """Solve the snapshot under several objectives, in order.

        The objectives go to HiGHS in consecutive stacks of
        :meth:`objectives_per_stack`.  A stack of one is a plain
        :meth:`solve`; a larger stack is one block-diagonal LP whose
        result k is what :meth:`solve` reports for objective k alone,
        up to the solver's tolerances.  A stack that comes back neither
        optimal nor infeasible is re-solved one objective at a time, so
        unbounded and limited solves report exactly what :meth:`solve`
        reports.  The session is left holding the last objective.
        """
        objectives = list(objectives)
        per_stack = self.objectives_per_stack() if len(objectives) > 1 else 1
        results: list[SolveResult] = []
        for start in range(0, len(objectives), per_stack):
            group = objectives[start : start + per_stack]
            solved = self._solve_stack(group, time_limit) if len(group) > 1 else None
            if solved is None:
                solved = []
                for expr, sense in group:
                    self.set_objective(expr, sense)
                    solved.append(self.solve(time_limit=time_limit))
            results.extend(solved)
        return results

    def _solve_stack(
        self,
        group: 'Sequence[tuple["LinExpr | Var", str]]',
        time_limit: float | None,
    ) -> list[SolveResult] | None:
        """Solve ``group`` in one solver call (see :meth:`solve_objectives`).

        Returns ``None`` when the stack came back neither optimal nor
        infeasible: the caller then solves the group one at a time.
        """
        self._require_open()
        if _faults.ENABLED:
            _faults.fault_point("session.solve")
        vectors = [self._model.objective_vector(expr, sense) for expr, sense in group]
        senses = [sense for _, sense in group]
        constants = [expr.constant for _, expr in vectors]
        self._c, self._sense, self._constant = vectors[-1][0], senses[-1], constants[-1]
        stacked = self._solver.solve_lp_stack(
            [c for c, _ in vectors], self._a_ub, self._b_ub, self._a_eq,
            self._b_eq, self._lo, self._hi, time_limit,
        )
        if stacked is None:
            return None
        results = [
            finalize_user_sense(result, s, k)
            for result, s, k in zip(stacked, senses, constants)
        ]
        if _sanitize.ENABLED:
            self._check_stack(group, results, time_limit)
        return results

    def _check_stack(
        self,
        group: 'Sequence[tuple["LinExpr | Var", str]]',
        results: list[SolveResult],
        time_limit: float | None,
    ) -> None:
        """Sanitizer contract of one stacked solve.

        Every block's solution must satisfy the unstacked system, and
        one seeded objective, re-solved alone, must agree with its
        stacked result.
        """
        for k, result in enumerate(results):
            if result.is_optimal:
                _sanitize.check_lp_feasible(
                    result.values, self._a_ub, self._b_ub, self._a_eq, self._b_eq,
                    self._lo, self._hi, f"stacked LP block {k}",
                )
        if self._stack_rng is None:
            self._stack_rng = np.random.default_rng(0)
        pick = int(self._stack_rng.integers(len(group)))
        self.set_objective(*group[pick])
        alone = self.solve(time_limit=time_limit)
        self.set_objective(*group[-1])
        _sanitize.check_stack_agreement(
            results[pick].status.value, results[pick].objective,
            alone.status.value, alone.objective,
            f"stacked LP objective {pick}",
        )


def objectives_per_stack(model: Model) -> int:
    """Objectives one stacked solve of ``model`` holds.

    1 for a model with integer variables; otherwise
    ``ScipyBackend.objectives_per_stack`` applied to
    :attr:`Model.num_nonzeros`, read without an export.
    :meth:`SolverSession.objectives_per_stack` and the process fan-out
    both size their stacks here, so the fan-out's chunks fall on the
    serial path's stack boundaries.
    """
    from repro.milp.scipy_backend import ScipyBackend

    if model.num_binary > 0:
        return 1
    return int(ScipyBackend.objectives_per_stack(model.num_nonzeros))


def open_session(model: Model) -> SolverSession:
    """Open a HiGHS :class:`SolverSession` on ``model``."""
    from repro.milp.scipy_backend import ScipyBackend

    return ScipyBackend().open_session(model)
