"""Solve results and status codes of the MILP layer."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class SolveStatus(enum.Enum):
    """Outcome of a solve call, harmonized across HiGHS's LP and MILP codes."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIME_LIMIT = "time_limit"
    ITERATION_LIMIT = "iteration_limit"
    ERROR = "error"


@dataclass
class SolveResult:
    """Solution returned by the solver.

    Attributes:
        status: Harmonized solver status.
        objective: Objective value in the *user's* sense (max problems
            report the maximum, not the negated minimum).
        values: Array of variable values in column order (empty when no
            incumbent exists).
        solve_time: Wall-clock seconds spent inside the solver.
        nodes: Branch-and-bound nodes explored (0 for pure LPs).
        message: Solver diagnostic text.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    solve_time: float = 0.0
    nodes: int = 0
    message: str = ""
    # Sound objective bound: for MILPs solved to a gap, the incumbent
    # `objective` may under-shoot the true optimum; `bound` is always on
    # the safe side (>= true max for maximization, <= true min for
    # minimization).  Equals `objective` for LPs and gap-free solves.
    bound: float = float("nan")

    @property
    def is_optimal(self) -> bool:
        """True when the solver proved optimality."""
        return self.status is SolveStatus.OPTIMAL

    def __getitem__(self, var: object) -> float:
        """Value of a :class:`~repro.milp.expr.Var` or expression."""
        from repro.milp.expr import LinExpr, Var

        if self.values.size == 0:
            raise ValueError(f"no solution available (status={self.status.value})")
        if isinstance(var, Var):
            return float(self.values[var.index])
        if isinstance(var, LinExpr):
            total = var.constant
            for idx, coef in var.coeffs.items():
                total += coef * self.values[idx]
            return float(total)
        raise TypeError(f"cannot index solution with {var!r}")

    def sound_bound(self) -> float | None:
        """Sound objective bound of this solve, or ``None`` when unusable.

        "Sound" means on the safe side of the true optimum in the user's
        sense: an over-estimate for maximization, an under-estimate for
        minimization.  Preference order:

        1. the dual ``bound`` — valid even for gap/time/node-limited
           MILPs (the solver proved no solution can beat it);
        2. the incumbent ``objective``, but only for a *proven-optimal*
           solve — the best solution found before a time limit is NOT a
           sound bound on the extremal side and is never returned here.

        Certification code must use this (never a raw time-limited
        ``objective``) whenever a solve may have hit a resource limit.
        """
        if math.isfinite(self.bound):
            return float(self.bound)
        if self.is_optimal and math.isfinite(self.objective):
            return float(self.objective)
        return None

    def require_optimal(self) -> "SolveResult":
        """Return self, raising if the solve did not reach optimality."""
        if not self.is_optimal:
            raise RuntimeError(
                f"solve failed: status={self.status.value} ({self.message})"
            )
        return self


def finalize_user_sense(
    result: SolveResult, sense: str, constant: float
) -> SolveResult:
    """Translate a raw minimization-sense result into the user's sense.

    The solver internally minimizes; this single transform guarantees
    identical result semantics on every solve path (the contract stated on
    :class:`SolveResult`): whenever a finite incumbent objective exists —
    proven optimal *or* the best solution found before a time/node limit
    — it is reported in the user's sense with the objective constant
    re-applied.  The dual ``bound`` is transformed whenever finite, so
    time-limited max-sense solves still carry a sound upper bound.

    Args:
        result: Raw solver result, objective/bound in minimization sense.
        sense: The user's objective sense, ``"min"`` or ``"max"``.
        constant: The affine objective's constant term.

    Returns:
        ``result``, mutated in place.
    """
    if sense == "max":
        result.objective = -result.objective  # nan-safe: -nan is nan
        result.bound = -result.bound
    if math.isfinite(result.objective):
        result.objective += constant
    if math.isfinite(result.bound):
        result.bound += constant
    return result
