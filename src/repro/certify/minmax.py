"""Min/max ranges of encoded handles: the step every certifier shares.

Exact global, Algorithm 1's ``LpRelaxY``, the BTNE baselines, local
exact/ND/LPR and the split leaves all minimize and maximize handles over
an encoding.  :func:`min_max_objectives` builds the objectives for
``Model.solve_many``; each caller turns the min and max results into
ranges under its own failure policy: :func:`sound_ranges` (Algorithm 1,
never raises), :func:`limited_ranges` (exact global and split leaves,
resource limits fall back to a bound) or :func:`optimal_ranges` (strict).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.bounds.interval import Box
from repro.milp.expr import LinExpr, Var, as_expr
from repro.milp.solution import SolveResult, SolveStatus

#: Statuses meaning "the solver was cut off by a resource limit": the
#: only non-optimal outcomes that soundly fall back to a bound.
LIMIT_STATUSES = (SolveStatus.TIME_LIMIT, SolveStatus.ITERATION_LIMIT)

Results = Sequence[SolveResult]


class RangeSolveError(RuntimeError):
    """A min/max solve ended neither optimal nor at a resource limit."""

    def __init__(self, what: str, output: int, result: SolveResult) -> None:
        super().__init__(
            f"{what} failed on output {output}: "
            f"status={result.status.value} ({result.message})"
        )
        self.what = what
        self.output = output
        self.result = result

    def __reduce__(self) -> tuple[type[RangeSolveError], tuple[str, int, SolveResult]]:
        # Rebuilds from its fields when a leaf worker ships it back.
        return (type(self), (self.what, self.output, self.result))


def min_max_objectives(handles: Sequence[Var | LinExpr]) -> list[tuple[LinExpr, str]]:
    """``[(h₀, "min"), (h₀, "max"), (h₁, "min"), ...]``."""
    return [(expr, sense) for expr in map(as_expr, handles) for sense in ("min", "max")]


def sound_ranges(lo_results: Results, hi_results: Results) -> tuple[np.ndarray, np.ndarray]:
    """Each solve's sound (dual) bound; ``∓inf`` where it has none."""
    lo = [-math.inf if (b := r.sound_bound()) is None else b for r in lo_results]
    hi = [math.inf if (b := r.sound_bound()) is None else b for r in hi_results]
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


def limited_ranges(
    lo_results: Results, hi_results: Results, interval: Box, what: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """Sound bounds ∩ the a-priori ``interval``, and the count of limit hits.

    A resource-limited solve contributes its dual bound (never its
    incumbent); any other non-optimal solve (infeasible encoding,
    solver error) raises :class:`RangeSolveError` naming the handle's
    position ``j`` in the result sequences.
    """
    limit_hits = 0
    for j, pair in enumerate(zip(lo_results, hi_results)):
        for r in pair:
            if not r.is_optimal and r.status not in LIMIT_STATUSES:
                raise RangeSolveError(what, j, r)
            limit_hits += not r.is_optimal
    lo, hi = sound_ranges(lo_results, hi_results)
    return np.maximum(lo, interval.lo), np.minimum(hi, interval.hi), limit_hits


def optimal_ranges(lo_results: Results, hi_results: Results) -> tuple[np.ndarray, np.ndarray]:
    """Optimal objectives as ``(lo, hi)``; raises on any non-optimal solve."""
    lo = [r.require_optimal().objective for r in lo_results]
    hi = [r.require_optimal().objective for r in hi_results]
    return np.array(lo, dtype=float), np.array(hi, dtype=float)
