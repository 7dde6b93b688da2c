"""Incremental solver sessions: one export, many modified re-solves.

A :class:`SolverSession` snapshots a :class:`~repro.milp.model.Model`'s
standard form once and then answers a *sequence* of solves under
incremental modifications — tightened variable bounds, appended rows,
swapped objectives, fixed ReLU phases — without ever re-exporting.
Every backend exposing ``_solve_std`` (scipy/HiGHS, python B&B) shares
this one class: the cached matrices are mutated and handed back to the
solver cold.  It carries every multi-objective solve (Algorithm 1's LP
stacks, the exact and global certifiers) and the incremental edits a
neuron split needs.

Sessions are *snapshots*: changes made to the model after the session
was opened are not seen.  Appended rows are permanent for the session's
lifetime (there is no row deletion); phase fixes on neurons that carry a
binary indicator are released by re-fixing with ``phase=None``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro import _faults, _sanitize
from repro.milp.expr import LinExpr, Var
from repro.milp.model import _SENSE_EQ, _SENSE_GE, Model
from repro.milp.solution import SolveResult, SolveStatus, finalize_user_sense

__all__ = ["SolverSession", "open_session", "solve_objectives"]


def _parse_le_rows(
    coeffs: object,
    senses: object,
    rhs: object,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Normalize appended rows to pure ``<=`` COO form.

    Accepts the same shapes as :meth:`Model.add_linear_rows` (dense
    ``(k, n)`` array, scipy sparse matrix, or COO triplets).  ``>=``
    rows are negated; ``==`` rows become a ``<=`` / ``>=`` *pair*, since
    the session assembles appended rows into ``A_ub`` only.

    Returns:
        ``(data, row, col, rhs)`` with ``row`` local to the result.
    """
    if isinstance(coeffs, tuple):
        data, (row, col) = coeffs
        data = np.array(data, dtype=float, copy=True)
        row = np.array(row, dtype=np.int64, copy=True)
        col = np.array(col, dtype=np.int64, copy=True)
        num_rows = Model._block_row_count(senses, rhs, row)
    elif hasattr(coeffs, "tocoo"):
        coo = coeffs.tocoo()
        data = np.array(coo.data, dtype=float, copy=True)
        row = np.array(coo.row, dtype=np.int64, copy=True)
        col = np.array(coo.col, dtype=np.int64, copy=True)
        num_rows = int(coeffs.shape[0])
    else:
        dense = np.asarray(coeffs, dtype=float)
        if dense.ndim != 2:
            raise ValueError("dense coefficient block must be 2-D")
        r, c = np.nonzero(dense)
        data = dense[r, c].astype(float)
        row = r.astype(np.int64)
        col = c.astype(np.int64)
        num_rows = int(dense.shape[0])
    if row.size and (col.min() < 0 or col.max() >= n):
        raise ValueError("appended row column index exceeds num_vars")
    if row.size and (row.min() < 0 or row.max() >= num_rows):
        raise ValueError("appended row index out of range")
    if not np.isfinite(data).all():
        raise ValueError("appended coefficients must be finite")
    sense_codes = Model._coerce_senses(senses, num_rows)
    rhs_arr = np.array(np.broadcast_to(np.asarray(rhs, dtype=float), (num_rows,)))
    if not np.isfinite(rhs_arr).all():
        raise ValueError("appended right-hand sides must be finite")

    ge = sense_codes == _SENSE_GE
    if ge.any():
        flip = ge[row]
        data[flip] = -data[flip]
        rhs_arr = rhs_arr.copy()
        rhs_arr[ge] = -rhs_arr[ge]
    eq = sense_codes == _SENSE_EQ
    if not eq.any():
        return data, row, col, rhs_arr
    # Duplicate each == row with flipped sign: x == b  <=>  x <= b, -x <= -b.
    dup_sel = eq[row]
    new_index = np.cumsum(eq) - 1 + num_rows  # extra row per eq row
    out_data = np.concatenate([data, -data[dup_sel]])
    out_row = np.concatenate([row, new_index[row[dup_sel]]])
    out_col = np.concatenate([col, col[dup_sel]])
    out_rhs = np.concatenate([rhs_arr, -rhs_arr[eq]])
    return out_data, out_row, out_col, out_rhs


class SolverSession:
    """Incremental modify + re-solve over one cached standard form.

    Create via :func:`open_session`, a backend's ``open_session`` method
    or :meth:`Model.open_session`.  The session captures the model's
    export once; afterwards :meth:`set_var_bounds`, :meth:`append_rows`,
    :meth:`set_objective` and :meth:`fix_relu_phase` mutate the cached
    form and :meth:`solve` re-solves it without re-export.

    Args:
        backend: A backend instance exposing ``_solve_std``.
        model: The model to snapshot (not referenced after ``__init__``
            except for objective-vector assembly).
        sparse: Export/cached-matrix representation.
        relu_info: ``{(layer, neuron): (y_index, x_index, z_index|None)}``
            metadata enabling :meth:`fix_relu_phase` (see
            :attr:`repro.encoding.single.SingleEncoding.relu_vars`).
    """

    def __init__(
        self,
        backend: object,
        model: Model,
        sparse: bool = True,
        relu_info: object = None,
    ) -> None:
        (
            _c,
            self._a_ub,
            self._b_ub,
            self._a_eq,
            self._b_eq,
            bounds,
            self._integrality,
        ) = model.to_standard_form(sparse=sparse)
        self._backend = backend
        self._model = model
        self._sparse = sparse
        self._n = model.num_vars
        self._lo = np.array([b[0] for b in bounds], dtype=float)
        self._hi = np.array([b[1] for b in bounds], dtype=float)
        self._c = _c
        self._sense = model.objective_sense
        self._constant = model.objective.constant
        self._relu_info = dict(relu_info or {})
        self._relu_fixed: dict[tuple[int, int], str] = {}
        self._extra: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._num_extra = 0
        self._cache = None  # assembled (a_ub_all, b_ub_all)
        self._closed = False
        self._stack_rng: np.random.Generator | None = None  # sanitizer sampling

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Release the session's cached matrices; idempotent.

        A closed session refuses further modification and solving —
        reuse after close is a bug that must fail loudly, not solve a
        stale snapshot.
        """
        if self._closed:
            return
        self._closed = True
        self._cache = None
        self._extra.clear()

    def __enter__(self) -> "SolverSession":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("solver session is closed")

    # -- inspection ------------------------------------------------------

    @property
    def num_vars(self) -> int:
        """Variable count of the snapshot (sessions never add columns)."""
        return self._n

    @property
    def num_appended_rows(self) -> int:
        """Inequality rows appended since the session was opened."""
        return self._num_extra

    # -- incremental modification ---------------------------------------

    def _indices(self, variables: "Iterable[Var | int]") -> np.ndarray:
        idx = np.asarray(
            [v.index if isinstance(v, Var) else int(v) for v in variables],
            dtype=int,
        )
        if idx.size and (idx.min() < 0 or idx.max() >= self._n):
            raise ValueError("variable index out of range for this session")
        return idx

    def set_var_bounds(
        self,
        variables: "Iterable[Var | int]",
        lb: "float | np.ndarray",
        ub: "float | np.ndarray",
    ) -> None:
        """Replace the bounds of ``variables`` (``Var`` handles or ints).

        ``lb``/``ub`` broadcast.  ``lb > ub`` is allowed and makes the
        next :meth:`solve` report infeasibility (the neuron-split /
        branching convention).
        """
        self._require_open()
        idx = self._indices(variables)
        self._lo[idx] = np.broadcast_to(np.asarray(lb, dtype=float), idx.shape)
        self._hi[idx] = np.broadcast_to(np.asarray(ub, dtype=float), idx.shape)

    def append_rows(self, coeffs: object, senses: object, rhs: object) -> int:
        """Append linear rows to the cached form (no re-export).

        Accepts :meth:`Model.add_linear_rows` shapes; ``==`` rows are
        stored as a ``<=`` pair.  Appended rows are permanent for the
        session's lifetime.

        Returns:
            The number of (normalized, ``<=``) rows actually appended.
        """
        self._require_open()
        data, row, col, rhs_arr = _parse_le_rows(coeffs, senses, rhs, self._n)
        self._extra.append((data, row, col, rhs_arr))
        self._num_extra += rhs_arr.shape[0]
        self._cache = None
        return int(rhs_arr.shape[0])

    def set_objective(self, expr: LinExpr | Var, sense: str = "min") -> None:
        """Swap the objective (same semantics as :meth:`Model.solve_many`)."""
        self._require_open()
        c, expr = self._model.objective_vector(expr, sense)
        self._c = c
        self._sense = sense
        self._constant = expr.constant

    def fix_relu_phase(self, layer: int, neuron: int, phase: str | None) -> None:
        """Fix (or release) the phase of one encoded ReLU neuron.

        The building block of the neuron-splitting tier: branching on an
        unstable neuron solves the subproblem with the neuron pinned
        *active* (``x = y >= 0``) and pinned *inactive* (``x = 0``,
        ``y <= 0``); the true extremum is the best of the two.

        For neurons encoded with a big-M binary indicator the fix is the
        indicator's bounds (``z = 1`` active / ``z = 0`` inactive) —
        fully reversible with ``phase=None``.  For neurons without an
        indicator (stable or triangle-relaxed) the fix appends sign rows
        (active: ``-y <= 0`` and ``x - y <= 0``; inactive: ``y <= 0``
        and ``x <= 0``), which also *tightens* a relaxed neuron to the
        exact branch; appended rows cannot be retracted, so such fixes
        are one-way.

        Args:
            layer: Layer index of the neuron (as in the encoder's
                ``relu_vars`` keys).
            neuron: Neuron index within the layer.
            phase: ``"active"``, ``"inactive"``, or ``None`` to release
                an indicator-based fix.
        """
        key = (layer, neuron)
        try:
            y_idx, x_idx, z_idx = self._relu_info[key]
        except KeyError:
            raise ValueError(
                f"no ReLU metadata for neuron {key}; open the session with "
                "relu_info (e.g. SingleEncoding.relu_vars)"
            ) from None
        if phase is None:
            if self._relu_fixed.get(key) is None:
                return
            if z_idx is None:
                raise ValueError(
                    f"phase fix on neuron {key} used appended rows (no "
                    "binary indicator) and cannot be released"
                )
            self.set_var_bounds([z_idx], 0.0, 1.0)
            del self._relu_fixed[key]
            return
        if phase not in ("active", "inactive"):
            raise ValueError(f"unknown ReLU phase {phase!r}")
        previous = self._relu_fixed.get(key)
        if previous == phase:
            return
        if z_idx is not None:
            value = 1.0 if phase == "active" else 0.0
            self.set_var_bounds([z_idx], value, value)
        else:
            if previous is not None:
                raise ValueError(
                    f"neuron {key} is row-fixed to {previous!r}; row-based "
                    "fixes cannot be flipped"
                )
            rows = np.zeros((2, self._n))
            if phase == "active":
                rows[0, y_idx] = -1.0  # y >= 0
                rows[1, x_idx] = 1.0  # x <= y
                rows[1, y_idx] = -1.0
            else:
                rows[0, y_idx] = 1.0  # y <= 0
                rows[1, x_idx] = 1.0  # x <= 0
            self.append_rows(rows, "<=", np.zeros(2))
        self._relu_fixed[key] = phase

    # -- solving ---------------------------------------------------------

    def _assembled(self) -> tuple[object, np.ndarray]:
        """Base + appended ub rows as one matrix/vector pair (cached)."""
        if self._cache is not None:
            return self._cache
        if not self._extra:
            self._cache = (self._a_ub, self._b_ub)
            return self._cache
        datas, rows, cols, rhss = [], [], [], []
        offset = 0
        for data, row, col, rhs in self._extra:
            datas.append(data)
            rows.append(row + offset)
            cols.append(col)
            rhss.append(rhs)
            offset += rhs.shape[0]
        b_ub = np.concatenate([self._b_ub, *rhss])
        if self._sparse:
            import scipy.sparse as sp

            extra = sp.coo_matrix(
                (np.concatenate(datas), (np.concatenate(rows), np.concatenate(cols))),
                shape=(offset, self._n),
            ).tocsr()
            a_ub = sp.vstack([self._a_ub, extra], format="csr")
        else:
            extra = np.zeros((offset, self._n))
            np.add.at(
                extra,
                (np.concatenate(rows), np.concatenate(cols)),
                np.concatenate(datas),
            )
            a_ub = np.vstack([self._a_ub, extra])
        self._cache = (a_ub, b_ub)
        return self._cache

    def _infeasible(self, sense: str, constant: float) -> SolveResult:
        result = SolveResult(
            status=SolveStatus.INFEASIBLE,
            backend=getattr(self._backend, "name", ""),
            message="conflicting session variable bounds",
        )
        return finalize_user_sense(result, sense, constant)

    def solve(
        self, time_limit: float | None = None, mip_gap: float | None = None
    ) -> SolveResult:
        """Solve the current state of the session.

        Equivalent (same statuses, same optima) to exporting a fresh
        model carrying all accumulated modifications — the property the
        session test-suite asserts.
        """
        self._require_open()
        if _faults.ENABLED:
            _faults.fault_point("session.solve")
        if (self._lo > self._hi).any():
            return self._infeasible(self._sense, self._constant)
        a_ub, b_ub = self._assembled()
        result = self._backend._solve_std(
            self._c, a_ub, b_ub, self._a_eq, self._b_eq,
            list(zip(self._lo, self._hi)), self._integrality,
            time_limit, mip_gap,
        )
        return finalize_user_sense(result, self._sense, self._constant)

    def objectives_per_stack(self) -> int:
        """Objectives :meth:`solve_objectives` hands the backend per call.

        1 unless the session is a pure LP on a backend that stacks LPs
        (``objectives_per_stack``/``solve_lp_stack``, as scipy/HiGHS
        does); then as many copies of the current system, appended rows
        included, as the backend's nonzero budget allows.
        """
        self._require_open()
        per_stack = getattr(self._backend, "objectives_per_stack", None)
        if per_stack is None or self._integrality.any():
            return 1
        a_ub, _ = self._assembled()
        return int(per_stack(a_ub, self._a_eq))

    def solve_objectives(
        self,
        objectives: 'Sequence[tuple["LinExpr | Var", str]]',
        time_limit: float | None = None,
    ) -> list[SolveResult]:
        """Solve the current state under several objectives, in order.

        The objectives go to the backend in consecutive stacks of
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
        """Solve ``group`` in one backend call (see :meth:`solve_objectives`).

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
        if (self._lo > self._hi).any():
            return [self._infeasible(s, k) for s, k in zip(senses, constants)]
        a_ub, b_ub = self._assembled()
        stacked = self._backend.solve_lp_stack(
            [c for c, _ in vectors], a_ub, b_ub, self._a_eq, self._b_eq,
            self._lo, self._hi, time_limit,
        )
        if stacked is None:
            return None
        results = [
            finalize_user_sense(result, s, k)
            for result, s, k in zip(stacked, senses, constants)
        ]
        if _sanitize.ENABLED:
            self._check_stack(group, results, a_ub, b_ub, time_limit)
        return results

    def _check_stack(
        self,
        group: 'Sequence[tuple["LinExpr | Var", str]]',
        results: list[SolveResult],
        a_ub: object,
        b_ub: np.ndarray,
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
                    result.values, a_ub, b_ub, self._a_eq, self._b_eq,
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


def open_session(
    model: Model,
    backend: "str | object" = "scipy",
    relu_info: object = None,
) -> SolverSession:
    """Open a :class:`SolverSession` on ``model`` with a named backend.

    Args:
        model: The model to snapshot.
        backend: Registry name (``"scipy"``, ``"python:simplex"``, ...)
            or a backend instance.
        relu_info: Optional ReLU metadata enabling
            :meth:`SolverSession.fix_relu_phase`.

    Raises:
        TypeError: The backend has no session support (no
            ``open_session`` method).
    """
    from repro.milp.backend import get_backend

    solver = get_backend(backend)
    opener = getattr(solver, "open_session", None)
    if opener is None:
        raise TypeError(
            f"backend {getattr(solver, 'name', solver)!r} does not support "
            "solver sessions (no open_session method)"
        )
    return opener(model, relu_info=relu_info)


def solve_objectives(
    model: Model,
    objectives: 'Sequence[tuple["LinExpr | Var", str]]',
    backend: "str | object" = "scipy",
    time_limit: float | None = None,
) -> list[SolveResult]:
    """Solve ``model`` under several objectives through one session.

    Session-based twin of :meth:`Model.solve_many`: one export, one
    solve per objective.  Used by the certification drivers so the
    multi-objective hot path and the incremental path cannot drift.
    Backends without session support fall back to
    :meth:`Model.solve_many` (same results, repeated exports).
    """
    try:
        session = open_session(model, backend=backend)
    except TypeError:
        return model.solve_many(objectives, backend=backend, time_limit=time_limit)
    try:
        return session.solve_objectives(objectives, time_limit=time_limit)
    finally:
        session.close()
