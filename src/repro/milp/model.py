"""The :class:`Model` container: variables, constraints, objective, solve."""

from __future__ import annotations

import enum
import itertools
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro import _sanitize
from repro.milp.expr import LinExpr, Number, Var, VType
from repro.milp.solution import SolveResult, SolveStatus

_model_counter = itertools.count()


class Sense(enum.Enum):
    """Constraint sense."""

    LE = "<="
    GE = ">="
    EQ = "=="


#: Compact per-row sense codes used inside :class:`ConstraintBlock`.
_SENSE_LE, _SENSE_GE, _SENSE_EQ = 0, 1, 2


class Constraint:
    """A linear constraint ``expr (<=|>=|==) 0`` in normalized form.

    Stored internally as ``lhs_expr sense rhs_const`` with the constant
    moved to the right-hand side, i.e. ``sum c_i x_i  sense  rhs``.
    """

    __slots__ = ("expr", "sense", "rhs", "name")

    def __init__(self, expr: LinExpr, sense: Sense, rhs: float, name: str = "") -> None:
        self.expr = expr
        self.sense = sense
        self.rhs = float(rhs)
        self.name = name

    @classmethod
    def _from_sides(cls, lhs: LinExpr, rhs: LinExpr, sense: Sense) -> "Constraint":
        diff = lhs - rhs
        const = diff.constant
        diff.constant = 0.0
        return cls(diff, sense, -const)

    def violation(self, assignment: "Mapping[int, float]") -> float:
        """Amount by which the constraint is violated (0 when satisfied)."""
        lhs = self.expr.value(assignment)
        if self.sense is Sense.LE:
            return max(0.0, lhs - self.rhs)
        if self.sense is Sense.GE:
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)

    def __repr__(self) -> str:
        label = f"[{self.name}] " if self.name else ""
        return f"{label}{self.expr!r} {self.sense.value} {self.rhs:g}"


_SENSE_CODES = {Sense.LE: _SENSE_LE, Sense.GE: _SENSE_GE, Sense.EQ: _SENSE_EQ}


class ConstraintBlock:
    """A batch of linear rows stored as COO triplets over variable indices.

    This is the array-native counterpart of a list of :class:`Constraint`
    objects: ``k`` rows are held as parallel numpy arrays instead of one
    coefficient dict per row, so whole affine layers can be appended (and
    later exported to standard form) without any per-coefficient Python
    work.  Rows are normalized at construction: ``>=`` rows are negated
    into ``<=`` form, so only ``is_eq`` distinguishes row kinds.

    Attributes:
        data: Coefficient values, one per non-zero entry.
        row: Local row index (``0..num_rows-1``) per entry.
        col: Global variable index per entry.
        is_eq: Per-row flag; True for ``==`` rows, False for ``<=`` rows.
        rhs: Per-row right-hand side (already negated for former ``>=``).
        name: Optional block label for debugging.
    """

    __slots__ = ("data", "row", "col", "is_eq", "rhs", "name")

    def __init__(
        self,
        data: np.ndarray,
        row: np.ndarray,
        col: np.ndarray,
        is_eq: np.ndarray,
        rhs: np.ndarray,
        name: str = "",
    ) -> None:
        # Copy on ingest (RPR002): the block owns its arrays outright,
        # so neither a caller mutating its triplets afterwards nor the
        # sense normalization in add_linear_rows (which negates block-
        # owned entries in place) can alias foreign memory — the same
        # hazard class as the PR-1 ``Box.__post_init__`` bug.
        self.data = np.array(data, dtype=float, copy=True)
        self.row = np.array(row, dtype=np.int64, copy=True)
        self.col = np.array(col, dtype=np.int64, copy=True)
        self.is_eq = np.array(is_eq, dtype=bool, copy=True)
        self.rhs = np.array(rhs, dtype=float, copy=True)
        self.name = name
        if not (self.data.shape == self.row.shape == self.col.shape):
            raise ValueError("COO triplet arrays must have matching lengths")
        if self.is_eq.shape != self.rhs.shape:
            raise ValueError("is_eq and rhs must have one entry per row")

    @property
    def num_rows(self) -> int:
        """Number of rows in the block."""
        return int(self.rhs.shape[0])

    @property
    def num_entries(self) -> int:
        """Number of stored coefficients."""
        return int(self.data.shape[0])

    def copy(self) -> "ConstraintBlock":
        """Independent copy (the constructor's copy-on-ingest duplicates)."""
        return ConstraintBlock(
            self.data, self.row, self.col, self.is_eq, self.rhs, self.name
        )

    def activities(self, values: np.ndarray) -> np.ndarray:
        """Row activities ``A @ values`` (duplicate entries summed)."""
        acc = np.zeros(self.num_rows)
        np.add.at(acc, self.row, self.data * values[self.col])
        return acc

    def __repr__(self) -> str:
        label = f"[{self.name}] " if self.name else ""
        return (
            f"{label}ConstraintBlock(rows={self.num_rows}, "
            f"nnz={self.num_entries}, eq={int(self.is_eq.sum())})"
        )


class Model:
    """A mixed-integer linear program under construction.

    The model owns its variables; expressions and constraints reference
    them by index.  Constraints come in two interchangeable forms:
    per-row :class:`Constraint` objects built with ``<=``/``>=``/``==``
    on expressions, and :class:`ConstraintBlock` batches appended
    array-natively via :meth:`add_linear_rows` (the encoders' fast
    path).  Solving delegates to HiGHS
    (:class:`~repro.milp.scipy_backend.ScipyBackend`).
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._id = next(_model_counter)
        self.variables: list[Var] = []
        self.constraints: list[Constraint] = []
        self._blocks: list[ConstraintBlock] = []
        self.objective: LinExpr = LinExpr.constant_expr(0.0)
        self.objective_sense: str = "min"
        self._names: set[str] = set()

    # -- variables -------------------------------------------------------

    def add_var(
        self,
        lb: float = 0.0,
        ub: float = math.inf,
        name: str | None = None,
        vtype: VType | str = VType.CONTINUOUS,
    ) -> Var:
        """Create and register a new decision variable.

        Args:
            lb: Lower bound; use ``-math.inf`` for a free variable.
            ub: Upper bound.
            name: Optional unique name; auto-generated when omitted.
            vtype: ``"continuous"``, ``"binary"`` or ``"integer"``.

        Returns:
            The new :class:`Var`.
        """
        vtype = VType.coerce(vtype)
        if vtype is VType.BINARY:
            lb = max(0.0, lb)
            ub = min(1.0, ub)
        index = len(self.variables)
        if name is None:
            name = f"v{index}"
        if name in self._names:
            name = f"{name}#{index}"
        self._names.add(name)
        var = Var(index, name, lb, ub, vtype, self._id)
        self.variables.append(var)
        return var

    def add_vars(
        self,
        count: int,
        lb: float = 0.0,
        ub: float = math.inf,
        prefix: str = "v",
        vtype: VType | str = VType.CONTINUOUS,
    ) -> list[Var]:
        """Create ``count`` variables sharing bounds and type."""
        return [
            self.add_var(lb=lb, ub=ub, name=f"{prefix}[{j}]", vtype=vtype)
            for j in range(count)
        ]

    def add_vars_array(
        self,
        count: int,
        lb: float | np.ndarray = 0.0,
        ub: float | np.ndarray = math.inf,
        prefix: str = "v",
        vtype: VType | str = VType.CONTINUOUS,
    ) -> list[Var]:
        """Create ``count`` variables in one call with per-element bounds.

        Unlike :meth:`add_vars`, the bounds may be arrays (one entry per
        variable), which is how the encoders append a whole layer of
        input/pre-activation variables at once.

        Args:
            count: Number of variables to create.
            lb: Scalar or length-``count`` array of lower bounds.
            ub: Scalar or length-``count`` array of upper bounds.
            prefix: Names become ``f"{prefix}[{j}]"``.
            vtype: Shared variable type.

        Returns:
            The new variables, in index order.
        """
        lbs = np.broadcast_to(np.asarray(lb, dtype=float), (count,))
        ubs = np.broadcast_to(np.asarray(ub, dtype=float), (count,))
        return [
            self.add_var(
                lb=float(lbs[j]), ub=float(ubs[j]),
                name=f"{prefix}[{j}]", vtype=vtype,
            )
            for j in range(count)
        ]

    @property
    def num_vars(self) -> int:
        """Number of variables in the model."""
        return len(self.variables)

    @property
    def num_binary(self) -> int:
        """Number of binary/integer variables."""
        return sum(1 for v in self.variables if v.vtype is not VType.CONTINUOUS)

    # -- constraints ------------------------------------------------------

    def add_constr(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built via expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constr expects a Constraint (use <=, >= or == on expressions)"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def add_constrs(self, constraints: Iterable[Constraint]) -> list[Constraint]:
        """Register several constraints at once."""
        return [self.add_constr(c) for c in constraints]

    def add_linear_rows(
        self,
        coeffs: object,
        senses: "Sense | str | Sequence[Sense | str] | np.ndarray",
        rhs: "float | Sequence[float] | np.ndarray",
        name: str = "",
    ) -> ConstraintBlock:
        """Append a whole block of linear rows in one array-native call.

        This is the vectorized counterpart of repeated :meth:`add_constr`
        calls: the rows are stored as COO triplets and flow into
        :meth:`to_standard_form` by concatenation, never materializing a
        per-row coefficient dict.  The network encoders use it to append
        one affine layer (``y - W x = b``) per call.

        Args:
            coeffs: One of
                * a dense ``(k, num_vars)`` array,
                * a scipy sparse matrix of that shape,
                * COO triplets ``(data, (row, col))`` with ``row`` local
                  to this block (``0..k-1``) and ``col`` global variable
                  indices.  Duplicate ``(row, col)`` entries are summed.
            senses: A single sense for every row or a length-``k``
                sequence; each entry a :class:`Sense` or one of
                ``"<="``, ``">="``, ``"=="``.
            rhs: Scalar or length-``k`` right-hand-side array.  For
                triplet input at least one of ``rhs``/``senses`` must be
                a length-``k`` sequence — the row count is taken from
                it, never inferred from the triplets (all-zero trailing
                rows would silently vanish).
            name: Optional block label.

        Returns:
            The registered :class:`ConstraintBlock` (rows normalized:
            ``>=`` rows are stored negated as ``<=``).
        """
        n = self.num_vars
        if isinstance(coeffs, tuple):
            data, (row, col) = coeffs
            # No copies here: ConstraintBlock.__init__ copies on ingest,
            # so the caller's triplet arrays are never aliased.
            data = np.asarray(data, dtype=float)
            row = np.asarray(row, dtype=np.int64)
            col = np.asarray(col, dtype=np.int64)
            num_rows = self._block_row_count(senses, rhs, row)
        elif hasattr(coeffs, "tocoo"):
            if int(coeffs.shape[1]) != n:
                raise ValueError(
                    f"coefficient block has {coeffs.shape[1]} columns, "
                    f"model has {n} variables"
                )
            coo = coeffs.tocoo()
            # tocoo() may share the caller's data array; the block's
            # copy-on-ingest constructor below makes that harmless.
            data = np.asarray(coo.data, dtype=float)
            row = np.asarray(coo.row, dtype=np.int64)
            col = np.asarray(coo.col, dtype=np.int64)
            num_rows = int(coeffs.shape[0])
        else:
            dense = np.asarray(coeffs, dtype=float)
            if dense.ndim != 2:
                raise ValueError("dense coefficient block must be 2-D")
            if dense.shape[1] != n:
                raise ValueError(
                    f"coefficient block has {dense.shape[1]} columns, "
                    f"model has {n} variables"
                )
            r, c = np.nonzero(dense)
            data = dense[r, c]
            row = r.astype(np.int64)
            col = c.astype(np.int64)
            num_rows = int(dense.shape[0])
        if data.shape != row.shape or data.shape != col.shape:
            raise ValueError("COO triplet arrays must have matching lengths")
        if row.size:
            if row.min() < 0 or row.max() >= num_rows:
                raise ValueError("block row index out of range")
            if col.min() < 0 or col.max() >= n:
                raise ValueError("block column index exceeds num_vars")
        if not np.isfinite(data).all():
            raise ValueError("block coefficients must be finite")

        sense_codes = self._coerce_senses(senses, num_rows)
        rhs_arr = np.array(
            np.broadcast_to(np.asarray(rhs, dtype=float), (num_rows,))
        )
        if not np.isfinite(rhs_arr).all():
            raise ValueError("block right-hand sides must be finite")

        block = ConstraintBlock(
            data, row, col, sense_codes == _SENSE_EQ, rhs_arr, name
        )
        # Normalize >= rows to <= form on the block's own (copied)
        # arrays — the caller's inputs are already out of reach.
        ge_rows = sense_codes == _SENSE_GE
        if ge_rows.any():
            flip = ge_rows[block.row]
            block.data[flip] = -block.data[flip]
            block.rhs[ge_rows] = -block.rhs[ge_rows]
        self._blocks.append(block)
        return block

    @staticmethod
    def _block_row_count(senses: object, rhs: object, row: np.ndarray) -> int:
        """Row count of a triplet block, from the rhs/senses length.

        Inferring it from ``row.max() + 1`` would silently drop trailing
        rows whose coefficients are all zero (``0 <= rhs`` rows, which
        can encode infeasibility), so a length-bearing ``rhs`` or
        ``senses`` is required for triplet input.
        """
        for candidate in (rhs, senses):
            if isinstance(candidate, np.ndarray):
                return int(candidate.shape[0])
            if isinstance(candidate, (list, tuple)):
                return len(candidate)
        raise ValueError(
            "COO-triplet blocks need the row count: pass rhs (or senses) "
            "as a length-k sequence, not scalars"
        )

    @staticmethod
    def _coerce_senses(
        senses: "Sense | str | Sequence[Sense | str] | np.ndarray",
        num_rows: int,
    ) -> np.ndarray:
        """Normalize senses to an int code array (0 LE, 1 GE, 2 EQ)."""

        def code(s: "Sense | str") -> int:
            if not isinstance(s, Sense):
                s = Sense(str(s))
            return _SENSE_CODES[s]

        if isinstance(senses, (Sense, str)):
            return np.full(num_rows, code(senses), dtype=np.int8)
        arr = np.fromiter((code(s) for s in senses), dtype=np.int8)
        if arr.shape[0] != num_rows:
            raise ValueError(
                f"got {arr.shape[0]} senses for {num_rows} block rows"
            )
        return arr

    @property
    def num_constrs(self) -> int:
        """Number of linear constraints (per-row plus block rows)."""
        return len(self.constraints) + sum(b.num_rows for b in self._blocks)

    @property
    def num_nonzeros(self) -> int:
        """Stored entries of the sparse export's ``A_ub`` and ``A_eq`` together.

        Counted without exporting: one per coefficient of a per-row
        constraint, one per distinct ``(row, column)`` of a block (the
        export sums duplicate block entries into one).
        """
        n = self.num_vars
        return sum(len(c.expr.coeffs) for c in self.constraints) + sum(
            int(np.unique(b.row * n + b.col).size) for b in self._blocks
        )

    @property
    def blocks(self) -> list[ConstraintBlock]:
        """Registered constraint blocks, in insertion order."""
        return self._blocks

    # -- objective --------------------------------------------------------

    def set_objective(self, expr: LinExpr | Var | Number, sense: str = "min") -> None:
        """Set the objective function and its direction.

        Args:
            expr: Affine objective.
            sense: ``"min"`` or ``"max"``.
        """
        if sense not in ("min", "max"):
            raise ValueError(f"objective sense must be 'min' or 'max', got {sense!r}")
        self.objective = LinExpr._as_expr(expr)
        self.objective_sense = sense

    # -- matrix form -------------------------------------------------------

    def objective_vector(
        self, expr: "LinExpr | Var", sense: str
    ) -> tuple[np.ndarray, LinExpr]:
        """Minimization-sense dense objective vector for ``expr``.

        Shared by the multi-objective session paths so objective
        assembly (Var coercion, max-sense negation, sense validation)
        cannot drift between them.

        Returns:
            ``(c, expr)`` where ``c`` is negated for ``sense == "max"``
            and ``expr`` is the coerced :class:`LinExpr` (its
            ``constant`` still has to be re-applied to results, which
            :func:`~repro.milp.solution.finalize_user_sense` does).
        """
        if sense not in ("min", "max"):
            raise ValueError(f"bad sense {sense!r}")
        expr = LinExpr._as_expr(expr)
        c = np.zeros(self.num_vars)
        for idx, coef in expr.coeffs.items():
            c[idx] = coef
        if sense == "max":
            c = -c
        return c, expr

    def to_standard_form(self, sparse: bool = False) -> tuple[
        np.ndarray,
        object,
        np.ndarray,
        object,
        np.ndarray,
        list[tuple[float, float]],
        np.ndarray,
    ]:
        """Export ``(c, A_ub, b_ub, A_eq, b_eq, bounds, integrality)``.

        The objective vector ``c`` is always stated for *minimization*;
        callers must negate the optimum when ``objective_sense == 'max'``
        (the solver wrapper does this).

        Row order: per-row :class:`Constraint` objects first (insertion
        order), then :class:`ConstraintBlock` rows (block insertion
        order).  Mathematically the order is irrelevant; it is fixed so
        repeated exports of one model are reproducible.

        Args:
            sparse: When True, ``A_ub``/``A_eq`` are assembled directly
                as ``scipy.sparse.csr_matrix`` from COO triplets — no
                dense ``(rows, n)`` intermediate is ever allocated.
                Blocks appended via :meth:`add_linear_rows` flow in by
                triplet concatenation without any per-row Python walk.
                Encoded networks have a few non-zeros per row, so this
                is the only form the solver reads.  The dense
                export is the reference the sparse export is tested
                against.
        """
        n = self.num_vars
        c = np.zeros(n)
        for idx, coef in self.objective.coeffs.items():
            c[idx] = coef
        if self.objective_sense == "max":
            c = -c

        ub_rows: list[tuple[dict[int, float], float]] = []
        eq_rows: list[tuple[dict[int, float], float]] = []
        for con in self.constraints:
            if con.sense is Sense.LE:
                ub_rows.append((con.expr.coeffs, con.rhs))
            elif con.sense is Sense.GE:
                neg = {i: -v for i, v in con.expr.coeffs.items()}
                ub_rows.append((neg, -con.rhs))
            else:
                eq_rows.append((con.expr.coeffs, con.rhs))

        # Per-block row offsets into the final ub/eq matrices.  Block
        # rows keep their relative order; ``rank`` maps a block-local
        # row to its position among that block's ub (or eq) rows.
        num_ub, num_eq = len(ub_rows), len(eq_rows)
        placements = []
        for blk in self._blocks:
            ub_rank = np.cumsum(~blk.is_eq) - 1
            eq_rank = np.cumsum(blk.is_eq) - 1
            placements.append((blk, num_ub, num_eq, ub_rank, eq_rank))
            num_ub += int((~blk.is_eq).sum())
            num_eq += int(blk.is_eq.sum())

        def block_parts(
            eq_side: bool,
        ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]]:
            """Triplets and rhs scatter for every block, one side."""
            parts: list[
                tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]
            ] = []
            for blk, ub_off, eq_off, ub_rank, eq_rank in placements:
                row_sel = blk.is_eq if eq_side else ~blk.is_eq
                if not row_sel.any():
                    continue
                offset = eq_off if eq_side else ub_off
                rank = eq_rank if eq_side else ub_rank
                entry_sel = row_sel[blk.row]
                parts.append(
                    (
                        blk.data[entry_sel],
                        offset + rank[blk.row[entry_sel]],
                        blk.col[entry_sel],
                        offset,
                        blk.rhs[row_sel],
                    )
                )
            return parts

        if sparse:
            import scipy.sparse as sp

            def build(
                rows: list[tuple[dict[int, float], float]],
                total: int,
                eq_side: bool,
            ) -> tuple[object, np.ndarray]:
                data: list[float] = []
                row_idx: list[int] = []
                col_idx: list[int] = []
                vec = np.zeros(total)
                for r, (coeffs, rhs) in enumerate(rows):
                    vec[r] = rhs
                    for idx, coef in coeffs.items():
                        row_idx.append(r)
                        col_idx.append(idx)
                        data.append(coef)
                datas = [np.asarray(data, dtype=float)]
                rows_i = [np.asarray(row_idx, dtype=np.int64)]
                cols_i = [np.asarray(col_idx, dtype=np.int64)]
                for bdata, brow, bcol, offset, brhs in block_parts(eq_side):
                    datas.append(bdata)
                    rows_i.append(brow)
                    cols_i.append(bcol)
                    vec[offset : offset + brhs.shape[0]] = brhs
                mat = sp.coo_matrix(
                    (
                        np.concatenate(datas),
                        (np.concatenate(rows_i), np.concatenate(cols_i)),
                    ),
                    shape=(total, n),
                ).tocsr()
                return mat, vec

        else:

            def build(
                rows: list[tuple[dict[int, float], float]],
                total: int,
                eq_side: bool,
            ) -> tuple[object, np.ndarray]:
                mat = np.zeros((total, n))
                vec = np.zeros(total)
                for r, (coeffs, rhs) in enumerate(rows):
                    for idx, coef in coeffs.items():
                        mat[r, idx] = coef
                    vec[r] = rhs
                for bdata, brow, bcol, offset, brhs in block_parts(eq_side):
                    np.add.at(mat, (brow, bcol), bdata)
                    vec[offset : offset + brhs.shape[0]] = brhs
                return mat, vec

        a_ub, b_ub = build(ub_rows, num_ub, eq_side=False)
        a_eq, b_eq = build(eq_rows, num_eq, eq_side=True)
        bounds = [(v.lb, v.ub) for v in self.variables]
        integrality = np.array(
            [0 if v.vtype is VType.CONTINUOUS else 1 for v in self.variables],
            dtype=int,
        )
        if _sanitize.ENABLED:
            # Variable *bounds* may be ±inf by design; every exported
            # coefficient and right-hand side must be finite.
            _sanitize.check_finite(
                "Model.to_standard_form",
                c=c,
                a_ub=a_ub.data if sparse else a_ub,
                b_ub=b_ub,
                a_eq=a_eq.data if sparse else a_eq,
                b_eq=b_eq,
            )
        return c, a_ub, b_ub, a_eq, b_eq, bounds, integrality

    # -- solving ------------------------------------------------------------

    def solve(
        self,
        time_limit: float | None = None,
        mip_gap: float | None = None,
    ) -> SolveResult:
        """Solve the model with HiGHS.

        Args:
            time_limit: Optional wall-clock limit in seconds.
            mip_gap: Optional relative MIP gap termination tolerance.

        Returns:
            A :class:`~repro.milp.solution.SolveResult`.
        """
        from repro.milp.scipy_backend import ScipyBackend

        return ScipyBackend().solve(self, time_limit=time_limit, mip_gap=mip_gap)

    def solve_many(
        self,
        objectives: Sequence[tuple[LinExpr | Var, str]],
        time_limit: float | None = None,
    ) -> list[SolveResult]:
        """Solve the same constraint system under several objectives.

        This is the one multi-objective path, the hot path of Algorithm
        1 (min/max objectives per neuron over one sub-network encoding).
        It exports the constraint matrices once into a
        :class:`~repro.milp.session.SolverSession`, which swaps only the
        cost vector and stacks pure-LP objectives into block-diagonal
        solves.  The model itself, objective included, is left
        unchanged.

        Args:
            objectives: Pairs ``(expression, "min"|"max")``.
            time_limit: Per-solve time limit.

        Returns:
            One :class:`SolveResult` per objective, in order.
        """
        from repro.milp.scipy_backend import ScipyBackend

        with ScipyBackend().open_session(self) as session:
            return session.solve_objectives(objectives, time_limit=time_limit)

    def relaxed(self) -> "Model":
        """Return a copy with all integrality requirements dropped."""
        clone = Model(f"{self.name}_relaxed")
        for var in self.variables:
            clone.add_var(lb=var.lb, ub=var.ub, name=var.name, vtype=VType.CONTINUOUS)
        clone.constraints = [
            Constraint(c.expr.copy(), c.sense, c.rhs, c.name) for c in self.constraints
        ]
        clone._blocks = [b.copy() for b in self._blocks]
        clone.objective = self.objective.copy()
        clone.objective_sense = self.objective_sense
        return clone

    # -- validation ----------------------------------------------------------

    def check_feasible(self, values: Sequence[float], tol: float = 1e-6) -> bool:
        """Check a full assignment against bounds and all constraints."""
        if len(values) != self.num_vars:
            raise ValueError("assignment length does not match variable count")
        assignment = {i: float(v) for i, v in enumerate(values)}
        for var in self.variables:
            val = assignment[var.index]
            if val < var.lb - tol or val > var.ub + tol:
                return False
            if var.vtype is not VType.CONTINUOUS and abs(val - round(val)) > tol:
                return False
        if not all(con.violation(assignment) <= tol for con in self.constraints):
            return False
        arr = np.asarray(values, dtype=float)
        for blk in self._blocks:
            act = blk.activities(arr)
            eq = blk.is_eq
            if eq.any() and np.abs(act[eq] - blk.rhs[eq]).max() > tol:
                return False
            le = ~eq
            if le.any() and (act[le] - blk.rhs[le]).max() > tol:
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_vars}, "
            f"int={self.num_binary}, constrs={self.num_constrs})"
        )
