"""Array-native block API: add_vars_array / add_linear_rows / export."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from exact_oracle import assert_agrees, solve_model

from repro.milp import Model, Sense


def triplet_model():
    """x in [0,1]^3, y free; y0 = x0 + 2 x1, y1 = -x2; y0 <= 2.5, y1 >= -2.5."""
    m = Model("blk")
    xs = m.add_vars_array(3, lb=0.0, ub=np.array([1.0, 2.0, 3.0]), prefix="x")
    ys = m.add_vars_array(2, lb=-math.inf, ub=math.inf, prefix="y")
    m.add_linear_rows(
        (
            np.array([1.0, -1.0, -2.0, 1.0, 1.0]),
            (np.array([0, 0, 0, 1, 1]), np.array([3, 0, 1, 4, 2])),
        ),
        Sense.EQ,
        np.zeros(2),
    )
    dense = np.zeros((2, 5))
    dense[0, 3] = 1.0
    dense[1, 4] = 1.0
    m.add_linear_rows(dense, ["<=", ">="], np.array([2.5, -2.5]))
    return m, xs, ys


def equivalent_scalar_model():
    """The same model built one Constraint at a time."""
    m = Model("scalar")
    xs = m.add_vars_array(3, lb=0.0, ub=np.array([1.0, 2.0, 3.0]), prefix="x")
    ys = m.add_vars_array(2, lb=-math.inf, ub=math.inf, prefix="y")
    m.add_constr(ys[0] == xs[0] + 2.0 * xs[1])
    m.add_constr(ys[1] == -xs[2])
    m.add_constr(ys[0] <= 2.5)
    m.add_constr(ys[1] >= -2.5)
    return m, xs, ys


class TestAddVarsArray:
    def test_array_bounds_and_names(self):
        m = Model()
        vs = m.add_vars_array(3, lb=np.array([-1.0, 0.0, 1.0]), ub=2.0, prefix="q")
        assert [v.name for v in vs] == ["q[0]", "q[1]", "q[2]"]
        assert [v.lb for v in vs] == [-1.0, 0.0, 1.0]
        assert all(v.ub == 2.0 for v in vs)

    def test_binary_clipping(self):
        m = Model()
        vs = m.add_vars_array(2, lb=-5.0, ub=5.0, vtype="binary")
        assert all((v.lb, v.ub) == (0.0, 1.0) for v in vs)
        assert m.num_binary == 2

    def test_name_collisions_resolved(self):
        m = Model()
        m.add_vars_array(2, prefix="v")
        more = m.add_vars_array(2, prefix="v")
        assert len({v.name for v in m.variables}) == 4
        assert more[0].index == 2

    def test_invalid_bounds_raise(self):
        m = Model()
        with pytest.raises(ValueError):
            m.add_vars_array(2, lb=1.0, ub=np.array([2.0, 0.0]))


class TestAddLinearRows:
    def test_counts(self):
        m, _, _ = triplet_model()
        assert m.num_constrs == 4
        assert len(m.blocks) == 2
        assert m.blocks[0].num_rows == 2

    def test_solves_match_scalar_model(self):
        mb, _, yb = triplet_model()
        ms, _, ys = equivalent_scalar_model()
        mb.set_objective(yb[0] - yb[1], sense="max")
        ms.set_objective(ys[0] - ys[1], sense="max")
        rb = mb.solve().require_optimal()
        rs = ms.solve().require_optimal()
        assert rb.objective == pytest.approx(rs.objective, abs=1e-8)
        assert rb.objective == pytest.approx(5.0, abs=1e-8)
        assert_agrees(rb, solve_model(mb), tol=1e-8)
        assert_agrees(rs, solve_model(ms), tol=1e-8)

    def test_standard_form_matches_scalar_model(self):
        mb, _, _ = triplet_model()
        ms, _, _ = equivalent_scalar_model()
        fb = mb.to_standard_form()
        fs = ms.to_standard_form()
        for got, want in zip(fb, fs):
            assert np.array_equal(np.asarray(got), np.asarray(want))

    def test_sparse_dense_equal(self):
        m, _, _ = triplet_model()
        _, au_d, bu_d, ae_d, be_d, bounds_d, integ_d = m.to_standard_form()
        _, au_s, bu_s, ae_s, be_s, bounds_s, integ_s = m.to_standard_form(sparse=True)
        assert np.array_equal(au_d, au_s.toarray())
        assert np.array_equal(ae_d, ae_s.toarray())
        assert np.array_equal(bu_d, bu_s)
        assert np.array_equal(be_d, be_s)
        assert bounds_d == bounds_s
        assert np.array_equal(integ_d, integ_s)

    def test_scipy_sparse_input(self):
        m = Model()
        xs = m.add_vars_array(2, ub=1.0)
        mat = sp.csr_matrix(np.array([[1.0, 1.0]]))
        m.add_linear_rows(mat, Sense.LE, 1.5)
        m.set_objective(xs[0] + xs[1], sense="max")
        assert m.solve().require_optimal().objective == pytest.approx(1.5)

    def test_ge_rows_normalized(self):
        m = Model()
        m.add_vars_array(2, ub=1.0)
        blk = m.add_linear_rows(np.array([[1.0, 2.0]]), Sense.GE, 0.5)
        # Stored negated as <=.
        assert not blk.is_eq[0]
        assert blk.rhs[0] == -0.5
        assert sorted(blk.data.tolist()) == [-2.0, -1.0]

    def test_all_zero_trailing_row_kept(self):
        # A k-row triplet block with an empty last row must keep it:
        # `0 <= -1` makes the model infeasible.
        m = Model()
        x = m.add_var(ub=1.0)
        m.add_linear_rows(
            (np.array([1.0]), (np.array([0]), np.array([0]))),
            Sense.LE,
            np.array([0.5, -1.0]),
        )
        assert m.num_constrs == 2
        m.set_objective(x, sense="max")
        assert not m.solve().is_optimal
        assert not m.check_feasible([0.0])

    def test_duplicate_entries_summed(self):
        m = Model()
        x = m.add_var(ub=4.0)
        m.add_linear_rows(
            (np.array([1.0, 1.0]), (np.array([0, 0]), np.array([0, 0]))),
            Sense.LE,
            np.array([3.0]),
        )
        m.set_objective(x, sense="max")
        assert m.solve().require_optimal().objective == pytest.approx(1.5)

    def test_check_feasible_covers_blocks(self):
        m, _, _ = triplet_model()
        assert m.check_feasible([0.0, 0.0, 2.0, 0.0, -2.0])
        assert not m.check_feasible([0.0, 0.0, 3.0, 0.0, -3.0])  # ub row
        assert not m.check_feasible([1.0, 1.0, 0.0, 4.0, 0.0])  # eq row

    def test_relaxed_clones_blocks(self):
        m, _, ys = triplet_model()
        m.set_objective(ys[0], sense="max")
        clone = m.relaxed()
        assert clone.num_constrs == m.num_constrs
        clone.blocks[0].rhs[0] = 99.0  # mutation must not leak back
        assert m.blocks[0].rhs[0] == 0.0

    def test_sparse_input_not_mutated_by_ge_normalization(self):
        # Regression: csr.tocoo() shares its data array; the GE
        # negation must not write through to the caller's matrix.
        m = Model()
        m.add_vars_array(2, ub=1.0)
        mat = sp.csr_matrix(np.array([[1.0, 2.0]]))
        m.add_linear_rows(mat, ">=", np.array([0.5]))
        assert np.array_equal(mat.toarray(), [[1.0, 2.0]])

    def test_block_does_not_alias_caller_arrays(self):
        m = Model()
        m.add_vars_array(2, ub=1.0)
        data = np.array([1.0, 1.0])
        blk = m.add_linear_rows(
            (data, (np.array([0, 0]), np.array([0, 1]))), Sense.LE, np.array([1.0])
        )
        data[0] = 100.0
        assert blk.data[0] == 1.0

    def test_validation_errors(self):
        m = Model()
        m.add_vars_array(2)
        with pytest.raises(ValueError, match="column index"):
            m.add_linear_rows(
                (np.array([1.0]), (np.array([0]), np.array([7]))),
                Sense.LE,
                np.array([1.0]),
            )
        with pytest.raises(ValueError, match="row count"):
            # Scalar senses+rhs with triplets would silently drop
            # trailing all-zero rows; require an explicit length.
            m.add_linear_rows(
                (np.array([1.0]), (np.array([0]), np.array([0]))), Sense.LE, 1.0
            )
        with pytest.raises(ValueError, match="finite"):
            m.add_linear_rows(np.array([[np.nan, 0.0]]), Sense.LE, 1.0)
        with pytest.raises(ValueError, match="finite"):
            m.add_linear_rows(np.array([[1.0, 0.0]]), Sense.LE, np.inf)
        with pytest.raises(ValueError, match="senses"):
            m.add_linear_rows(np.ones((2, 2)), [Sense.LE], np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="columns"):
            # Too-narrow matrix must not silently bind to variables 0..k.
            m.add_linear_rows(np.ones((1, 1)), Sense.LE, np.array([1.0]))
        with pytest.raises(ValueError, match="columns"):
            m.add_linear_rows(sp.csr_matrix(np.ones((1, 3))), Sense.LE, np.array([1.0]))

    def test_mip_with_blocks(self):
        m = Model()
        xs = m.add_vars_array(3, vtype="binary", prefix="b")
        weights = np.array([[2.0, 3.0, 4.0]])
        m.add_linear_rows(weights, Sense.LE, 5.0)
        m.set_objective(3 * xs[0] + 4 * xs[1] + 5 * xs[2], sense="max")
        r = m.solve().require_optimal()
        assert r.objective == pytest.approx(7.0, abs=1e-6)
        assert m.check_feasible(r.values)
        assert_agrees(r, solve_model(m))
