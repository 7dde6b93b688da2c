"""Sparse standard-form export, checked against the dense reference."""

import numpy as np
import pytest
import scipy.sparse as sp
from exact_oracle import OPTIMAL, assert_agrees, solve_exact, solve_model

from repro.milp import Model


def mixed_model():
    m = Model("mixed")
    x = m.add_var(lb=-2, ub=4)
    y = m.add_var(lb=0, ub=3)
    z = m.add_var(vtype="binary")
    m.add_constr(x + 2 * y <= 6)
    m.add_constr(x - y >= -3)
    m.add_constr(y + z == 2)
    m.set_objective(x + y - z + 0.25, sense="max")
    return m


class TestSparseExport:
    def test_matches_dense(self):
        m = mixed_model()
        c_d, ub_d, bub_d, eq_d, beq_d, bounds_d, integ_d = m.to_standard_form()
        c_s, ub_s, bub_s, eq_s, beq_s, bounds_s, integ_s = m.to_standard_form(
            sparse=True
        )
        assert sp.issparse(ub_s) and sp.issparse(eq_s)
        assert ub_s.format == "csr" and eq_s.format == "csr"
        np.testing.assert_allclose(c_s, c_d)
        np.testing.assert_allclose(ub_s.toarray(), ub_d)
        np.testing.assert_allclose(eq_s.toarray(), eq_d)
        np.testing.assert_allclose(bub_s, bub_d)
        np.testing.assert_allclose(beq_s, beq_d)
        assert bounds_s == bounds_d
        np.testing.assert_array_equal(integ_s, integ_d)

    def test_empty_sections_have_shape(self):
        m = Model()
        m.add_var(lb=0, ub=1)
        _, a_ub, _, a_eq, _, _, _ = m.to_standard_form(sparse=True)
        assert a_ub.shape == (0, 1)
        assert a_eq.shape == (0, 1)

    def test_duplicate_indices_summed_consistently(self):
        """Expression arithmetic merges coefficients before export, so
        sparse and dense builds see identical per-cell values."""
        m = Model()
        x = m.add_var(lb=0, ub=1)
        y = m.add_var(lb=0, ub=1)
        m.add_constr(x + x + y - 0.5 * y <= 1)  # coeffs merge to 2x + 0.5y
        m.set_objective(x)
        _, ub_d, _, _, _, _, _ = m.to_standard_form()
        _, ub_s, _, _, _, _, _ = m.to_standard_form(sparse=True)
        np.testing.assert_allclose(ub_s.toarray(), ub_d)
        np.testing.assert_allclose(ub_s.toarray(), [[2.0, 0.5]])


class TestSparseSolvePaths:
    def test_scipy_solve_uses_sparse_and_matches(self):
        m = mixed_model()
        r = m.solve()  # sparse export is the default path
        assert r.is_optimal
        # Independent check: the exact optimum of the dense export.
        assert_agrees(r, solve_model(m), tol=1e-8)

    def test_solve_objectives_sparse_matches_dense_per_solve(self):
        m = mixed_model()
        x, y, z = m.variables
        objectives = [(x + y, "min"), (x + y, "max"), (x - z + 1.0, "max")]
        fast = m.solve_many(objectives)
        for (expr, sense), got in zip(objectives, fast):
            m.set_objective(expr, sense=sense)
            assert_agrees(got, solve_model(m), tol=1e-7)  # dense, exact


def equality_lp(c, a_eq, b_eq, bounds):
    """HiGHS and exact results of ``min c·x`` s.t. ``a_eq x = b_eq``, bounds."""
    m = Model()
    xs = m.add_vars_array(len(c), lb=[lo for lo, _ in bounds], ub=[hi for _, hi in bounds])
    m.add_linear_rows(a_eq, "==", b_eq)
    m.set_objective(sum(float(cj) * x for cj, x in zip(c, xs)))
    exact = solve_exact(c, np.zeros((0, len(c))), [], a_eq, b_eq, bounds)
    assert exact.status == OPTIMAL
    assert [sum(a * v for a, v in zip(row, exact.x)) for row in a_eq] == list(b_eq)
    return m.solve(), exact


class TestSimplexPhase1Pruning:
    """Redundant equality rows leave artificials basic at zero; the
    oracle's phase 1 must pivot them out (or drop the zero rows)
    without corrupting the phase-2 optimum, and HiGHS must agree."""

    def test_duplicated_equality_row(self):
        # x + y == 2 stated twice; min x with x,y in [0, 2] -> x = 0.
        c = np.array([1.0, 0.0])
        a_eq = np.array([[1.0, 1.0], [1.0, 1.0]])
        b_eq = np.array([2.0, 2.0])
        highs, exact = equality_lp(c, a_eq, b_eq, [(0, 2), (0, 2)])
        assert exact.objective == 0
        assert_agrees(highs, exact, tol=1e-9)

    def test_linearly_dependent_equality_rows(self):
        # Second row is 2x the first: same feasible set, rank 1.
        c = np.array([1.0, 2.0, 0.0])
        a_eq = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        b_eq = np.array([3.0, 6.0])
        highs, exact = equality_lp(c, a_eq, b_eq, [(0, 3), (0, 3), (0, 3)])
        # Optimal: push mass onto the free (zero-cost) third variable.
        assert exact.objective == 0
        assert_agrees(highs, exact, tol=1e-9)

    def test_zero_artificial_pivoted_out(self):
        # y + z == 2 and x + y + z == 2 force x = 0: phase 1 ends with an
        # artificial basic at zero in a row with structural entries left.
        a_eq = np.array([[0.0, -1.0, -1.0], [-2.0, -2.0, -2.0]])
        c = np.array([-1.0, 1.0, 0.0])
        highs, exact = equality_lp(c, a_eq, np.array([-2.0, -4.0]), [(0, 2)] * 3)
        assert exact.objective == 0
        assert_agrees(highs, exact, tol=1e-9)

    def test_redundant_rows_against_highs(self):
        rng = np.random.default_rng(3)
        # On a 1/8 grid every sum and product below is exact, so the
        # third row is redundant in the float data itself (rounded
        # floats made it inconsistent by ~1e-16: exactly infeasible).
        a = np.round(8 * rng.standard_normal((2, 3))) / 8
        a_eq = np.vstack([a, a[0] + a[1]])  # third row = sum of first two
        x_feas = np.round(8 * rng.random(3)) / 8
        b_eq = a_eq @ x_feas
        c = rng.standard_normal(3)
        highs, exact = equality_lp(c, a_eq, b_eq, [(-2.0, 2.0)] * 3)
        assert_agrees(highs, exact, tol=1e-7)
