"""Solver tests: HiGHS against known and exact optima, and edge cases."""

import math

import numpy as np
import pytest
from exact_oracle import assert_agrees, solve_model

from repro.milp import Model, SolveStatus


def knapsack_model():
    """0/1 knapsack with known optimum 13 (items 0, 1 and 3)."""
    m = Model("knapsack")
    values = [6, 4, 5, 3]
    weights = [3, 2, 4, 1]
    xs = [m.add_var(vtype="binary", name=f"item{i}") for i in range(4)]
    total_weight = sum(w * x for w, x in zip(weights, xs))
    m.add_constr(total_weight <= 7)
    m.set_objective(sum(v * x for v, x in zip(values, xs)), sense="max")
    return m, xs


class TestBackendsAgree:
    """HiGHS gives the known and the exact optimum."""

    def test_simple_lp(self):
        m = Model()
        x = m.add_var(lb=0, ub=4)
        y = m.add_var(lb=0, ub=4)
        m.add_constr(x + y <= 5)
        m.set_objective(3 * x + 2 * y, sense="max")
        r = m.solve()
        assert_agrees(r, solve_model(m))
        assert r.is_optimal
        assert r.objective == pytest.approx(14.0)

    def test_knapsack(self):
        m, xs = knapsack_model()
        r = m.solve()
        assert_agrees(r, solve_model(m))
        assert r.is_optimal
        assert r.objective == pytest.approx(13.0)
        chosen = {i for i, x in enumerate(xs) if r[x] > 0.5}
        assert chosen == {0, 1, 3}

    def test_infeasible(self):
        m = Model()
        x = m.add_var(lb=0, ub=1)
        m.add_constr(x >= 2)
        m.set_objective(x)
        r = m.solve()
        assert_agrees(r, solve_model(m))
        assert r.status is SolveStatus.INFEASIBLE

    def test_free_variables_equality(self):
        m = Model()
        x = m.add_var(lb=-math.inf, ub=math.inf)
        y = m.add_var(lb=-math.inf, ub=math.inf)
        m.add_constr(x + y == 3)
        m.add_constr(x - y <= 1)
        m.set_objective(x, sense="max")
        r = m.solve()
        assert_agrees(r, solve_model(m))
        assert r.is_optimal
        assert r.objective == pytest.approx(2.0)

    def test_objective_constant_included(self):
        m = Model()
        x = m.add_var(lb=0, ub=1)
        m.set_objective(x + 10, sense="max")
        r = m.solve()
        assert_agrees(r, solve_model(m))
        assert r.objective == pytest.approx(11.0)

    def test_minimization(self):
        m = Model()
        x = m.add_var(lb=-2, ub=5)
        m.set_objective(2 * x)
        r = m.solve()
        assert_agrees(r, solve_model(m))
        assert r.objective == pytest.approx(-4.0)

    def test_solution_is_feasible(self):
        m, _ = knapsack_model()
        r = m.solve()
        assert_agrees(r, solve_model(m))
        assert m.check_feasible(r.values)


class TestRandomAgreement:
    """Randomized LPs/MILPs: HiGHS against the exact optimum."""

    def _random_model(self, rng, integer: bool):
        n = rng.integers(2, 5)
        m = Model("rand")
        xs = []
        for j in range(n):
            vtype = "integer" if (integer and rng.random() < 0.5) else "continuous"
            xs.append(m.add_var(lb=-3.0, ub=3.0, vtype=vtype))
        for _ in range(rng.integers(1, 4)):
            coeffs = rng.standard_normal(n)
            expr = sum(c * x for c, x in zip(coeffs, xs))
            m.add_constr(expr <= float(rng.random() * 4))
        obj = sum(float(c) * x for c, x in zip(rng.standard_normal(n), xs))
        m.set_objective(obj, sense="max")
        return m

    @pytest.mark.parametrize("seed", range(8))
    def test_lp_agreement(self, seed):
        rng = np.random.default_rng(seed)
        m = self._random_model(rng, integer=False)
        assert_agrees(m.solve(), solve_model(m))

    @pytest.mark.parametrize("seed", range(8))
    def test_milp_agreement(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = self._random_model(rng, integer=True)
        assert_agrees(m.solve(), solve_model(m))


class TestModelUtilities:
    def test_relaxed_drops_integrality(self):
        m, _ = knapsack_model()
        relaxed = m.relaxed()
        assert relaxed.num_binary == 0
        assert relaxed.num_constrs == m.num_constrs
        r = relaxed.solve()
        # LP relaxation of a knapsack is at least as good as the MILP.
        assert r.objective >= 13.0 - 1e-9

    def test_standard_form_shapes(self):
        m, _ = knapsack_model()
        c, a_ub, b_ub, a_eq, b_eq, bounds, integrality = m.to_standard_form()
        assert c.shape == (4,)
        assert a_ub.shape == (1, 4)
        assert a_eq.shape == (0, 4)
        assert integrality.sum() == 4

    def test_check_feasible_rejects_violations(self):
        m = Model()
        x = m.add_var(lb=0, ub=1)
        m.add_constr(x <= 0.5)
        assert m.check_feasible([0.4])
        assert not m.check_feasible([0.9])
        assert not m.check_feasible([-0.1])

    def test_check_feasible_integrality(self):
        m = Model()
        m.add_var(vtype="binary")
        assert m.check_feasible([1.0])
        assert not m.check_feasible([0.5])

    def test_result_indexing_errors(self):
        m = Model()
        x = m.add_var(lb=0, ub=1)
        m.add_constr(x >= 2)
        m.set_objective(x)
        r = m.solve()
        with pytest.raises(ValueError):
            _ = r[x]

    def test_require_optimal_raises(self):
        m = Model()
        x = m.add_var(lb=0, ub=1)
        m.add_constr(x >= 2)
        m.set_objective(x)
        with pytest.raises(RuntimeError):
            m.solve().require_optimal()

    def test_unknown_backend(self):
        # HiGHS is the only solver: there is no solver name to pass.
        with pytest.raises(TypeError):
            Model().solve(backend="gurobi")  # type: ignore[call-arg]

    def test_expression_value_via_result(self):
        m = Model()
        x = m.add_var(lb=0, ub=2)
        m.set_objective(x, sense="max")
        r = m.solve()
        assert r[x + 1] == pytest.approx(3.0)

    def test_add_constr_type_error(self):
        m = Model()
        with pytest.raises(TypeError):
            m.add_constr(True)  # type: ignore[arg-type]


class TestBigMReluPattern:
    """The exact pattern the encoders use must solve correctly."""

    def test_relu_bigm_exact(self):
        # x = relu(y), y in [-2, 3]; maximize x - 0.5 y.
        m = Model()
        y = m.add_var(lb=-2, ub=3)
        x = m.add_var(lb=0, ub=3)
        z = m.add_var(vtype="binary")
        m.add_constr(x >= y)
        m.add_constr(x <= y - (-2) * (1 - z))
        m.add_constr(x <= 3 * z)
        m.set_objective(x - 0.5 * y, sense="max")
        r = m.solve()
        assert_agrees(r, solve_model(m))
        assert r.is_optimal
        # optimum at y=0+, x=0 gives 0; at y=3, x=3 gives 1.5; at y=-2 x=0 gives 1.
        assert r.objective == pytest.approx(1.5)
        # Solution must satisfy the true ReLU relation.
        assert r[x] == pytest.approx(max(r[y], 0.0), abs=1e-6)


class TestMutedStdout:
    """HiGHS's MILP ``printf`` never reaches the caller's stdout."""

    def test_only_writes_inside_the_block_are_muted(self, capfd):
        import os

        from repro.milp.scipy_backend import _muted_stdout

        os.write(1, b"before\n")
        with _muted_stdout():
            os.write(1, b"inside\n")
        os.write(1, b"after\n")
        assert capfd.readouterr().out == "before\nafter\n"
