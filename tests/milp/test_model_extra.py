"""Model API edge cases: solve_many, relaxed clones, repr."""

import numpy as np
import pytest

from repro.milp import Model, SolveStatus


class TestSolveMany:
    def test_matches_individual_solves(self):
        m = Model()
        x = m.add_var(lb=0, ub=3)
        y = m.add_var(lb=0, ub=3)
        m.add_constr(x + y <= 4)
        objectives = [(x + y, "max"), (x + y, "min"), (x - y, "max")]
        batch = m.solve_many(objectives)
        for (expr, sense), res in zip(objectives, batch):
            m.set_objective(expr, sense=sense)
            single = m.solve()
            assert res.objective == pytest.approx(single.objective, abs=1e-8)

    def test_preserves_model_objective(self):
        m = Model()
        x = m.add_var(lb=0, ub=1)
        m.set_objective(2 * x, sense="max")
        m.solve_many([(x, "min")])
        r = m.solve()
        assert r.objective == pytest.approx(2.0)

    def test_constant_in_objective(self):
        m = Model()
        x = m.add_var(lb=0, ub=1)
        results = m.solve_many([(x + 5, "max")])
        assert results[0].objective == pytest.approx(6.0)

    def test_bad_sense_rejected(self):
        m = Model()
        x = m.add_var(lb=0, ub=1)
        with pytest.raises(ValueError):
            m.solve_many([(x, "sideways")])

    def test_var_accepted_directly(self):
        m = Model()
        x = m.add_var(lb=0, ub=2)
        results = m.solve_many([(x, "max")])
        assert results[0].objective == pytest.approx(2.0)

    def test_milp_objectives(self):
        m = Model()
        x = m.add_var(lb=0, ub=5, vtype="integer")
        y = m.add_var(lb=0, ub=5)
        m.add_constr(x + 2 * y <= 7.5)
        results = m.solve_many([(x + y, "max"), (y, "max")])
        assert results[0].objective == pytest.approx(6.25)
        assert results[1].objective == pytest.approx(3.75)


class TestModelMisc:
    def test_repr(self):
        m = Model("probe")
        m.add_var(vtype="binary")
        m.add_constr(m.variables[0] <= 1)
        text = repr(m)
        assert "probe" in text and "int=1" in text

    def test_set_objective_validation(self):
        m = Model()
        x = m.add_var()
        with pytest.raises(ValueError):
            m.set_objective(x, sense="upward")

    def test_relaxed_preserves_solution_space(self):
        m = Model()
        x = m.add_var(lb=0, ub=1, vtype="binary")
        m.set_objective(x, sense="max")
        relaxed = m.relaxed()
        assert relaxed.num_binary == 0
        assert relaxed.solve().objective == pytest.approx(1.0)

    def test_add_vars_prefix(self):
        m = Model()
        xs = m.add_vars(3, prefix="w")
        assert [v.name for v in xs] == ["w[0]", "w[1]", "w[2]"]

    def test_check_feasible_wrong_length(self):
        m = Model()
        m.add_var()
        with pytest.raises(ValueError):
            m.check_feasible([1.0, 2.0])

    def test_unbounded_detection(self):
        m = Model()
        x = m.add_var(lb=0, ub=np.inf)
        m.set_objective(x, sense="max")
        r = m.solve()
        assert r.status is SolveStatus.UNBOUNDED
