"""Regression tests: result semantics under limits and objective senses.

Covers the solver-semantics bug class: a max-sense result must report
its objective in the *user's* sense (sign, objective constant) and
carry a sound dual bound, also when a time limit interrupts the solve.
"""

import math
import types

import numpy as np
import pytest
from exact_oracle import assert_agrees, solve_model

import repro.milp.scipy_backend as scipy_backend_mod
from repro.milp import Model, SolveResult, SolveStatus
from repro.milp.scipy_backend import ScipyBackend
from repro.milp.solution import finalize_user_sense


class TestLpTimeLimitStatus:
    """ScipyBackend._solve_lp status-1 mapping (satellite 2)."""

    @staticmethod
    def _patch_linprog(monkeypatch, status):
        def fake_linprog(*args, **kwargs):
            return types.SimpleNamespace(
                status=status, x=None, fun=None, message="limit reached"
            )

        monkeypatch.setattr(scipy_backend_mod.sopt, "linprog", fake_linprog)

    def test_status1_with_time_limit_is_time_limit(self, monkeypatch):
        self._patch_linprog(monkeypatch, status=1)
        zero = np.zeros((0, 2))
        r = ScipyBackend._solve_lp(
            np.zeros(2), zero, np.zeros(0), zero, np.zeros(0),
            [(0, 1), (0, 1)], time_limit=5.0,
        )
        assert r.status is SolveStatus.TIME_LIMIT

    def test_status1_without_time_limit_is_iteration_limit(self, monkeypatch):
        self._patch_linprog(monkeypatch, status=1)
        zero = np.zeros((0, 2))
        r = ScipyBackend._solve_lp(
            np.zeros(2), zero, np.zeros(0), zero, np.zeros(0),
            [(0, 1), (0, 1)], time_limit=None,
        )
        assert r.status is SolveStatus.ITERATION_LIMIT

    def test_interrupted_lp_primal_is_not_a_bound(self, monkeypatch):
        """An interrupted LP's primal objective must not masquerade as a
        sound dual bound (global_cert certifies any finite `bound`)."""

        def fake_linprog(*args, **kwargs):
            return types.SimpleNamespace(
                status=1, x=np.array([0.5]), fun=5.0, message="time limit"
            )

        monkeypatch.setattr(scipy_backend_mod.sopt, "linprog", fake_linprog)
        zero = np.zeros((0, 1))
        r = ScipyBackend._solve_lp(
            np.zeros(1), zero, np.zeros(0), zero, np.zeros(0), [(0, 1)],
            time_limit=1.0,
        )
        assert r.status is SolveStatus.TIME_LIMIT
        assert r.objective == pytest.approx(5.0)
        assert math.isnan(r.bound)

    def test_lp_and_milp_paths_agree_via_solve(self, monkeypatch):
        """A pure-LP model under a time limit reports TIME_LIMIT just
        like the MILP path would (global_cert keys off this status)."""
        self._patch_linprog(monkeypatch, status=1)
        m = Model()
        x = m.add_var(lb=0, ub=1)
        m.set_objective(x, sense="max")
        r = m.solve(time_limit=3.0)
        assert r.status is SolveStatus.TIME_LIMIT


class TestFinalizeUserSense:
    def test_max_negates_and_shifts(self):
        r = SolveResult(
            status=SolveStatus.TIME_LIMIT,
            objective=-13.0,
            values=np.ones(1),
            bound=-14.5,
        )
        finalize_user_sense(r, "max", 2.0)
        assert r.objective == pytest.approx(15.0)
        assert r.bound == pytest.approx(16.5)

    def test_nan_stays_nan(self):
        r = SolveResult(status=SolveStatus.INFEASIBLE)
        finalize_user_sense(r, "max", 2.0)
        assert math.isnan(r.objective) and math.isnan(r.bound)

    def test_unbounded_flips_sign(self):
        r = SolveResult(
            status=SolveStatus.UNBOUNDED, objective=-math.inf, bound=-math.inf
        )
        finalize_user_sense(r, "max", 1.0)
        assert r.objective == math.inf and r.bound == math.inf


OBJECTIVE_SETS = [
    [("first", "min"), ("first", "max")],
    [("mix", "max"), ("mix", "min"), ("first", "max")],
]


class TestSolveManyAllBackends:
    """solve_many must match per-solve and exact answers."""

    @staticmethod
    def _model():
        m = Model()
        x = m.add_var(lb=0, ub=4)
        y = m.add_var(lb=0, ub=4)
        z = m.add_var(vtype="binary")
        m.add_constr(x + y + 2 * z <= 5)
        exprs = {"first": x + 0.5, "mix": x - y + 3 * z - 1.0}
        return m, exprs

    @pytest.mark.parametrize("objset", OBJECTIVE_SETS)
    def test_matches_per_solve(self, objset):
        m, exprs = self._model()
        objectives = [(exprs[name], sense) for name, sense in objset]
        many = m.solve_many(objectives)
        for (expr, sense), got in zip(objectives, many):
            m.set_objective(expr, sense=sense)
            ref = m.solve()
            assert got.status == ref.status
            assert got.objective == pytest.approx(ref.objective, abs=1e-8)
            assert got.bound == pytest.approx(ref.bound, abs=1e-8)
            assert_agrees(got, solve_model(m))

    def test_objective_restored(self):
        m, exprs = self._model()
        original = exprs["first"]
        m.set_objective(original, sense="max")
        m.solve_many([(exprs["mix"], "min"), (exprs["mix"], "max")])
        assert m.objective is original or m.objective.coeffs == original.coeffs
        assert m.objective_sense == "max"


class TestScipyDualBound:
    def test_bound_matches_objective_when_proven(self):
        m = Model()
        x = m.add_var(lb=0, ub=10, vtype="integer")
        m.add_constr(3 * x <= 10)
        m.set_objective(x, sense="max")
        r = m.solve()
        assert r.is_optimal
        assert r.objective == pytest.approx(3.0)
        assert r.bound >= r.objective - 1e-7

    def test_lp_bound_equals_objective(self):
        m = Model()
        x = m.add_var(lb=0, ub=2)
        m.set_objective(x, sense="min")
        r = m.solve()
        assert r.bound == pytest.approx(r.objective)

    def test_max_bound_is_upper(self):
        """For maximization the sound bound must be >= the incumbent."""
        rng = np.random.default_rng(1)
        m = Model()
        xs = [m.add_var(vtype="binary") for _ in range(12)]
        w = rng.uniform(0.5, 2, 12)
        m.add_constr(sum(float(wi) * x for wi, x in zip(w, xs)) <= 6.17)
        m.set_objective(
            sum(float(v) * x for v, x in zip(rng.uniform(1, 2, 12), xs)),
            sense="max",
        )
        r = m.solve()
        assert r.bound >= r.objective - 1e-6

    def test_min_bound_is_lower(self):
        rng = np.random.default_rng(2)
        m = Model()
        xs = [m.add_var(vtype="binary") for _ in range(12)]
        w = rng.uniform(0.5, 2, 12)
        m.add_constr(sum(float(wi) * x for wi, x in zip(w, xs)) >= 4.0)
        m.set_objective(
            sum(float(v) * x for v, x in zip(rng.uniform(1, 2, 12), xs)),
            sense="min",
        )
        r = m.solve()
        assert r.bound <= r.objective + 1e-6

    def test_solve_many_bounds_transformed(self):
        m = Model()
        x = m.add_var(lb=0, ub=3, vtype="integer")
        y = m.add_var(lb=0, ub=3)
        m.add_constr(x + y <= 4.5)
        results = m.solve_many([(x + y, "max"), (x + y, "min")])
        assert results[0].bound >= results[0].objective - 1e-7
        assert results[1].bound <= results[1].objective + 1e-7
