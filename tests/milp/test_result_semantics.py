"""Regression tests: result semantics agree across backends and limits.

Covers the solver-semantics bug class: a max-sense model interrupted by
a time/node limit must still report its incumbent objective in the
*user's* sense (sign, objective constant) and carry a sound dual bound,
identically on every backend.
"""

import math
import types

import numpy as np
import pytest

import repro.milp.scipy_backend as scipy_backend_mod
from repro.milp import Model, SolveResult, SolveStatus
from repro.milp.branch_bound import BranchBoundBackend
from repro.milp.scipy_backend import ScipyBackend
from repro.milp.solution import finalize_user_sense


def hard_knapsack(seed: int = 19, n: int = 12) -> Model:
    """A max-sense knapsack whose best-first search finds an incumbent
    early but needs many nodes to prove optimality (seed chosen so a
    5-node limit leaves a strict objective < optimum < bound sandwich)."""
    rng = np.random.default_rng(seed)
    m = Model("hard-knapsack")
    xs = [m.add_var(vtype="binary", name=f"x{i}") for i in range(n)]
    vals = rng.integers(3, 30, n)
    wts = rng.integers(2, 20, n)
    m.add_constr(sum(int(w) * x for w, x in zip(wts, xs)) <= int(wts.sum() // 3))
    m.set_objective(sum(int(v) * x for v, x in zip(vals, xs)) + 5, sense="max")
    return m


class TestInterruptedMaxSense:
    """BranchBoundBackend.solve under node/time limits (satellite 1)."""

    def test_node_limit_incumbent_user_sense(self):
        m = hard_knapsack()
        optimum = m.solve(backend="scipy").require_optimal().objective

        r = BranchBoundBackend(max_nodes=5).solve(m)
        assert r.status is SolveStatus.ITERATION_LIMIT
        assert r.values.size  # an incumbent was found before the limit
        # Correct sign and objective constant: the incumbent is a true
        # feasible value, so it must sit at or below the maximum...
        assert math.isfinite(r.objective)
        assert r.objective > 0  # the bug reported about -108 here
        assert r.objective <= optimum + 1e-9
        # ...and the dual bound (from the open-node heap) above it.
        assert math.isfinite(r.bound)
        assert r.bound >= optimum - 1e-9
        assert m.check_feasible(r.values)
        # Strictness: this instance is genuinely interrupted, so the
        # sandwich is informative, not degenerate.
        assert r.objective < optimum < r.bound

    def test_agreement_with_scipy(self):
        """Acceptance criterion: python under a tight limit vs scipy."""
        m = hard_knapsack()
        ref = m.solve(backend="scipy").require_optimal()
        limited = BranchBoundBackend(max_nodes=5).solve(m)
        assert limited.objective <= ref.objective + 1e-9 <= limited.bound + 2e-9

    def test_time_limit_zero_bound_only(self):
        """No incumbent: still a sound, correctly-signed bound."""
        m = hard_knapsack()
        optimum = m.solve(backend="scipy").objective
        r = BranchBoundBackend().solve(m, time_limit=0.0)
        assert r.status is SolveStatus.TIME_LIMIT
        assert r.values.size == 0
        assert math.isnan(r.objective)
        assert math.isfinite(r.bound) and r.bound >= optimum - 1e-9

    def test_min_sense_node_limit(self):
        m = hard_knapsack()
        # Same constraints, minimization with a negative-coefficient
        # objective so the optimum is nontrivial.
        obj = sum(-int(v) * x for v, x in zip(range(3, 15), m.variables))
        m.set_objective(obj - 7.0, sense="min")
        optimum = m.solve(backend="scipy").require_optimal().objective
        r = BranchBoundBackend(max_nodes=5).solve(m)
        if r.values.size:  # incumbent feasible => above the true minimum
            assert r.objective >= optimum - 1e-9
        assert math.isfinite(r.bound)
        assert r.bound <= optimum + 1e-9  # sound lower bound for min

    def test_optimal_unchanged(self):
        m = hard_knapsack()
        full = BranchBoundBackend().solve(m)
        ref = m.solve(backend="scipy")
        assert full.is_optimal
        assert full.objective == pytest.approx(ref.objective)
        assert full.bound == pytest.approx(full.objective)


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
        r = m.solve(backend="scipy", time_limit=3.0)
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


@pytest.mark.parametrize("backend", ["scipy", "python", "python:simplex"])
class TestSolveManyAllBackends:
    """solve_many must match per-solve answers on every backend."""

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
    def test_matches_per_solve(self, backend, objset):
        m, exprs = self._model()
        objectives = [(exprs[name], sense) for name, sense in objset]
        many = m.solve_many(objectives, backend=backend)
        for (expr, sense), got in zip(objectives, many):
            m.set_objective(expr, sense=sense)
            ref = m.solve(backend=backend)
            assert got.status == ref.status
            assert got.objective == pytest.approx(ref.objective, abs=1e-8)
            assert got.bound == pytest.approx(ref.bound, abs=1e-8)

    def test_objective_restored(self, backend):
        m, exprs = self._model()
        original = exprs["first"]
        m.set_objective(original, sense="max")
        m.solve_many([(exprs["mix"], "min"), (exprs["mix"], "max")], backend=backend)
        assert m.objective is original or m.objective.coeffs == original.coeffs
        assert m.objective_sense == "max"


class TestSolveManyFallback:
    """Backends without open_session use the repeated-solve path."""

    class _PlainBackend:
        """Minimal backend: solve() only, no multi-objective fast path."""

        name = "plain"

        def __init__(self):
            self._inner = BranchBoundBackend()

        def solve(self, model, time_limit=None, mip_gap=None):
            return self._inner.solve(model, time_limit=time_limit, mip_gap=mip_gap)

    @pytest.fixture()
    def plain_backend(self, monkeypatch):
        from repro.milp import backend as backend_registry

        monkeypatch.setitem(
            backend_registry._REGISTRY,
            "plain",
            backend_registry.BackendSpec(
                name="plain",
                factory=lambda variant: self._PlainBackend(),
            ),
        )
        return "plain"

    def test_fallback_restores_objective_and_matches(self, plain_backend):
        m = Model()
        x = m.add_var(lb=0, ub=3)
        y = m.add_var(lb=0, ub=3)
        m.add_constr(x + y <= 4)
        original = x + 2 * y
        m.set_objective(original, sense="max")

        objectives = [(x - y, "min"), (x - y, "max"), (x + y + 1.5, "max")]
        many = m.solve_many(objectives, backend=plain_backend)

        # The fallback mutates the model's objective per solve; it must
        # be restored afterwards...
        assert m.objective is original
        assert m.objective_sense == "max"
        # ...and each answer must match a fresh dedicated solve.
        for (expr, sense), got in zip(objectives, many):
            fresh = Model()
            fx = fresh.add_var(lb=0, ub=3)
            fy = fresh.add_var(lb=0, ub=3)
            fresh.add_constr(fx + fy <= 4)
            remap = {x.index: fx, y.index: fy}
            fresh_expr = sum(
                coef * remap[idx] for idx, coef in expr.coeffs.items()
            ) + expr.constant
            fresh.set_objective(fresh_expr, sense=sense)
            ref = fresh.solve(backend="scipy")
            assert got.objective == pytest.approx(ref.objective, abs=1e-8)

    def test_fallback_restores_on_error(self, plain_backend):
        m = Model()
        x = m.add_var(lb=0, ub=1)
        original = x + 0.0
        m.set_objective(original, sense="min")
        with pytest.raises(ValueError):
            m.solve_many([(x, "sideways")], backend=plain_backend)
        assert m.objective is original
        assert m.objective_sense == "min"
