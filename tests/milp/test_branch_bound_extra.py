"""Additional branch-and-bound edge cases and dual-bound behaviour."""

import math

import numpy as np
import pytest

from repro.milp import Model, SolveStatus
from repro.milp.branch_bound import BranchBoundBackend


class TestBranchBoundEdgeCases:
    def test_pure_lp_short_circuits(self):
        m = Model()
        x = m.add_var(lb=0, ub=5)
        m.set_objective(x, sense="max")
        r = BranchBoundBackend().solve(m)
        assert r.is_optimal
        assert r.objective == pytest.approx(5.0)
        assert r.nodes == 0

    def test_all_integer_problem(self):
        m = Model()
        xs = [m.add_var(lb=0, ub=3, vtype="integer") for _ in range(3)]
        m.add_constr(sum(x for x in xs) <= 5)
        m.set_objective(sum((i + 1) * x for i, x in enumerate(xs)), sense="max")
        r = m.solve(backend="python")
        assert r.is_optimal
        # Greedy optimum: put everything on the highest coefficient.
        assert r.objective == pytest.approx(3 * 3 + 2 * 2)

    def test_infeasible_integrality(self):
        m = Model()
        x = m.add_var(lb=0, ub=1, vtype="integer")
        m.add_constr(x >= 0.25)
        m.add_constr(x <= 0.75)
        r = m.solve(backend="python")
        assert r.status is SolveStatus.INFEASIBLE

    def test_time_limit_reports_status(self):
        rng = np.random.default_rng(0)
        m = Model()
        xs = [m.add_var(lb=0, ub=1, vtype="binary") for _ in range(30)]
        w = rng.uniform(0.5, 2.0, 30)
        m.add_constr(sum(float(wi) * x for wi, x in zip(w, xs)) <= 12.3456)
        m.set_objective(
            sum(float(v) * x for v, x in zip(rng.uniform(1, 3, 30), xs)), sense="max"
        )
        r = BranchBoundBackend().solve(m, time_limit=1e-4)
        assert r.status in (
            SolveStatus.TIME_LIMIT,
            SolveStatus.OPTIMAL,  # may finish if the relaxation is integral
        )

    def test_bound_set_on_optimal(self):
        m = Model()
        x = m.add_var(lb=0, ub=4, vtype="integer")
        m.add_constr(2 * x <= 7)
        m.set_objective(x, sense="max")
        r = m.solve(backend="python")
        assert r.is_optimal
        assert r.bound == pytest.approx(r.objective)

    def test_mip_gap_early_stop(self):
        m = Model()
        xs = [m.add_var(vtype="binary") for _ in range(8)]
        m.add_constr(sum(1.3 * x for x in xs) <= 5.1)
        m.set_objective(sum(x for x in xs), sense="max")
        r = m.solve(backend="python", mip_gap=0.5)
        assert r.is_optimal or r.status is SolveStatus.ITERATION_LIMIT
        assert r.objective >= 1.0  # found something reasonable

    def test_mip_gap_checked_on_pop_keeps_bound_sound(self):
        """A loose gap exits as soon as any incumbent exists, with the
        popped node pushed back so the reported dual bound stays sound
        (here maximization: bound >= objective)."""
        rng = np.random.default_rng(3)
        m = Model()
        xs = [m.add_var(vtype="binary") for _ in range(14)]
        w = rng.uniform(0.5, 2.0, 14)
        m.add_constr(sum(float(wi) * x for wi, x in zip(w, xs)) <= 7.03)
        values = rng.uniform(1.0, 2.0, 14)
        m.set_objective(
            sum(float(v) * x for v, x in zip(values, xs)), sense="max"
        )
        exact = m.solve(backend="python")
        loose = m.solve(backend="python", mip_gap=10.0)
        assert loose.is_optimal  # incumbent reported, gap satisfied
        assert np.isfinite(loose.bound)
        assert loose.bound >= loose.objective - 1e-9
        assert loose.bound >= exact.objective - 1e-9  # sound vs true optimum
        assert loose.nodes <= exact.nodes  # the early exit actually exits


class TestFailedNodeRelaxation:
    """A node LP that fails (neither optimal nor infeasible) proves
    nothing about its subtree, so it must not be pruned like an
    infeasible one: the solve ends non-optimal with a sound bound."""

    @staticmethod
    def knapsack():
        # max 3x + 2y  s.t.  2x + 2y <= 5,  x, y in {0..3};  optimum 6.
        m = Model()
        x = m.add_var(lb=0, ub=3, vtype="integer")
        y = m.add_var(lb=0, ub=3, vtype="integer")
        m.add_constr(2 * x + 2 * y <= 5)
        m.set_objective(3 * x + 2 * y, sense="max")
        return m

    @staticmethod
    def failing(lp_solver, fail_at, failure):
        """A backend whose ``fail_at``-th LP relaxation returns ``failure``."""
        backend = BranchBoundBackend(lp_solver)
        count = iter(range(1, 10**6))

        def relax(*args):
            if next(count) == fail_at:
                return failure, math.nan, np.empty(0), 0
            return BranchBoundBackend._solve_relaxation(backend, *args)

        backend._solve_relaxation = relax
        return backend

    @pytest.mark.parametrize("lp_solver", ["highs", "simplex"])
    @pytest.mark.parametrize("failure", [SolveStatus.ERROR, SolveStatus.ITERATION_LIMIT])
    def test_every_failed_call_keeps_bound_sound(self, lp_solver, failure):
        m = self.knapsack()
        clean = BranchBoundBackend(lp_solver)
        calls = []
        real = clean._solve_relaxation
        clean._solve_relaxation = lambda *a: calls.append(1) or real(*a)
        assert clean.solve(m).objective == pytest.approx(6.0)
        for fail_at in range(1, len(calls) + 1):
            r = self.failing(lp_solver, fail_at, failure).solve(m)
            if r.is_optimal:
                assert r.objective == pytest.approx(6.0), fail_at
                continue
            if fail_at == 1:  # the root: nothing is known at all
                assert r.sound_bound() is None
                continue
            assert r.sound_bound() is not None, fail_at
            assert r.sound_bound() >= 6.0 - 1e-9, fail_at

    @pytest.mark.parametrize("lp_solver", ["highs", "simplex"])
    def test_closed_gap_is_optimal_over_failed_nodes(self, lp_solver):
        """A MIP-gap exit proves the gap over failed nodes' bounds too."""
        m = self.knapsack()
        statuses = []
        for fail_at in range(2, 6):
            r = self.failing(lp_solver, fail_at, SolveStatus.ERROR).solve(m, mip_gap=0.5)
            assert r.sound_bound() >= 6.0 - 1e-9, fail_at
            if r.is_optimal:
                assert r.bound - r.objective <= 0.5 * abs(r.objective), fail_at
            statuses.append(r.status)
        # Failing the 4th or 5th LP leaves a failed node open, below the
        # incumbent's dominance, when the gap closes.
        assert statuses == [SolveStatus.ERROR] * 2 + [SolveStatus.OPTIMAL] * 2


class TestScipyDualBound:
    def test_bound_matches_objective_when_proven(self):
        m = Model()
        x = m.add_var(lb=0, ub=10, vtype="integer")
        m.add_constr(3 * x <= 10)
        m.set_objective(x, sense="max")
        r = m.solve(backend="scipy")
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
        r = m.solve(backend="scipy")
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
        r = m.solve(backend="scipy")
        assert r.bound <= r.objective + 1e-6

    def test_solve_many_bounds_transformed(self):
        m = Model()
        x = m.add_var(lb=0, ub=3, vtype="integer")
        y = m.add_var(lb=0, ub=3)
        m.add_constr(x + y <= 4.5)
        results = m.solve_many([(x + y, "max"), (x + y, "min")])
        assert results[0].bound >= results[0].objective - 1e-7
        assert results[1].bound <= results[1].objective + 1e-7
