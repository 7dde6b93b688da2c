"""SolverSession property tests: session solves == from-scratch solves.

The session contract is behavioral: after any sequence of objective
swaps, :meth:`SolverSession.solve` must report the status and optimum
of a *fresh* :class:`Model` with that objective (its exact optimum,
from the rational oracle), and a stacked
:meth:`SolverSession.solve_objectives` must report what solving the
objectives one at a time reports.  These tests assert both on random
LP/MILP instances.
"""

from unittest import mock

import numpy as np
import pytest
from exact_oracle import assert_agrees, solve_model
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._sanitize import sanitizing
from repro.milp import Model, SolveStatus, as_expr, open_session
from repro.milp.solution import SolveResult

class RandomInstance:
    """A feasible-by-construction random LP/MILP.

    ``x0`` is an interior point every constraint is anchored on, so the
    instance stays feasible under any bound tightening toward ``x0`` —
    parity tests compare *optimal* solves, not a pile of infeasibilities.
    """

    def __init__(self, seed: int, n: int = 5, m: int = 3, n_bin: int = 0):
        rng = np.random.default_rng(seed)
        self.n, self.m, self.n_bin = n, m, n_bin
        self.lo = rng.uniform(-2.0, 0.0, n)
        self.hi = self.lo + rng.uniform(0.5, 2.5, n)
        self.lo[:n_bin] = 0.0
        self.hi[:n_bin] = 1.0
        self.x0 = rng.uniform(self.lo, self.hi)
        self.x0[:n_bin] = rng.integers(0, 2, n_bin)
        self.A = rng.standard_normal((m, n))
        self.senses = rng.choice(np.array(["<=", ">=", "=="]), size=m,
                                 p=[0.5, 0.3, 0.2])
        slack = rng.uniform(0.1, 1.0, m)
        self.b = self.A @ self.x0
        self.b[self.senses == "<="] += slack[self.senses == "<="]
        self.b[self.senses == ">="] -= slack[self.senses == ">="]
        self.c = rng.standard_normal(n)
        self.constant = float(rng.standard_normal())
        self.sense = "min" if rng.integers(0, 2) == 0 else "max"
        self.rng = rng

    def build(self, lo=None, hi=None, extra_rows=(), c=None, sense=None,
              constant=None):
        """A fresh model with the given bounds, extra rows and objective."""
        model = Model()
        lo = self.lo if lo is None else lo
        hi = self.hi if hi is None else hi
        xs = [
            model.add_var(
                lb=float(lo[j]), ub=float(hi[j]),
                vtype="binary" if j < self.n_bin else "continuous",
            )
            for j in range(self.n)
        ]
        model.add_linear_rows(self.A, list(self.senses), self.b)
        for coeffs, senses, rhs in extra_rows:
            model.add_linear_rows(coeffs, senses, rhs)
        obj_c = self.c if c is None else c
        obj_constant = self.constant if constant is None else constant
        model.set_objective(
            linexpr(xs, obj_c, obj_constant), sense or self.sense
        )
        return model, xs

    def tighten(self):
        """Random bound tightening that keeps ``x0`` feasible."""
        t_lo = self.rng.uniform(0.0, 1.0, self.n)
        t_hi = self.rng.uniform(0.0, 1.0, self.n)
        lo = self.lo + t_lo * (self.x0 - self.lo)
        hi = self.hi - t_hi * (self.hi - self.x0)
        lo[:self.n_bin] = np.floor(lo[:self.n_bin])
        hi[:self.n_bin] = np.ceil(hi[:self.n_bin])
        return lo, hi

    def random_rows(self, k: int = 2):
        """A feasible-at-``x0`` extra row block (mixed senses)."""
        coeffs = self.rng.standard_normal((k, self.n))
        senses = self.rng.choice(np.array(["<=", ">=", "=="]), size=k)
        slack = self.rng.uniform(0.1, 1.0, k)
        rhs = coeffs @ self.x0
        rhs[senses == "<="] += slack[senses == "<="]
        rhs[senses == ">="] -= slack[senses == ">="]
        return coeffs, list(senses), rhs


def linexpr(xs, c, constant=0.0):
    expr = as_expr(float(constant))
    for x, coeff in zip(xs, c):
        expr = expr + float(coeff) * x
    return expr


@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_objective_swaps_match_fresh(seed):
    inst = RandomInstance(seed)
    model, xs = inst.build()
    model.set_objective(linexpr(xs, inst.c, inst.constant), inst.sense)
    with open_session(model) as session:
        for _ in range(3):
            c = inst.rng.standard_normal(inst.n)
            constant = float(inst.rng.standard_normal())
            sense = "min" if inst.rng.integers(0, 2) == 0 else "max"
            fresh_model, fxs = inst.build()
            fresh_model.set_objective(linexpr(fxs, c, constant), sense)
            session.set_objective(linexpr(xs, c, constant), sense)
            assert_agrees(session.solve(), solve_model(fresh_model))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_milp_objective_swaps_match_fresh(seed):
    """Objective swaps on instances with binaries, bounds and extra rows."""
    inst = RandomInstance(seed, n=5, m=2, n_bin=2)
    lo, hi = inst.tighten()
    block = inst.random_rows(k=1)
    model, xs = inst.build(lo=lo, hi=hi, extra_rows=[block])
    c = inst.rng.standard_normal(inst.n)

    fresh_model, fxs = inst.build(lo=lo, hi=hi, extra_rows=[block])
    fresh_model.set_objective(linexpr(fxs, c, inst.constant), "max")
    reference = solve_model(fresh_model)
    with open_session(model) as session:
        session.set_objective(linexpr(xs, c, inst.constant), "max")
        assert_agrees(session.solve(), reference)
        # Re-solving an unchanged session is idempotent.
        assert_agrees(session.solve(), reference)


# -- stacked multi-objective solves (scipy/HiGHS) -------------------------


def random_objectives(inst, xs, count):
    """``count`` random ``(expression, sense)`` pairs over ``xs``."""
    objectives = []
    for _ in range(count):
        c = inst.rng.standard_normal(len(xs))
        constant = float(inst.rng.standard_normal())
        sense = "min" if inst.rng.integers(0, 2) == 0 else "max"
        objectives.append((linexpr(xs, c, constant), sense))
    return objectives


def one_at_a_time(session, objectives, time_limit=None):
    """The unstacked reference: one ``solve`` per objective."""
    results = []
    for expr, sense in objectives:
        session.set_objective(expr, sense)
        results.append(session.solve(time_limit=time_limit))
    return results


def assert_stacked_matches(stacked, singles):
    __tracebackhide__ = True
    assert [r.status for r in stacked] == [r.status for r in singles]
    for got, want in zip(stacked, singles):
        if want.status is SolveStatus.OPTIMAL:
            scale = max(1.0, abs(want.objective))
            assert abs(got.objective - want.objective) <= 1e-9 * scale
            assert abs(got.sound_bound() - want.sound_bound()) <= 1e-9 * scale


class SolveSpy:
    """Records every scipy backend call: ``(num_columns, time_limit)``.

    The sanitizer is off inside: its per-stack re-solve would add calls.
    """

    def __init__(self):
        self.calls = []
        self.stacks = 0

    def __enter__(self):
        from repro.milp.scipy_backend import ScipyBackend

        real_std = ScipyBackend._solve_std
        real_stack = ScipyBackend.solve_lp_stack

        def solve_std(backend, c, *args):
            self.calls.append((c.shape[0], args[6]))
            return real_std(backend, c, *args)

        def solve_lp_stack(backend, *args):
            self.stacks += 1
            return real_stack(backend, *args)

        self._patches = [
            mock.patch.object(ScipyBackend, "_solve_std", solve_std),
            mock.patch.object(ScipyBackend, "solve_lp_stack", solve_lp_stack),
            sanitizing(False),
        ]
        for patch in self._patches:
            patch.__enter__()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self._patches):
            patch.__exit__(*exc)


def stacked_and_singles(inst, edit=None, count=6, time_limit=None):
    """Solve the same objectives stacked and one at a time.

    ``edit(model)``, when given, modifies the model before the sessions
    snapshot it.
    """
    model, xs = inst.build()
    if edit is not None:
        edit(model)
    objectives = random_objectives(inst, xs, count)
    with open_session(model) as stacked_session, open_session(model) as single_session:
        with SolveSpy() as spy:
            stacked = stacked_session.solve_objectives(
                objectives, time_limit=time_limit
            )
        singles = one_at_a_time(single_session, objectives, time_limit)
        per_stack = stacked_session.objectives_per_stack()
    return stacked, singles, spy, per_stack


@given(seed=st.integers(0, 10**6), count=st.integers(2, 12))
@settings(max_examples=15, deadline=None)
def test_stacked_objectives_match_one_at_a_time(seed, count):
    stacked, singles, spy, per_stack = stacked_and_singles(
        RandomInstance(seed, n=6, m=4), count=count
    )
    assert per_stack >= count  # a tiny LP: every objective in one stack
    assert spy.stacks == 1 and len(spy.calls) == 1
    assert all(r.status is SolveStatus.OPTIMAL for r in stacked)
    assert_stacked_matches(stacked, singles)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_stacked_objectives_with_appended_rows(seed):
    inst = RandomInstance(seed, n=6, m=3)
    rows = [inst.random_rows(k=3), inst.random_rows(k=2)]

    def append(model):
        for block in rows:
            model.add_linear_rows(*block)

    stacked, singles, spy, _ = stacked_and_singles(inst, edit=append)
    assert spy.stacks == 1
    assert_stacked_matches(stacked, singles)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_stacked_infeasible_system_marks_every_objective(seed):
    inst = RandomInstance(seed, n=5, m=3)

    def make_infeasible(model):
        # sum(x) >= sum(hi) + 1 cannot hold inside the variable box.
        model.add_linear_rows(np.ones((1, inst.n)), ">=", inst.hi.sum() + 1.0)

    stacked, singles, spy, _ = stacked_and_singles(inst, edit=make_infeasible)
    assert spy.stacks == 1 and len(spy.calls) == 1
    assert all(r.status is SolveStatus.INFEASIBLE for r in stacked)
    assert_stacked_matches(stacked, singles)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_stack_with_an_unbounded_objective_falls_back(seed):
    inst = RandomInstance(seed, n=5, m=3)
    model, xs = inst.build()
    free = model.add_var(lb=0.0, ub=np.inf)  # in no constraint
    objectives = random_objectives(inst, xs, 4)
    objectives.insert(2, (as_expr(free), "max"))
    with open_session(model) as session, SolveSpy() as spy:
        stacked = session.solve_objectives(objectives)
        singles = one_at_a_time(session, objectives)
    # One stacked call, then one call per objective for the fallback
    # and one per objective for the reference.
    assert spy.stacks == 1
    assert len(spy.calls) == 1 + 2 * len(objectives)
    assert stacked[2].status is not SolveStatus.OPTIMAL
    assert all(r.is_optimal for k, r in enumerate(stacked) if k != 2)
    assert_stacked_matches(stacked, singles)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=5, deadline=None)
def test_stack_time_limit_scales_and_limited_stack_falls_back(seed):
    inst = RandomInstance(seed, n=5, m=3)
    stacked, singles, spy, _ = stacked_and_singles(
        inst, count=4, time_limit=30.0
    )
    assert spy.calls == [(4 * inst.n, 4 * 30.0)]
    assert_stacked_matches(stacked, singles)

    # A stack that runs out of time is re-solved one objective at a
    # time, each under the caller's per-solve limit.
    from repro.milp.scipy_backend import ScipyBackend

    real_std = ScipyBackend._solve_std

    def stack_times_out(backend, c, *args):
        if c.shape[0] > inst.n:
            return SolveResult(status=SolveStatus.TIME_LIMIT)
        return real_std(backend, c, *args)

    model, xs = inst.build()
    objectives = random_objectives(inst, xs, 4)
    with open_session(model) as session:
        reference = one_at_a_time(session, objectives, time_limit=30.0)
        with mock.patch.object(ScipyBackend, "_solve_std", stack_times_out):
            with SolveSpy() as spy:
                limited = session.solve_objectives(objectives, time_limit=30.0)
    assert spy.calls[0] == (4 * inst.n, 4 * 30.0)
    assert spy.calls[1:] == [(inst.n, 30.0)] * 4
    assert_stacked_matches(limited, reference)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=5, deadline=None)
def test_model_above_the_budget_is_solved_singly(seed):
    from repro.milp import scipy_backend

    inst = RandomInstance(seed, n=5, m=3)
    with mock.patch.object(scipy_backend, "STACK_NNZ", 1):
        stacked, singles, spy, per_stack = stacked_and_singles(inst, count=5)
    assert per_stack == 1
    assert spy.stacks == 0 and len(spy.calls) == 5
    assert_stacked_matches(stacked, singles)


def test_stack_boundaries_follow_the_budget():
    from repro.milp import scipy_backend

    inst = RandomInstance(9, n=5, m=3)
    model, xs = inst.build()
    objectives = random_objectives(inst, xs, 7)
    with open_session(model) as session:
        nnz = int(np.count_nonzero(inst.A))
        with mock.patch.object(scipy_backend, "STACK_NNZ", 3 * nnz):
            assert session.objectives_per_stack() == 3
            with SolveSpy() as spy:
                stacked = session.solve_objectives(objectives)
        singles = one_at_a_time(session, objectives)
    assert [cols for cols, _ in spy.calls] == [15, 15, 5]
    assert_stacked_matches(stacked, singles)


def test_single_objective_is_never_stacked():
    inst = RandomInstance(4)
    stacked, singles, spy, _ = stacked_and_singles(inst, count=1)
    assert spy.stacks == 0 and spy.calls == [(inst.n, None)]
    assert_stacked_matches(stacked, singles)


def test_milp_sessions_are_never_stacked():
    inst = RandomInstance(6, n=5, m=2, n_bin=2)
    stacked, singles, spy, per_stack = stacked_and_singles(inst, count=4)
    assert per_stack == 1 and spy.stacks == 0 and len(spy.calls) == 4
    assert_stacked_matches(stacked, singles)


def test_stacked_solve_leaves_the_last_objective_set():
    inst = RandomInstance(8)
    model, xs = inst.build()
    objectives = random_objectives(inst, xs, 3)
    with open_session(model) as session:
        last = session.solve_objectives(objectives)[-1]
        again = session.solve()
    assert again.status is last.status
    assert again.objective == pytest.approx(last.objective, rel=1e-9, abs=1e-9)


def test_backend_and_model_solve_many_share_the_session_path():
    inst = RandomInstance(2, n=6, m=4)
    model, xs = inst.build()
    objectives = random_objectives(inst, xs, 5)
    with SolveSpy() as spy, open_session(model) as session:
        via_model = model.solve_many(objectives)
        via_session = session.solve_objectives(objectives)
    assert spy.stacks == 2
    for a, b in zip(via_model, via_session):
        assert a.status is b.status
        assert a.objective == b.objective
        assert np.array_equal(a.values, b.values)
