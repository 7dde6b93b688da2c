"""Fault-tolerant runtime: injection, retry, salvage, watchdog, chaos.

Every test here installs its own :class:`~repro.runtime.faults.FaultPlan`
(or none), so the suite is deterministic even when an outer
``REPRO_FAULTS`` chaos schedule is active — the autouse fixture saves
and restores whatever plan the environment installed.
"""

import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _faults
from repro.bounds import Box
from repro.nn.affine import AffineLayer
from repro.runtime import batch as batch_mod
from repro.runtime import faults
from repro.runtime.batch import (
    BatchCertifier,
    BatchResult,
    global_query,
    local_queries,
    parallel_solve_many,
)
from repro.runtime.retry import RetryPolicy, TRANSIENT_ERROR_TYPES


@pytest.fixture(autouse=True)
def _isolated_faults():
    """Each test starts fault-free and restores the ambient plan after."""
    saved = faults.active_plan()
    faults.clear()
    yield
    faults.install(saved)


@pytest.fixture(scope="module")
def layers():
    rng = np.random.default_rng(42)
    return [
        AffineLayer(
            0.5 * rng.standard_normal((4, 3)), 0.2 * rng.standard_normal(4), relu=True
        ),
        AffineLayer(
            0.5 * rng.standard_normal((2, 4)), 0.2 * rng.standard_normal(2), relu=False
        ),
    ]


@pytest.fixture(scope="module")
def centers():
    return np.random.default_rng(1).random((6, 3))


# -- FaultSpec / FaultPlan ----------------------------------------------------


class TestFaultGrammar:
    def test_parse_full_grammar(self):
        plan = faults.FaultPlan.parse(
            "batch.worker:raise@2; scipy.solve:hang=5@3x2 ;split.*:crash"
        )
        assert plan.specs == (
            faults.FaultSpec("batch.worker", "raise", nth=2),
            faults.FaultSpec("scipy.solve", "hang", nth=3, count=2, seconds=5.0),
            faults.FaultSpec("split.*", "crash"),
        )

    def test_parse_forever_count(self):
        (spec,) = faults.FaultPlan.parse("p:raise@4x*").specs
        assert spec.nth == 4 and math.isinf(spec.count)
        assert not spec.armed(3)
        assert spec.armed(4) and spec.armed(10_000)

    def test_parse_rejects_garbage(self):
        for bad in ("nonsense", "p:explode", "", ":raise", "p:raise@0"):
            with pytest.raises(ValueError):
                faults.FaultPlan.parse(bad)

    def test_glob_matching(self):
        spec = faults.FaultSpec("batch.*", "raise")
        assert spec.matches("batch.worker") and spec.matches("batch.dispatch")
        assert not spec.matches("scipy.solve")
        assert faults.FaultSpec("*", "raise").matches("anything.at.all")

    def test_armed_window(self):
        spec = faults.FaultSpec("p", "raise", nth=3, count=2)
        assert [spec.armed(h) for h in (1, 2, 3, 4, 5)] == (
            [False, False, True, True, False]
        )


class TestFaultRuntime:
    def test_disabled_is_noop(self):
        assert _faults.ENABLED is False
        _faults.fault_point("batch.worker")  # no plan: must not raise

    def test_raise_fires_on_nth_hit_only(self):
        with faults.injected(faults.FaultPlan.parse("p.q:raise@2")):
            assert _faults.ENABLED
            _faults.fault_point("p.q")  # hit 1: silent
            with pytest.raises(faults.InjectedFault) as excinfo:
                _faults.fault_point("p.q")
            assert excinfo.value.point == "p.q" and excinfo.value.hit == 2
            _faults.fault_point("p.q")  # hit 3: spec window passed
        assert _faults.ENABLED is False

    def test_crash_downgrades_to_raise_in_parent(self):
        # The submitting process must never be killed by a chaos plan.
        assert not faults.in_worker_process()
        with faults.injected(faults.FaultPlan.parse("p:crash")):
            with pytest.raises(faults.InjectedFault):
                _faults.fault_point("p")

    def test_hang_stalls_then_returns(self):
        with faults.injected(faults.FaultPlan.parse("p:hang=0.05")):
            t0 = time.perf_counter()
            _faults.fault_point("p")  # returns, does not raise
            assert time.perf_counter() - t0 >= 0.05

    def test_fresh_resets_hit_counters(self):
        plan = faults.FaultPlan.parse("p:raise@1")
        assert plan.poke("p") is not None and plan.hits("p") == 1
        forked = plan.fresh()
        assert forked.hits("p") == 0
        assert forked.poke("p") is not None  # replays from hit 1
        assert plan.poke("p") is None  # original counter kept advancing

    def test_env_schedule_installed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "batch.worker:raise;scipy.*:hang=2@5x3")
        _faults._install_from_env()
        plan = faults.active_plan()
        assert plan is not None and plan.specs == (
            faults.FaultSpec("batch.worker", "raise"),
            faults.FaultSpec("scipy.*", "hang", nth=5, count=3, seconds=2.0),
        )

    def test_chaos_streams_are_seed_deterministic(self):
        def trace(seed):
            plan = faults.FaultPlan.random(seed, rate=0.5, hang_seconds=0.01)
            return [
                (s.action if s is not None else None)
                for s in (plan.poke("a") for _ in range(64))
            ]

        assert trace(9) == trace(9)
        assert trace(9) != trace(10)

    def test_explicit_spec_wins_over_chaos(self):
        plan = faults.FaultPlan.random(
            0, rate=1.0, actions=("hang",),
            specs=(faults.FaultSpec("a", "raise"),),
        )
        spec = plan.poke("a")
        assert spec is not None and spec.action == "raise"


# -- RetryPolicy --------------------------------------------------------------


class TestRetryPolicy:
    def test_classify_live_instances(self):
        from concurrent.futures.process import BrokenProcessPool

        policy = RetryPolicy()
        assert policy.classify(OSError("fork failed")) == "transient"
        assert policy.classify(faults.InjectedFault("p", 1)) == "transient"
        assert policy.classify(BrokenProcessPool("worker died")) == "transient"
        assert policy.classify(TimeoutError("slow")) == "transient"
        assert policy.classify(ValueError("bad dims")) == "permanent"
        assert policy.classify(RuntimeError("solver bug")) == "permanent"
        assert faults.InjectedFault in TRANSIENT_ERROR_TYPES

    def test_worker_failures_rebuild_in_the_parent(self):
        """Exceptions a pool worker raises cross the pool as themselves."""
        import pickle

        from repro.certify.minmax import RangeSolveError
        from repro.milp.solution import SolveResult, SolveStatus

        fault = pickle.loads(pickle.dumps(faults.InjectedFault("p", 3)))
        assert (fault.point, fault.hit) == ("p", 3)
        assert RetryPolicy().classify(fault) == "transient"
        failed = SolveResult(SolveStatus.ERROR, message="boom")
        error = pickle.loads(pickle.dumps(RangeSolveError("leaf", 2, failed)))
        assert (error.what, error.output, str(error)) == (
            "leaf", 2, "leaf failed on output 2: status=error (boom)"
        )
        assert RetryPolicy().classify(error) == "permanent"

    def test_delay_is_deterministic_capped_exponential(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.5, seed=3
        )
        assert policy.delay(1, key=7) == policy.delay(1, key=7)
        assert 0.05 <= policy.delay(1, key=7) <= 0.1
        assert 0.25 <= policy.delay(10, key=7) <= 0.5  # capped at max_delay
        # Zero jitter: the exact exponential schedule.
        exact = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=9.0, jitter=0.0)
        assert exact.delay(1) == pytest.approx(0.1)
        assert exact.delay(3) == pytest.approx(0.4)

    def test_validation(self):
        for bad in (
            dict(max_attempts=0),
            dict(jitter=2.0),
            dict(multiplier=0.5),
            dict(budget=-1),
            dict(base_delay=-0.1),
            dict(max_pool_rebuilds=-1),
        ):
            with pytest.raises(ValueError):
                RetryPolicy(**bad)

    def test_batch_budget(self):
        assert RetryPolicy().batch_budget(2) == 8
        assert RetryPolicy().batch_budget(100) == 200
        assert RetryPolicy(budget=5).batch_budget(100) == 5


# -- engine semantics: retry, degradation, permanence -------------------------


class TestEngineRetry:
    def test_bad_query_timeout_rejected(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="query_timeout"):
                BatchCertifier(query_timeout=bad)

    def test_degraded_property_default(self):
        assert BatchResult(index=0).degraded is False

    def test_serial_retry_is_transparent(self, layers, centers):
        baseline = BatchCertifier(max_workers=1).run(
            local_queries(layers, centers[:2], 0.05, method="lpr")
        )
        engine = BatchCertifier(
            max_workers=1, retry=RetryPolicy(base_delay=0.001)
        )
        with faults.injected(faults.FaultPlan.parse("batch.worker:raise@1")):
            results = engine.run(local_queries(layers, centers[:2], 0.05, method="lpr"))
        assert [r.ok and not r.degraded for r in results] == [True, True]
        assert results[0].detail["attempts"] == 2  # failed once, retried
        assert results[1].detail["attempts"] == 1
        assert engine.fault_stats["retries"] == 1
        for got, want in zip(results, baseline):
            assert np.array_equal(got.certificate.epsilons, want.certificate.epsilons)

    def test_exhausted_attempts_degrade_soundly(self, layers, centers):
        exact = BatchCertifier(max_workers=1).run(
            local_queries(layers, centers[:1], 0.05, method="exact")
        )[0].certificate
        engine = BatchCertifier(
            max_workers=1, retry=RetryPolicy(max_attempts=2, base_delay=0.0)
        )
        with faults.injected(faults.FaultPlan.parse("batch.worker:raise@1x*")):
            result = engine.run(
                local_queries(layers, centers[:1], 0.05, method="exact")
            )[0]
        assert result.ok and result.degraded
        assert result.detail["attempts"] == 2
        assert "InjectedFault" in result.detail["reason"]
        assert engine.fault_stats == dict(
            retries=1, degraded=1, timeouts=0, workers_killed=0, pool_rebuilds=0
        )
        cert = result.certificate
        assert cert.method == "degraded" and not cert.exact
        assert cert.verdict == "undecided"
        assert np.isfinite(cert.epsilons).all()
        # Sound: the fallback bounds contain the exact answer.
        assert (cert.epsilons >= exact.epsilons - 1e-9).all()

    def test_zero_budget_degrades_without_retry(self, layers, centers):
        engine = BatchCertifier(max_workers=1, retry=RetryPolicy(budget=0))
        with faults.injected(faults.FaultPlan.parse("batch.worker:raise@1x*")):
            result = engine.run(
                local_queries(layers, centers[:1], 0.05, method="lpr")
            )[0]
        assert result.degraded and result.detail["attempts"] == 1
        assert engine.fault_stats["retries"] == 0

    def test_permanent_failure_not_retried(self, layers):
        engine = BatchCertifier(max_workers=1)
        bad = local_queries(layers, np.random.default_rng(0).random((1, 3)), 0.05)
        bad[0].center = np.ones(7)  # wrong input dimension: a real bug
        results = engine.run(bad)
        assert not results[0].ok and not results[0].degraded
        assert results[0].detail["attempts"] == 1
        assert engine.fault_stats["retries"] == 0


# -- pool supervisor: salvage, rebuild, watchdog ------------------------------


class TestPoolSupervisor:
    def test_crash_after_k_salvages_completed_results(self, layers, centers):
        """Worker dies after K=2 completions: exactly N-K queries re-run.

        One pool worker processes the queries in order and crashes on
        its 3rd; rebuilds are disabled, so the supervisor must salvage
        the two completed futures and finish only the remaining four
        inline (the crasher re-fires once in-process, downgraded to a
        transient raise, and is retried).  The parent-side hit counter
        is the proof: 4 unfinished queries + 1 retry = 5 inline runs.
        """
        queries = local_queries(layers, centers, 0.05, method="lpr")
        baseline = BatchCertifier(max_workers=1).run(
            local_queries(layers, centers, 0.05, method="lpr")
        )
        policy = RetryPolicy(base_delay=0.001, max_pool_rebuilds=0)
        stats = dict(batch_mod._FAULT_STATS_ZERO)
        plan = faults.FaultPlan.parse("batch.worker:crash@3")
        with faults.injected(plan):
            # A pool of one worker (fan_out would run workers=1 inline).
            supervisor = batch_mod._PoolSupervisor(
                batch_mod._execute_query, queries, 1, policy, stats=stats
            )
            outcomes = supervisor.run()
        assert len(outcomes) == len(queries)  # one per query, in order
        assert all(o.error is None and o.lost is None for o in outcomes)
        assert plan.hits("batch.worker") == 5  # N-K=4 re-runs + 1 retry
        assert outcomes[0].attempts == 1  # salvaged from the pool
        assert outcomes[1].attempts == 1
        assert outcomes[2].attempts == 2  # the crash victim
        assert stats["pool_rebuilds"] == 1
        assert stats["retries"] == 2  # the crash victim + the inline raise
        for got, want in zip(outcomes, baseline):
            assert np.array_equal(got.value.epsilons, want.certificate.epsilons)

    def test_watchdog_kills_stuck_workers_and_degrades(self, layers, centers):
        engine = BatchCertifier(
            max_workers=2,
            query_timeout=0.5,
            retry=RetryPolicy(base_delay=0.001),
        )
        with faults.injected(faults.FaultPlan.parse("batch.worker:hang=60")):
            t0 = time.perf_counter()
            results = engine.run(local_queries(layers, centers[:2], 0.05, method="lpr"))
            elapsed = time.perf_counter() - t0
        assert elapsed < 30.0  # the 60 s hangs never ran to completion
        assert [r.index for r in results] == [0, 1]
        for result in results:
            assert result.ok and result.degraded
            assert result.certificate.verdict == "undecided"
            assert np.isfinite(result.certificate.epsilons).all()
        reasons = [str(r.detail["reason"]) for r in results]
        assert any("timeout" in reason for reason in reasons)
        assert engine.fault_stats["workers_killed"] >= 1
        assert engine.fault_stats["timeouts"] >= 1
        assert engine.fault_stats["degraded"] == 2


# -- solver fault points ------------------------------------------------------


class TestSolverFaultPoints:
    def test_solver_points_fire_once_per_stacked_lp(self):
        """Four LP objectives over one system are one HiGHS call."""
        from repro._sanitize import sanitizing
        from repro.milp import Model, open_session

        model = Model("lp")
        x = model.add_var(lb=0.0, ub=1.0)
        y = model.add_var(lb=0.0, ub=1.0)
        model.add_constr(x + y <= 1.5)
        objectives = [(x, "max"), (y, "max"), (x + y, "min"), (x - y, "max")]
        plan = faults.FaultPlan.parse("scipy.solve:raise@2; session.solve:raise@2")
        # The sanitizer's per-stack re-solve would be a second hit.
        with sanitizing(False), faults.injected(plan), open_session(model) as session:
            results = session.solve_objectives(objectives)
            assert plan.hits("scipy.solve") == plan.hits("session.solve") == 1
            with pytest.raises(faults.InjectedFault):
                session.solve()  # the second hit
        assert [r.objective for r in results] == pytest.approx([1.0, 1.0, 0.0, 1.0])


# -- mid-computation salvage in the objective / leaf fan-outs -----------------


class TestFanoutSalvage:
    @staticmethod
    def _encoded(layers):
        from repro.encoding.single import encode_single_network

        enc = encode_single_network(layers, Box.uniform(3, 0.0, 1.0))
        objectives = []
        for handle in enc.output:
            expr = handle.to_expr() if not hasattr(handle, "coeffs") else handle
            objectives.extend([(expr, "min"), (expr, "max")])
        return enc, objectives

    @pytest.mark.parametrize("action", ["raise", "crash"])
    def test_parallel_solve_many_resolves_per_chunk(
        self, layers, action, monkeypatch
    ):
        enc, objectives = self._encoded(layers)
        serial = enc.model.solve_many(objectives)
        chunk_sizes = []
        real_solve_many = type(enc.model).solve_many

        def counting(self, objs, **kwargs):
            chunk_sizes.append(len(list(objs)))
            return real_solve_many(self, objs, **kwargs)

        monkeypatch.setattr(type(enc.model), "solve_many", counting)
        with faults.injected(faults.FaultPlan.parse(f"solve.chunk:{action}")):
            fanned = parallel_solve_many(
                enc.model, objectives, max_workers=2
            )
        assert len(fanned) == len(serial)
        for got, want in zip(fanned, serial):
            assert got.status == want.status
            assert got.objective == pytest.approx(want.objective, abs=1e-9)
        # Both workers failed their (only) chunk, so the parent re-solved
        # chunk by chunk — never the whole objective list at once.
        assert chunk_sizes == [2, 2]

    @staticmethod
    def _two_leaf_setting():
        """A net/δ/ε setting that provably reaches 2 MILP leaves at depth 1.

        Root and children stay undecided by bounds; ε sits above the
        exact value, so the fault-free verdict is "certified".  Returns
        ``(layers, domain, center, delta, epsilon, exact certificate)``.
        """
        from repro.bounds import SymbolicPropagator
        from repro.certify import certify_local_exact
        from repro.certify.presolve import perturbation_ball, variation_from_reference
        from repro.nn.affine import affine_chain_forward

        rng = np.random.default_rng(11)
        dims = [3, 5, 5, 2]
        layers = [
            AffineLayer(
                1.5 * rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
                0.2 * rng.standard_normal(dims[i + 1]),
                relu=i < 2,
            )
            for i in range(3)
        ]
        domain = Box.uniform(3, 0.0, 1.0)
        center = np.array([0.4, 0.6, 0.5])
        delta = 0.1
        exact = certify_local_exact(layers, center, delta, domain=domain)
        ball = perturbation_ball(center, delta, domain)
        bounds = SymbolicPropagator().propagate(layers, ball)
        root_ub = float(variation_from_reference(
            bounds.output.lo, bounds.output.hi,
            affine_chain_forward(layers, center),
        ).max())
        epsilon = 0.5 * (exact.epsilon + root_ub)
        return layers, domain, center, delta, epsilon, exact

    def test_split_leaf_salvage_matches_fault_free(self):
        from repro.certify import SplitConfig, certify_local_split

        layers, domain, center, delta, epsilon, _ = self._two_leaf_setting()
        fault_free = certify_local_split(
            layers, center, delta, epsilon, domain=domain,
            config=SplitConfig(max_depth=1, seed=7),
        )
        assert fault_free.detail["milp_leaves"] == 2
        plan = faults.FaultPlan.parse("split.leaf:raise")
        with faults.injected(plan):
            chaotic = certify_local_split(
                layers, center, delta, epsilon, domain=domain,
                config=SplitConfig(max_depth=1, seed=7, leaf_workers=2),
            )
        # Every worker's first leaf failed; the serial sweep re-solved
        # them inline (one transient retry each) — same verdict, same ε.
        assert plan.hits("split.leaf") >= 2
        assert chaotic.verdict == fault_free.verdict == "certified"
        assert np.allclose(chaotic.epsilons, fault_free.epsilons)

    def test_split_hung_leaf_worker_is_reaped(self):
        """A pooled leaf hung past the shared deadline is killed, not awaited.

        Each worker's first leaf hangs for 4 s, twice the query's whole
        1 s budget; the watchdog reaps both once the deadline (plus the
        per-solve floor's slack) has passed, and the reaped leaves stay
        undecided, which keeps the verdict sound.
        """
        from repro.certify import SplitConfig, certify_local_split

        layers, domain, center, delta, epsilon, exact = self._two_leaf_setting()
        config = SplitConfig(max_depth=1, seed=7, leaf_workers=2, time_limit=1.0)
        with faults.injected(faults.FaultPlan.parse("split.leaf:hang=4")):
            t0 = time.perf_counter()
            cert = certify_local_split(
                layers, center, delta, epsilon, domain=domain, config=config
            )
            elapsed = time.perf_counter() - t0
        assert elapsed < 3.0  # the 4 s hangs never ran to completion
        assert cert.verdict == "undecided" and not cert.exact
        assert cert.detail["undecided"] >= 1
        assert np.isfinite(cert.epsilons).all()
        assert (cert.epsilons >= exact.epsilons - 1e-9).all()


def _square_or_fail(x: int) -> int:
    """A fan-out task: permanent failure below 0, transient failure at 0."""
    if x < 0:
        raise ValueError(f"negative payload {x}")
    if x == 0:
        raise ConnectionResetError("payload zero")
    return x * x


def _worker_pid(_payload) -> int:
    """A fan-out task: the pid of the process that ran it."""
    return os.getpid()


def _comparable(outcome):
    """An outcome's fields, minus wall time and exception identity."""
    exc = outcome.exc
    return (
        outcome.value, outcome.error, outcome.lost, outcome.attempts,
        None if exc is None else (type(exc), exc.args),
    )


class TestFanOut:
    @given(st.lists(st.integers(-2, 4), min_size=1, max_size=6))
    @settings(max_examples=8, deadline=None)
    def test_pool_matches_inline(self, payloads):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        inline = batch_mod.fan_out(_square_or_fail, payloads, 1, policy)
        pooled = batch_mod.fan_out(_square_or_fail, payloads, 2, policy)
        assert [_comparable(o) for o in pooled] == [_comparable(o) for o in inline]
        for x, outcome in zip(payloads, inline):
            if x > 0:
                assert outcome.value == x * x and outcome.attempts == 1
            elif x == 0:
                assert outcome.lost == "builtins.ConnectionResetError"
                assert outcome.attempts == 2
            else:
                assert isinstance(outcome.exc, ValueError)
                assert outcome.error["error_type"] == "builtins.ValueError"

    def test_fault_plan_forks_fresh_workers_per_call(self):
        """Under a fault plan no pool is reused: each call's workers
        replay the plan from hit 1."""
        policy = RetryPolicy(base_delay=0.0)
        faults.install(faults.FaultPlan.parse("batch.worker:raise@1"))
        calls = [
            {o.value for o in batch_mod.fan_out(_worker_pid, range(4), 2, policy)}
            for _ in range(2)
        ]
        assert all(calls)
        assert not calls[0] & calls[1]
        assert batch_mod._POOL is None


# -- the acceptance chaos property --------------------------------------------


class TestChaosBatch:
    def test_mixed_batch_under_random_faults_is_sound(self, layers):
        """64 queries under a randomized crash/hang/raise schedule.

        Every result must come back, in order, and be either
        bit-identical to the fault-free run or soundly degraded:
        ``degraded=True``, ``verdict="undecided"``, finite bounds that
        contain the fault-free (exact, hence minimal) bounds.
        """
        rng = np.random.default_rng(2026)
        domain = Box.uniform(3, 0.0, 1.0)

        def queries():
            locals_ = local_queries(
                layers, rng_centers, 0.05, method="exact", domain=domain
            )
            globals_ = [
                global_query(layers, domain, 0.05, exact=True, tag=f"g[{k}]")
                for k in range(4)
            ]
            return locals_ + globals_

        rng_centers = rng.uniform(0.0, 1.0, size=(60, 3))
        baseline = BatchCertifier(max_workers=4).run(queries())
        plan = faults.FaultPlan.random(
            seed=11,
            rate=0.08,
            points=("batch.worker",),
            actions=("raise", "crash", "hang"),
            hang_seconds=0.1,
            specs=(faults.FaultSpec("scipy.solve", "raise", nth=5),),
        )
        engine = BatchCertifier(
            max_workers=4,
            retry=RetryPolicy(max_attempts=4, base_delay=0.001),
        )
        with faults.injected(plan):
            results = engine.run(queries())
        assert [r.index for r in results] == list(range(64))
        degraded = 0
        for got, want in zip(results, baseline):
            assert got.ok, got.error
            assert got.tag == want.tag
            if got.degraded:
                degraded += 1
                cert = got.certificate
                assert cert.verdict == "undecided"
                assert cert.method == "degraded"
                assert np.isfinite(cert.epsilons).all()
                assert (cert.epsilons >= want.certificate.epsilons - 1e-9).all()
            else:
                assert np.array_equal(
                    got.certificate.epsilons, want.certificate.epsilons
                )
        # The accounting invariant: every degraded answer was counted.
        assert engine.fault_stats["degraded"] == degraded
