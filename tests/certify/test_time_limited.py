"""Soundness of certification under resource limits.

The paper's premise (Algorithm 1): a timed-out MILP still contributes a
sound bound.  ``certify_exact_global`` must therefore never raise under
a time limit, never use a limited incumbent objective on the bounding
side, and flag the certificate as non-exact when any solve was cut off.
"""

import math

import numpy as np
import pytest

from repro.bounds import Box, get_propagator
from repro.certify import certify_exact_global
from repro.certify.splitting import _Leaf, _solve_global_leaf, _solve_local_leaf
from repro.milp.solution import SolveResult, SolveStatus
from repro.nn.affine import AffineLayer, affine_chain_forward
from repro.runtime import BatchCertifier, global_query


def hard_chain(rng, width=24, depth=3, in_dim=6):
    """A network with enough unstable neurons that tiny limits bite."""
    dims = [in_dim] + [width] * (depth - 1) + [1]
    return [
        AffineLayer(
            rng.standard_normal((dims[i + 1], dims[i])),
            0.05 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


@pytest.fixture(scope="module")
def hard():
    return hard_chain(np.random.default_rng(0))


@pytest.fixture(scope="module")
def domain():
    return Box.uniform(6, 0.0, 1.0)


class TestSoundBound:
    def test_prefers_dual_bound(self):
        r = SolveResult(
            status=SolveStatus.TIME_LIMIT, objective=1.0, bound=2.5
        )
        assert r.sound_bound() == 2.5

    def test_optimal_objective_fallback(self):
        r = SolveResult(status=SolveStatus.OPTIMAL, objective=1.25)
        assert r.sound_bound() == 1.25

    def test_limited_incumbent_is_never_a_bound(self):
        # The crux of the bug: a time-limited solve with only a primal
        # incumbent must yield None, not the (unsound) incumbent.
        r = SolveResult(status=SolveStatus.TIME_LIMIT, objective=1.0)
        assert r.sound_bound() is None

    def test_error_status(self):
        r = SolveResult(status=SolveStatus.ERROR)
        assert r.sound_bound() is None


class TestTimeLimitedExactGlobal:
    def test_tiny_limit_returns_finite_sound_eps(self, hard, domain):
        rng = np.random.default_rng(7)
        delta = 0.02
        cert = certify_exact_global(hard, domain, delta, time_limit=0.01)
        assert np.all(np.isfinite(cert.epsilons))
        assert not cert.exact
        assert cert.detail["limit_hits"] > 0
        # Soundness: any sampled twin evaluation must respect eps.
        for _ in range(200):
            x = domain.sample(rng)[0]
            xh = np.clip(x + rng.uniform(-delta, delta, 6), domain.lo, domain.hi)
            dist = abs(
                affine_chain_forward(hard, xh)[0] - affine_chain_forward(hard, x)[0]
            )
            assert dist <= cert.epsilons[0] + 1e-7

    def test_limited_never_tighter_than_exact(self, domain):
        # Small enough to solve exactly; the limited run may or may not
        # hit its limit, but must never certify a tighter epsilon.
        layers = hard_chain(np.random.default_rng(3), width=6, depth=2)
        delta = 0.02
        exact = certify_exact_global(layers, domain, delta)
        assert exact.exact
        limited = certify_exact_global(layers, domain, delta, time_limit=0.005)
        assert limited.epsilons[0] >= exact.epsilons[0] - 1e-7

    def test_btne_limited(self, hard, domain):
        cert = certify_exact_global(
            hard, domain, 0.02, encoding="btne", time_limit=0.01
        )
        assert np.all(np.isfinite(cert.epsilons))

    def test_non_limit_failure_still_raises(self, domain, monkeypatch):
        # Only resource-limit statuses may fall back to a bound; a
        # genuine solver failure must not be masked as a limit hit.
        layers = hard_chain(np.random.default_rng(2), width=4, depth=2)

        def broken_solve_many(model, objectives, time_limit=None):
            return [
                SolveResult(status=SolveStatus.ERROR, message="boom")
                for _ in objectives
            ]

        monkeypatch.setattr(
            "repro.milp.model.Model.solve_many", broken_solve_many
        )
        with pytest.raises(RuntimeError, match="status=error"):
            certify_exact_global(layers, domain, 0.02, time_limit=0.01)

    def test_failure_names_the_network_output(self, domain, monkeypatch):
        layers = hard_chain(np.random.default_rng(2), width=4, depth=2)
        layers[-1] = AffineLayer(np.ones((3, 4)), np.zeros(3), relu=False)

        def broken_solve_many(model, objectives, time_limit=None):
            return [SolveResult(status=SolveStatus.ERROR) for _ in objectives]

        monkeypatch.setattr("repro.milp.model.Model.solve_many", broken_solve_many)
        with pytest.raises(RuntimeError, match="on output 2: status=error"):
            certify_exact_global(layers, domain, 0.02, outputs=[2])

    def test_unlimited_stays_exact(self, domain):
        small = hard_chain(np.random.default_rng(1), width=4, depth=2)
        cert = certify_exact_global(small, domain, 0.05)
        assert cert.exact
        assert cert.detail["limit_hits"] == 0


def fake_solve_many(make):
    """A ``Model.solve_many`` answering objective ``k`` with ``make(k, sense)``."""

    def solve_many(model, objectives, time_limit=None):
        return [make(k, sense) for k, (_, sense) in enumerate(objectives)]

    return solve_many


class TestSplitLeafLimits:
    """The split leaves share the exact certifier's limit policy."""

    @pytest.fixture(scope="class")
    def small(self):
        return hard_chain(np.random.default_rng(2), width=4, depth=2)

    def local_leaf(self, layers, box):
        bounds = get_propagator("symbolic").propagate(layers, box)
        return _Leaf(box, bounds, np.zeros(1), depth=0)

    def global_leaf(self, layers, box, delta):
        bounds = get_propagator("symbolic").propagate(layers, box, delta)
        return _Leaf(box, bounds, np.zeros(1), depth=0)

    def test_error_from_local_leaf_raises(self, small, domain, monkeypatch):
        leaf = self.local_leaf(small, domain)
        monkeypatch.setattr(
            "repro.milp.model.Model.solve_many",
            fake_solve_many(lambda k, s: SolveResult(SolveStatus.ERROR, message="boom")),
        )
        with pytest.raises(RuntimeError, match="status=error"):
            _solve_local_leaf(small, leaf, np.zeros(1), None)

    def test_error_from_global_leaf_raises(self, small, domain, monkeypatch):
        leaf = self.global_leaf(small, domain, 0.02)
        monkeypatch.setattr(
            "repro.milp.model.Model.solve_many",
            fake_solve_many(lambda k, s: SolveResult(SolveStatus.ERROR, message="boom")),
        )
        with pytest.raises(RuntimeError, match="status=error"):
            _solve_global_leaf(small, leaf, 0.02, domain, None)

    def test_local_limit_falls_back_to_bound_within_interval(
        self, small, domain, monkeypatch
    ):
        leaf = self.local_leaf(small, domain)
        interval = leaf.bounds.output
        width = float(interval.hi[0] - interval.lo[0])
        tighter_lo = float(interval.lo[0]) + 0.25 * width

        def make(k, sense):
            # min: a dual bound inside the interval; max: no bound at all.
            bound = tighter_lo if sense == "min" else math.nan
            return SolveResult(SolveStatus.TIME_LIMIT, objective=0.0, bound=bound)

        monkeypatch.setattr("repro.milp.model.Model.solve_many", fake_solve_many(make))
        base = affine_chain_forward(small, domain.center)
        out = _solve_local_leaf(small, leaf, base, 1.0)
        assert out.out_lo[0] == tighter_lo
        assert out.out_hi[0] == interval.hi[0]
        assert out.limit_hits == 2 and not out.exact
        assert out.witness is None  # a limited incumbent is no witness

    def test_global_limit_falls_back_to_bound_within_interval(
        self, small, domain, monkeypatch
    ):
        leaf = self.global_leaf(small, domain, 0.02)
        interval = leaf.bounds.output_distance
        lo, hi = float(interval.lo[0]), float(interval.hi[0])
        assert lo < 0.0 < hi

        def make(k, sense):
            # Both dual bounds inside the interval, so both are used.
            bound = 0.5 * lo if sense == "min" else 0.25 * hi
            return SolveResult(SolveStatus.TIME_LIMIT, objective=0.0, bound=bound)

        monkeypatch.setattr("repro.milp.model.Model.solve_many", fake_solve_many(make))
        out = _solve_global_leaf(small, leaf, 0.02, domain, 1.0)
        assert out.eps[0] == max(0.5 * abs(lo), 0.25 * hi)
        assert out.limit_hits == 2 and not out.exact


class TestBatchTimeLimits:
    def test_none_means_engine_default(self, hard, domain):
        q = global_query(hard, domain, 0.02)
        assert q.time_limit is None
        assert q.effective_time_limit() == 30.0

    def test_inf_means_unlimited(self, hard, domain):
        q = global_query(hard, domain, 0.02, time_limit=math.inf)
        assert q.effective_time_limit() is None

    def test_explicit_value_passes_through(self, hard, domain):
        q = global_query(hard, domain, 0.02, time_limit=0.25)
        assert q.effective_time_limit() == 0.25

    def test_nonpositive_rejected(self, hard, domain):
        with pytest.raises(ValueError, match="time_limit"):
            global_query(hard, domain, 0.02, time_limit=0.0)
        with pytest.raises(ValueError, match="time_limit"):
            global_query(hard, domain, 0.02, time_limit=-5.0)
        with pytest.raises(ValueError, match="time_limit"):
            # NaN would silently disable the safeguard at the solver.
            global_query(hard, domain, 0.02, time_limit=math.nan)

    def test_global_exact_batch_honors_limit(self, hard, domain):
        q = global_query(hard, domain, 0.02, time_limit=0.01, exact=True)
        results = BatchCertifier(max_workers=1).run([q])
        assert results[0].ok, results[0].error
        cert = results[0].certificate
        assert np.all(np.isfinite(cert.epsilons))
        assert not cert.exact

    def test_global_batch_with_refinement_honors_limit(self, hard, domain):
        # Algorithm 1 with refinement uses MILPs; a tiny limit must not
        # crash the query and the result must still be a certificate.
        q = global_query(
            hard, domain, 0.02, window=2, refine_count=2, time_limit=0.01
        )
        results = BatchCertifier(max_workers=1).run([q])
        assert results[0].ok, results[0].error
        assert np.all(np.isfinite(results[0].certificate.epsilons))
