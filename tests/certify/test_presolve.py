"""Presolve tier: verdict soundness and agreement with the MILP answers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import Box, get_propagator
from repro.certify import (
    certify_exact_global,
    certify_local_exact,
    presolve_global,
    presolve_global_many,
    presolve_local,
    presolve_local_many,
    presolve_many,
)
from repro.certify.presolve import _replay_attack, perturbation_ball
from repro.nn.affine import AffineLayer, affine_chain_forward


def random_chain(rng, depth=2, width=5, in_dim=3, out_dim=2, scale=1.5):
    dims = [in_dim] + [width] * (depth - 1) + [out_dim]
    return [
        AffineLayer(
            scale * rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
            0.2 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


@pytest.fixture(scope="module")
def setting():
    rng = np.random.default_rng(0)
    layers = random_chain(rng, depth=3)
    domain = Box.uniform(3, 0.0, 1.0)
    center = np.array([0.4, 0.6, 0.5])
    delta = 0.05
    return layers, domain, center, delta


class TestPresolveLocal:
    def test_generous_epsilon_certified(self, setting):
        layers, domain, center, delta = setting
        cert = presolve_local(layers, center, delta, epsilon=1e6, domain=domain)
        assert cert is not None
        assert cert.method == "presolve"
        assert cert.detail["verdict"] == "certified"
        assert not cert.exact
        assert cert.epsilon <= 1e6

    def test_tiny_epsilon_refuted(self, setting):
        layers, domain, center, delta = setting
        cert = presolve_local(layers, center, delta, epsilon=1e-12, domain=domain)
        assert cert is not None
        assert cert.detail["verdict"] == "refuted"
        # Refuted epsilons are attack lower bounds and must beat the target.
        assert cert.epsilon > 1e-12

    def test_undecidable_epsilon_returns_none(self):
        # Seed 19 is a net where the symbolic ball bound is measurably
        # looser than the exact optimum, leaving an undecided ε window.
        layers = random_chain(np.random.default_rng(19), depth=3)
        domain = Box.uniform(3, 0.0, 1.0)
        center = np.array([0.4, 0.6, 0.5])
        delta = 0.05
        exact = certify_local_exact(layers, center, delta, domain=domain)
        ball = perturbation_ball(center, delta, domain)
        bounds = get_propagator("symbolic").propagate(layers, ball)
        base = affine_chain_forward(layers, center)
        ub = float(
            np.max(
                np.maximum(
                    np.abs(bounds.output.hi - base), np.abs(base - bounds.output.lo)
                )
            )
        )
        if ub <= exact.epsilon + 1e-9:
            pytest.skip("symbolic bound tight on this net: no undecided window")
        epsilon = 0.5 * (exact.epsilon + ub)
        # bound cannot prove (ub > epsilon); attack cannot refute
        # (true epsilon < epsilon) — the tier must pass.
        assert presolve_local(layers, center, delta, epsilon, domain=domain) is None

    def test_verdicts_agree_with_milp(self):
        """Property (c): presolve answers match the exact MILP answers."""
        rng = np.random.default_rng(1)
        checked = 0
        for trial in range(8):
            layers = random_chain(rng, depth=int(rng.integers(2, 4)))
            domain = Box.uniform(3, 0.0, 1.0)
            center = domain.sample(rng)[0]
            delta = 0.08
            exact = certify_local_exact(layers, center, delta, domain=domain)
            for factor in (0.25, 0.9, 1.1, 4.0):
                epsilon = max(exact.epsilon * factor, 1e-9)
                cert = presolve_local(layers, center, delta, epsilon, domain=domain)
                if cert is None:
                    continue
                checked += 1
                if cert.detail["verdict"] == "certified":
                    assert exact.epsilon <= epsilon + 1e-7
                else:
                    assert exact.epsilon > epsilon - 1e-7
        assert checked > 0


class TestPresolveGlobal:
    def test_generous_epsilon_certified(self, setting):
        layers, domain, _, delta = setting
        cert = presolve_global(layers, domain, delta, epsilon=1e6)
        assert cert is not None
        assert cert.method == "presolve"
        assert cert.detail["verdict"] == "certified"

    def test_tiny_epsilon_refuted(self, setting):
        layers, domain, _, delta = setting
        cert = presolve_global(layers, domain, delta, epsilon=1e-12)
        assert cert is not None
        assert cert.detail["verdict"] == "refuted"

    def test_verdicts_agree_with_exact_milp(self):
        rng = np.random.default_rng(2)
        checked = 0
        for trial in range(4):
            layers = random_chain(rng, depth=2, width=4)
            domain = Box.uniform(3, 0.0, 1.0)
            delta = 0.05
            exact = certify_exact_global(layers, domain, delta)
            assert exact.exact
            for factor in (0.3, 0.95, 1.05, 3.0):
                epsilon = max(exact.epsilon * factor, 1e-9)
                cert = presolve_global(layers, domain, delta, epsilon)
                if cert is None:
                    continue
                checked += 1
                if cert.detail["verdict"] == "certified":
                    assert exact.epsilon <= epsilon + 1e-7
                else:
                    assert exact.epsilon > epsilon - 1e-7
        assert checked > 0

    def test_certified_bound_dominates_attack(self, setting):
        """The proving and refuting sides must never cross."""
        layers, domain, _, delta = setting
        certified = presolve_global(layers, domain, delta, epsilon=1e6)
        refuted = presolve_global(layers, domain, delta, epsilon=1e-12)
        assert refuted.epsilon <= certified.epsilon + 1e-9


class TestPresolveManyParity:
    """Batched presolve is *bit-identical* to the per-query scalar tier.

    The contract (and what makes the bulk prefilter in
    ``repro.runtime.batch`` sound): entry ``q`` of a ``*_many`` result —
    verdict, ``epsilons`` array, output box, ``None`` fallthrough — must
    equal the scalar call on query ``q`` exactly, not approximately.
    """

    @staticmethod
    def assert_local_rows_match(layers, centers, deltas, epsilons, domain):
        batched = presolve_local_many(
            layers, centers, deltas, epsilons, domain=domain
        )
        for q in range(len(centers)):
            scalar = presolve_local(
                layers, centers[q], float(deltas[q]), float(epsilons[q]),
                domain=domain,
            )
            if scalar is None:
                assert batched[q] is None
                continue
            cert = batched[q]
            assert cert is not None
            assert cert.detail["verdict"] == scalar.detail["verdict"]
            np.testing.assert_array_equal(cert.epsilons, scalar.epsilons)
            np.testing.assert_array_equal(cert.output_lo, scalar.output_lo)
            np.testing.assert_array_equal(cert.output_hi, scalar.output_hi)
            assert cert.epsilon == scalar.epsilon

    @given(seed=st.integers(0, 2**20), queries=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_local_rows_match_scalar(self, seed, queries):
        rng = np.random.default_rng(seed)
        layers = random_chain(rng, depth=3)
        domain = Box.uniform(3, 0.0, 1.0)
        centers = domain.sample(rng, queries)
        deltas = rng.uniform(0.01, 0.15, size=queries)
        # Epsilon spread engineered to hit all three verdicts: tiny
        # (refuted), huge (certified), and near the bound (None window).
        ladder = np.array([1e-9, 1e6, 0.05, 0.3, 1.0, 3.0])
        epsilons = ladder[rng.integers(0, len(ladder), size=queries)]
        self.assert_local_rows_match(layers, centers, deltas, epsilons, domain)

    @given(seed=st.integers(0, 2**20), queries=st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_global_rows_match_scalar(self, seed, queries):
        rng = np.random.default_rng(seed)
        layers = random_chain(rng, depth=3)
        domain = Box.uniform(3, 0.0, 1.0)
        deltas = rng.uniform(0.01, 0.15, size=queries)
        ladder = np.array([1e-9, 1e6, 0.05, 0.3, 1.0, 3.0])
        epsilons = ladder[rng.integers(0, len(ladder), size=queries)]
        batched = presolve_global_many(layers, domain, deltas, epsilons)
        for q in range(queries):
            scalar = presolve_global(
                layers, domain, float(deltas[q]), float(epsilons[q])
            )
            if scalar is None:
                assert batched[q] is None
                continue
            cert = batched[q]
            assert cert is not None
            assert cert.detail["verdict"] == scalar.detail["verdict"]
            np.testing.assert_array_equal(cert.epsilons, scalar.epsilons)
            assert cert.epsilon == scalar.epsilon

    def test_none_fallthrough_row_matches(self):
        # Seed 19 (see test_undecidable_epsilon_returns_none) leaves an
        # undecided ε window; that None must survive batching verbatim
        # while neighbouring decided rows still get certificates.
        layers = random_chain(np.random.default_rng(19), depth=3)
        domain = Box.uniform(3, 0.0, 1.0)
        center = np.array([0.4, 0.6, 0.5])
        delta = 0.05
        exact = certify_local_exact(layers, center, delta, domain=domain)
        ball = perturbation_ball(center, delta, domain)
        bounds = get_propagator("symbolic").propagate(layers, ball)
        base = affine_chain_forward(layers, center)
        ub = float(
            np.max(
                np.maximum(
                    np.abs(bounds.output.hi - base), np.abs(base - bounds.output.lo)
                )
            )
        )
        if ub <= exact.epsilon + 1e-9:
            pytest.skip("symbolic bound tight on this net: no undecided window")
        undecided_eps = 0.5 * (exact.epsilon + ub)
        centers = np.stack([center, center, center])
        deltas = np.full(3, delta)
        epsilons = np.array([1e6, undecided_eps, 1e-12])
        batched = presolve_local_many(
            layers, centers, deltas, epsilons, domain=domain
        )
        assert batched[0] is not None
        assert batched[0].detail["verdict"] == "certified"
        assert batched[1] is None
        assert batched[2] is not None
        assert batched[2].detail["verdict"] == "refuted"

    def test_parity_holds_with_zero_attack_samples(self):
        rng = np.random.default_rng(5)
        layers = random_chain(rng, depth=3)
        domain = Box.uniform(3, 0.0, 1.0)
        centers = domain.sample(rng, 4)
        deltas = np.full(4, 0.05)
        epsilons = np.array([1e-9, 1e6, 0.2, 1.0])
        batched = presolve_local_many(
            layers, centers, deltas, epsilons, domain=domain, attack_samples=0
        )
        for q in range(4):
            scalar = presolve_local(
                layers, centers[q], 0.05, float(epsilons[q]),
                domain=domain, attack_samples=0,
            )
            if scalar is None:
                assert batched[q] is None
            else:
                assert batched[q].detail["verdict"] == scalar.detail["verdict"]
                np.testing.assert_array_equal(batched[q].epsilons, scalar.epsilons)

    def test_parity_survives_forced_attack_chunking(self, monkeypatch):
        # Shrink the chunk budget so the attack runs one row at a time —
        # chunk boundaries must not change a single verdict.
        from repro.certify import presolve as presolve_mod

        rng = np.random.default_rng(6)
        layers = random_chain(rng, depth=3)
        domain = Box.uniform(3, 0.0, 1.0)
        centers = domain.sample(rng, 5)
        deltas = rng.uniform(0.02, 0.1, size=5)
        epsilons = np.array([1e-9, 1e-9, 1e6, 0.1, 0.5])
        unchunked = presolve_local_many(
            layers, centers, deltas, epsilons, domain=domain
        )
        monkeypatch.setattr(presolve_mod, "_ATTACK_CHUNK_ELEMS", 10)
        chunked = presolve_local_many(
            layers, centers, deltas, epsilons, domain=domain
        )
        for a, b in zip(unchunked, chunked):
            if a is None:
                assert b is None
            else:
                assert a.detail["verdict"] == b.detail["verdict"]
                np.testing.assert_array_equal(a.epsilons, b.epsilons)
        self.assert_local_rows_match(layers, centers, deltas, epsilons, domain)

    def test_dispatcher_routes_and_validates(self, setting):
        layers, domain, center, delta = setting
        local = presolve_many(
            layers, "local", centers=np.stack([center]),
            deltas=np.array([delta]), epsilons=np.array([1e6]), domain=domain,
        )
        assert local[0] is not None and local[0].detail["verdict"] == "certified"
        global_ = presolve_many(
            layers, "global", domain=domain,
            deltas=np.array([delta]), epsilons=np.array([1e6]),
        )
        assert global_[0] is not None
        with pytest.raises(ValueError, match="centers"):
            presolve_many(
                layers, "local", deltas=np.array([delta]),
                epsilons=np.array([1e6]),
            )
        with pytest.raises(ValueError, match="domain"):
            presolve_many(
                layers, "global", deltas=np.array([delta]),
                epsilons=np.array([1e6]),
            )
        with pytest.raises(ValueError, match="kind"):
            presolve_many(
                layers, "spectral", centers=np.stack([center]),
                deltas=np.array([delta]), epsilons=np.array([1e6]),
            )

    def test_scalar_deltas_and_epsilons_broadcast(self, setting):
        layers, domain, center, delta = setting
        centers = np.stack([center, center + 0.01])
        broadcast = presolve_local_many(
            layers, centers, delta, 1e6, domain=domain
        )
        explicit = presolve_local_many(
            layers, centers, np.full(2, delta), np.full(2, 1e6), domain=domain
        )
        for a, b in zip(broadcast, explicit):
            assert a is not None and b is not None
            np.testing.assert_array_equal(a.epsilons, b.epsilons)


def replay_loop(witness, epsilon):
    """The sequential attack loop: running max, stop at the first hit."""
    eps_lb = np.zeros(witness.shape[-1])
    for row in witness:
        eps_lb = np.maximum(eps_lb, row)
        if eps_lb.max() > epsilon:
            return eps_lb
    return None


@given(seed=st.integers(0, 2**20), starts=st.integers(0, 6))
@settings(max_examples=50, deadline=None)
def test_replay_attack_matches_sequential_loop(seed, starts):
    rng = np.random.default_rng(seed)
    # Coarse values so ties and ε == a witness value both occur.
    witness = rng.integers(0, 5, size=(starts, 3)) / 4.0
    for epsilon in (0.0, 0.5, 0.75, 1.0):
        expected = replay_loop(witness, epsilon)
        got = _replay_attack(witness, epsilon)
        if expected is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, expected)
