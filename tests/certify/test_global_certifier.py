"""Algorithm 1 behaviour on random and trained networks."""

import numpy as np
import pytest

from repro.bounds import Box, SymbolicPropagator
from repro.certify import (
    CertifierConfig,
    GlobalRobustnessCertifier,
    certify_exact_global,
    pgd_underapproximation,
)
from repro.nn import Dense, Network
from repro.nn.affine import AffineLayer, affine_chain_forward


def random_chain(rng, depth=3, width=4, in_dim=3, out_dim=2):
    dims = [in_dim] + [width] * (depth - 1) + [out_dim]
    return [
        AffineLayer(
            rng.standard_normal((dims[i + 1], dims[i])),
            0.2 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


@pytest.fixture(scope="module")
def small_net():
    rng = np.random.default_rng(42)
    return random_chain(rng, depth=3, width=4)


class TestSoundness:
    def test_dominates_exact(self, small_net):
        box = Box.uniform(3, -1, 1)
        delta = 0.05
        exact = certify_exact_global(small_net, box, delta)
        for window, refine in [(1, 0), (2, 0), (2, 4), (3, 100)]:
            cfg = CertifierConfig(window=window, refine_count=refine)
            ours = GlobalRobustnessCertifier(small_net, cfg).certify(box, delta)
            assert np.all(ours.epsilons >= exact.epsilons - 1e-7), (
                f"W={window} r={refine} produced an unsound bound"
            )

    def test_dominates_sampling(self, small_net):
        rng = np.random.default_rng(0)
        box = Box.uniform(3, -1, 1)
        delta = 0.05
        cfg = CertifierConfig(window=2, refine_count=0)
        cert = GlobalRobustnessCertifier(small_net, cfg).certify(box, delta)
        worst = np.zeros(2)
        for _ in range(500):
            x = box.sample(rng)[0]
            xh = np.clip(x + rng.uniform(-delta, delta, 3), box.lo, box.hi)
            d = np.abs(
                affine_chain_forward(small_net, xh)
                - affine_chain_forward(small_net, x)
            )
            worst = np.maximum(worst, d)
        assert np.all(cert.epsilons >= worst - 1e-9)

    def test_dominates_pgd(self):
        rng = np.random.default_rng(1)
        net = Network(
            (3,), [Dense(3, 5, relu=True, rng=rng), Dense(5, 1, rng=rng)]
        )
        box = Box.uniform(3, 0, 1)
        delta = 0.05
        cfg = CertifierConfig(window=2, refine_count=0)
        cert = GlobalRobustnessCertifier(net, cfg).certify(box, delta)
        dataset = box.sample(rng, 20)
        under = pgd_underapproximation(
            net, dataset, delta, steps=20, clip_lo=0.0, clip_hi=1.0
        )
        assert cert.epsilon >= under.epsilon - 1e-9
        assert under.method == "pgd-under"


def seeded_chain(seed, dims=(3, 8, 8, 1)):
    """A ReLU chain with weights N(0, 1)/√n and biases 0.1·N(0, 1)."""
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(dims) - 1):
        weight = rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i])
        bias = 0.1 * rng.standard_normal(dims[i + 1])
        layers.append(AffineLayer(weight, bias, relu=i < len(dims) - 2))
    return layers


class TestMonotonicity:
    @pytest.mark.parametrize("seed", range(6))
    def test_never_looser_than_its_seed(self, seed):
        """Algorithm 1 only tightens the symbolic range table it starts from."""
        layers = seeded_chain(seed)
        box = Box.uniform(3, 0, 1)
        delta = 0.05
        cert = GlobalRobustnessCertifier(
            layers, CertifierConfig(window=2, refine_count=0)
        ).certify(box, delta)
        seed_eps = SymbolicPropagator().propagate(layers, box, delta)
        assert np.all(cert.epsilons <= seed_eps.output_variation_bounds() + 1e-9)

    def test_unrefined_lps_beat_the_seed(self):
        """At r=0 the ITNE LPs can be much tighter than the symbolic seed.

        On this depth-4 chain they cut ε̄ from [1.31405, 1.70919] to
        [0.75906, 1.31392], so skipping the r=0 LPs is not
        tightness-preserving (20 of 144 random chains, up to 42%).
        """
        layers = random_chain(
            np.random.default_rng(4041), depth=4, width=4, in_dim=3, out_dim=2
        )
        box = Box.uniform(3, -1, 1)
        seed_eps = SymbolicPropagator().propagate(
            layers, box, 0.05
        ).output_variation_bounds()
        np.testing.assert_allclose(seed_eps, [1.31405, 1.70919], atol=1e-5)
        cert = GlobalRobustnessCertifier(
            layers, CertifierConfig(window=2, refine_count=0)
        ).certify(box, 0.05)
        np.testing.assert_allclose(cert.epsilons, [0.75906, 1.31392], atol=1e-5)

    def test_epsilon_monotone_in_delta(self, small_net):
        box = Box.uniform(3, -1, 1)
        cfg = CertifierConfig(window=2, refine_count=0)
        eps = [
            GlobalRobustnessCertifier(small_net, cfg).certify(box, d).epsilon
            for d in (0.01, 0.05, 0.1)
        ]
        assert eps[0] <= eps[1] + 1e-9 <= eps[2] + 2e-9

    def test_refinement_tightens(self, small_net):
        box = Box.uniform(3, -1, 1)
        delta = 0.05
        loose = GlobalRobustnessCertifier(
            small_net, CertifierConfig(window=2, refine_count=0)
        ).certify(box, delta)
        tight = GlobalRobustnessCertifier(
            small_net, CertifierConfig(window=2, refine_count=8)
        ).certify(box, delta)
        assert tight.epsilon <= loose.epsilon + 1e-9

    def test_window_tightens(self, small_net):
        box = Box.uniform(3, -1, 1)
        delta = 0.05
        w1 = GlobalRobustnessCertifier(
            small_net, CertifierConfig(window=1, refine_count=100)
        ).certify(box, delta)
        w3 = GlobalRobustnessCertifier(
            small_net, CertifierConfig(window=3, refine_count=100)
        ).certify(box, delta)
        assert w3.epsilon <= w1.epsilon + 1e-9

    def test_full_window_full_refine_is_exact(self, small_net):
        box = Box.uniform(3, -1, 1)
        delta = 0.05
        exact = certify_exact_global(small_net, box, delta)
        ours = GlobalRobustnessCertifier(
            small_net, CertifierConfig(window=3, refine_count=10**6)
        ).certify(box, delta)
        assert ours.epsilons == pytest.approx(exact.epsilons, abs=1e-5)


class TestBookkeeping:
    def test_certificate_fields(self, small_net):
        box = Box.uniform(3, -1, 1)
        cfg = CertifierConfig(window=2, refine_count=0)
        cert = GlobalRobustnessCertifier(small_net, cfg).certify(box, 0.05)
        assert cert.method.startswith("itne-nd-lpr")
        assert not cert.exact
        assert cert.lp_count > 0
        assert cert.milp_count == 0
        assert cert.solve_time > 0
        assert "ε" in cert.summary() or "eps" in cert.summary() or cert.summary()

    def test_refined_counts_milps(self, small_net):
        box = Box.uniform(3, -1, 1)
        cfg = CertifierConfig(window=2, refine_count=4)
        cert = GlobalRobustnessCertifier(small_net, cfg).certify(box, 0.05)
        assert cert.milp_count > 0

    def test_accepts_network_object(self):
        rng = np.random.default_rng(2)
        net = Network((2,), [Dense(2, 3, relu=True, rng=rng), Dense(3, 1, rng=rng)])
        cert = GlobalRobustnessCertifier(
            net, CertifierConfig(window=1, refine_count=0)
        ).certify(Box.uniform(2, 0, 1), 0.01)
        assert cert.epsilon >= 0

    def test_per_output_epsilons(self, small_net):
        box = Box.uniform(3, -1, 1)
        cert = GlobalRobustnessCertifier(
            small_net, CertifierConfig(window=2, refine_count=0)
        ).certify(box, 0.05)
        assert cert.epsilons.shape == (2,)
        assert cert.epsilon == pytest.approx(cert.epsilons.max())


class TestConfigValidation:
    @pytest.mark.parametrize(
        "knobs,name",
        [
            ({"window": 0}, "window"),
            ({"window": -3}, "window"),
            ({"refine_count": -2}, "refine_count"),
        ],
    )
    def test_out_of_range_knob_rejected(self, knobs, name):
        # decompose() would clamp these silently while the certificate
        # recorded the value as given.
        with pytest.raises(ValueError, match=name):
            CertifierConfig(**knobs)
