"""Local robustness, Reluplex-style search, and comparison baselines."""

import numpy as np
import pytest

from repro.bounds import Box
from repro.certify import (
    ReluplexStyleSolver,
    certify_exact_global,
    certify_local_exact,
    certify_local_lpr,
    certify_local_nd,
)
from repro.certify.comparisons import certify_global_btne_lpr, certify_global_btne_nd
from repro.nn.affine import AffineLayer, affine_chain_forward


def random_chain(rng, depth=2, width=3, in_dim=2, out_dim=1):
    dims = [in_dim] + [width] * (depth - 1) + [out_dim]
    return [
        AffineLayer(
            rng.standard_normal((dims[i + 1], dims[i])),
            0.2 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


class TestLocalCertification:
    def test_exact_contains_samples(self):
        rng = np.random.default_rng(0)
        layers = random_chain(rng, depth=3)
        center = rng.uniform(-0.5, 0.5, 2)
        delta = 0.1
        cert = certify_local_exact(layers, center, delta)
        for _ in range(200):
            x = center + rng.uniform(-delta, delta, 2)
            out = affine_chain_forward(layers, x)[0]
            assert cert.output_lo[0] - 1e-7 <= out <= cert.output_hi[0] + 1e-7

    def test_epsilon_definition(self):
        rng = np.random.default_rng(1)
        layers = random_chain(rng)
        center = np.zeros(2)
        cert = certify_local_exact(layers, center, 0.05)
        base = affine_chain_forward(layers, center)
        expected = max(
            abs(cert.output_hi[0] - base[0]), abs(base[0] - cert.output_lo[0])
        )
        assert cert.epsilon == pytest.approx(expected)

    def test_domain_intersection(self):
        rng = np.random.default_rng(2)
        layers = random_chain(rng)
        domain = Box.uniform(2, 0.0, 1.0)
        cert = certify_local_exact(layers, np.zeros(2), 0.5, domain=domain)
        # Ball [-0.5, 0.5] clipped to [0, 0.5]: output range respects it.
        assert cert.method == "local-exact"

    def test_nd_window_tightens(self):
        rng = np.random.default_rng(3)
        layers = random_chain(rng, depth=3, width=4)
        center = np.zeros(2)
        w1 = certify_local_nd(layers, center, 0.2, window=1)
        w3 = certify_local_nd(layers, center, 0.2, window=3)
        assert w3.output_hi[0] <= w1.output_hi[0] + 1e-9
        assert w3.output_lo[0] >= w1.output_lo[0] - 1e-9

    @pytest.mark.parametrize("window", [0, -2])
    def test_nd_window_below_one_rejected(self, window):
        # Before, decompose clamped it to 1 while the method name kept it.
        rng = np.random.default_rng(3)
        layers = random_chain(rng, depth=3, width=4)
        with pytest.raises(ValueError, match="window must be >= 1"):
            certify_local_nd(layers, np.zeros(2), 0.2, window=window)

    def test_lpr_no_binaries_faster_but_looser(self):
        rng = np.random.default_rng(4)
        layers = random_chain(rng, depth=3, width=4)
        exact = certify_local_exact(layers, np.zeros(2), 0.2)
        lpr = certify_local_lpr(layers, np.zeros(2), 0.2)
        assert lpr.output_hi[0] >= exact.output_hi[0] - 1e-9
        assert lpr.output_lo[0] <= exact.output_lo[0] + 1e-9


class TestReluplexStyle:
    def test_matches_milp_on_random_nets(self):
        rng = np.random.default_rng(5)
        for _ in range(4):
            layers = random_chain(rng, depth=2, width=3)
            box = Box.uniform(2, -1, 1)
            milp = certify_exact_global(layers, box, 0.05)
            rlx = ReluplexStyleSolver().certify(layers, box, 0.05)
            assert rlx.epsilons == pytest.approx(milp.epsilons, abs=1e-5)

    def test_node_budget_respected(self):
        rng = np.random.default_rng(6)
        layers = random_chain(rng, depth=3, width=4)
        solver = ReluplexStyleSolver(max_nodes=3)
        with pytest.raises(RuntimeError):
            solver.certify(layers, Box.uniform(2, -1, 1), 0.1)

    def test_explores_more_nodes_on_bigger_nets(self):
        rng = np.random.default_rng(7)
        small = random_chain(rng, depth=2, width=2)
        big = random_chain(rng, depth=3, width=4)
        box = Box.uniform(2, -1, 1)
        s_small = ReluplexStyleSolver()
        s_small.certify(small, box, 0.1)
        s_big = ReluplexStyleSolver()
        s_big.certify(big, box, 0.1)
        assert s_big.nodes_explored >= s_small.nodes_explored


class TestBtneBaselines:
    def test_btne_nd_looser_than_exact(self):
        rng = np.random.default_rng(8)
        layers = random_chain(rng, depth=2)
        box = Box.uniform(2, -1, 1)
        exact = certify_exact_global(layers, box, 0.05)
        nd = certify_global_btne_nd(layers, box, 0.05)
        assert nd.epsilon >= exact.epsilon - 1e-9

    @pytest.mark.parametrize("window", [0, -2])
    def test_btne_nd_window_below_one_rejected(self, window):
        rng = np.random.default_rng(8)
        layers = random_chain(rng, depth=2)
        with pytest.raises(ValueError, match="window must be >= 1"):
            certify_global_btne_nd(layers, Box.uniform(2, -1, 1), 0.05, window=window)

    def test_btne_lpr_looser_than_exact(self):
        rng = np.random.default_rng(9)
        layers = random_chain(rng, depth=2)
        box = Box.uniform(2, -1, 1)
        exact = certify_exact_global(layers, box, 0.05)
        lpr = certify_global_btne_lpr(layers, box, 0.05)
        assert lpr.epsilon >= exact.epsilon - 1e-9

    def test_btne_nd_independent_of_delta(self):
        """The distance-info loss makes BTNE-ND's ε delta-independent."""
        rng = np.random.default_rng(10)
        layers = random_chain(rng, depth=2)
        box = Box.uniform(2, -1, 1)
        a = certify_global_btne_nd(layers, box, 0.01)
        b = certify_global_btne_nd(layers, box, 0.1)
        assert a.epsilon == pytest.approx(b.epsilon, abs=1e-7)
