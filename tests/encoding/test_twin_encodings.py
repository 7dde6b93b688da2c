"""BTNE/ITNE encodings: exactness, soundness, relaxation ordering."""

import numpy as np
import pytest

from repro.bounds import Box, IBPPropagator
from repro.encoding import encode_btne, encode_itne, encode_single_network
from repro.milp.expr import Var
from repro.nn.affine import AffineLayer, affine_chain_forward


def paper_example():
    """The 2-2-1 network of Fig. 1."""
    return [
        AffineLayer(np.array([[1.0, 0.5], [-0.5, 1.0]]), np.zeros(2), relu=True),
        AffineLayer(np.array([[1.0, -1.0]]), np.zeros(1), relu=True),
    ]


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


def _expr(handle):
    return handle.to_expr() if isinstance(handle, Var) else handle


def optimize_distance(enc, sense):
    enc.model.set_objective(_expr(enc.output_distance[0]), sense=sense)
    return enc.model.solve().require_optimal().objective


class TestSingleEncoding:
    def test_output_matches_network_at_fixed_input(self):
        rng = np.random.default_rng(0)
        layers = random_chain(rng, depth=3)
        x0 = rng.uniform(-1, 1, 2)
        enc = encode_single_network(layers, Box.point(x0))
        enc.model.set_objective(_expr(enc.output[0]), sense="max")
        got = enc.model.solve().require_optimal().objective
        assert got == pytest.approx(affine_chain_forward(layers, x0)[0], abs=1e-6)

    def test_range_contains_samples(self):
        rng = np.random.default_rng(1)
        layers = random_chain(rng, depth=2)
        box = Box.uniform(2, -1, 1)
        enc = encode_single_network(layers, box)
        enc.model.set_objective(_expr(enc.output[0]), sense="max")
        hi = enc.model.solve().require_optimal().objective
        enc2 = encode_single_network(layers, box)
        enc2.model.set_objective(_expr(enc2.output[0]), sense="min")
        lo = enc2.model.solve().require_optimal().objective
        for _ in range(100):
            out = affine_chain_forward(layers, box.sample(rng)[0])[0]
            assert lo - 1e-7 <= out <= hi + 1e-7

    def test_relaxed_dominates_exact(self):
        rng = np.random.default_rng(2)
        layers = random_chain(rng, depth=3)
        box = Box.uniform(2, -1, 1)
        exact = encode_single_network(layers, box)
        exact.model.set_objective(_expr(exact.output[0]), sense="max")
        exact_hi = exact.model.solve().require_optimal().objective
        relax = encode_single_network(
            layers, box, relax_mask=[np.ones(l.out_dim, bool) for l in layers]
        )
        relax.model.set_objective(_expr(relax.output[0]), sense="max")
        relax_hi = relax.model.solve().require_optimal().objective
        assert relax_hi >= exact_hi - 1e-8
        assert relax.model.num_binary == 0


class TestExactTwinEncodings:
    def test_paper_example_exact_bounds(self):
        layers = paper_example()
        box = Box.uniform(2, -1, 1)
        enc = encode_itne(layers, box, 0.1)
        assert optimize_distance(enc, "max") == pytest.approx(0.2, abs=1e-6)
        enc2 = encode_itne(layers, box, 0.1)
        assert optimize_distance(enc2, "min") == pytest.approx(-0.2, abs=1e-6)

    def test_btne_agrees_with_itne(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            layers = random_chain(rng, depth=2)
            box = Box.uniform(2, -1, 1)
            itne_hi = optimize_distance(encode_itne(layers, box, 0.05), "max")
            btne = encode_btne(layers, box, 0.05)
            btne.model.set_objective(btne.output_distance[0], sense="max")
            btne_hi = btne.model.solve().require_optimal().objective
            assert itne_hi == pytest.approx(btne_hi, abs=1e-6)

    def test_exact_dominates_sampling(self):
        rng = np.random.default_rng(4)
        layers = random_chain(rng, depth=2)
        box = Box.uniform(2, -1, 1)
        delta = 0.1
        hi = optimize_distance(encode_itne(layers, box, delta), "max")
        lo = optimize_distance(encode_itne(layers, box, delta), "min")
        for _ in range(300):
            x = box.sample(rng)[0]
            xh = np.clip(x + rng.uniform(-delta, delta, 2), box.lo, box.hi)
            d = (
                affine_chain_forward(layers, xh)[0]
                - affine_chain_forward(layers, x)[0]
            )
            assert lo - 1e-7 <= d <= hi + 1e-7

    def test_zero_delta_zero_distance(self):
        rng = np.random.default_rng(5)
        layers = random_chain(rng, depth=2)
        enc = encode_itne(layers, Box.uniform(2, -1, 1), 0.0)
        assert optimize_distance(enc, "max") == pytest.approx(0.0, abs=1e-7)

    def test_itne_feasible_solution_is_true_pair(self):
        """At the MILP optimum, decode (x, x̂) and check F really maps them."""
        layers = paper_example()
        box = Box.uniform(2, -1, 1)
        enc = encode_itne(layers, box, 0.1)
        enc.model.set_objective(_expr(enc.output_distance[0]), sense="max")
        r = enc.model.solve().require_optimal()
        x0 = np.array([r[v] for v in enc.input_vars])
        dx0 = np.array([r[v] for v in enc.input_dist_vars])
        true_dist = (
            affine_chain_forward(layers, x0 + dx0)[0]
            - affine_chain_forward(layers, x0)[0]
        )
        assert r.objective == pytest.approx(true_dist, abs=1e-6)


class TestRelaxedItne:
    def test_paper_lpr_number(self):
        """Fully-relaxed ITNE on the Fig. 1 example gives 0.275 (Fig. 4).

        The figure's relaxation is built over twin-IBP ranges; over the
        default symbolic ranges the same LP gives 0.25, still no lower
        than the exact 0.2.
        """
        layers = paper_example()
        box = Box.uniform(2, -1, 1)
        masks = [np.zeros(2, bool), np.zeros(1, bool)]
        ibp = IBPPropagator().propagate(layers, box, 0.1).to_range_table()
        enc = encode_itne(layers, box, 0.1, ranges=ibp, refine_mask=masks)
        assert enc.num_binaries == 0
        assert optimize_distance(enc, "max") == pytest.approx(0.275, abs=1e-6)
        ours = optimize_distance(encode_itne(layers, box, 0.1, refine_mask=masks), "max")
        assert ours == pytest.approx(0.25, abs=1e-6)
        assert 0.2 - 1e-9 <= ours <= 0.275 + 1e-6

    def test_relaxation_sound_and_ordered(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            layers = random_chain(rng, depth=3)
            box = Box.uniform(2, -1, 1)
            exact_hi = optimize_distance(encode_itne(layers, box, 0.05), "max")
            relax_masks = [np.zeros(l.out_dim, bool) for l in layers]
            relax_hi = optimize_distance(
                encode_itne(layers, box, 0.05, refine_mask=relax_masks), "max"
            )
            assert relax_hi >= exact_hi - 1e-7

    def test_partial_refinement_between(self):
        rng = np.random.default_rng(7)
        layers = random_chain(rng, depth=3, width=4)
        box = Box.uniform(2, -1, 1)
        delta = 0.05
        exact_hi = optimize_distance(encode_itne(layers, box, delta), "max")
        none_mask = [np.zeros(l.out_dim, bool) for l in layers]
        all_relaxed = optimize_distance(
            encode_itne(layers, box, delta, refine_mask=none_mask), "max"
        )
        half_mask = [np.zeros(l.out_dim, bool) for l in layers]
        half_mask[0][:2] = True
        half = optimize_distance(
            encode_itne(layers, box, delta, refine_mask=half_mask), "max"
        )
        assert exact_hi - 1e-7 <= half <= all_relaxed + 1e-7

    def test_coupling_tightens_or_equal(self):
        rng = np.random.default_rng(8)
        layers = random_chain(rng, depth=3)
        box = Box.uniform(2, -1, 1)
        masks = [np.zeros(l.out_dim, bool) for l in layers]
        coupled = optimize_distance(
            encode_itne(layers, box, 0.05, refine_mask=masks, couple_second_copy=True),
            "max",
        )
        uncoupled = optimize_distance(
            encode_itne(layers, box, 0.05, refine_mask=masks, couple_second_copy=False),
            "max",
        )
        assert coupled <= uncoupled + 1e-9

    def test_second_input_clipping(self):
        """With clipping, x + Δx must stay inside the domain."""
        layers = paper_example()
        box = Box.uniform(2, 0.0, 1.0)
        enc = encode_itne(layers, box, 0.5, clip_second_input=True)
        enc.model.set_objective(
            _expr(enc.input_vars[0]) + _expr(enc.input_dist_vars[0]), sense="max"
        )
        assert enc.model.solve().require_optimal().objective <= 1.0 + 1e-9

    def test_delta_box_mismatch(self):
        layers = paper_example()
        with pytest.raises(ValueError):
            encode_itne(layers, Box.uniform(2, -1, 1), Box.uniform(3, -0.1, 0.1))
