"""Bound records + symbolic propagator soundness/tightness."""

import numpy as np
import pytest

from repro.bounds import (
    Box,
    IBPPropagator,
    LayerBounds,
    RangeTable,
    SymbolicPropagator,
    TwinIBPPropagator,
    propagate_many,
)
from repro.nn.affine import AffineLayer, affine_chain_forward


def random_chain(rng, depth=3, width=8, in_dim=4, out_dim=2, scale=1.0):
    """Random ReLU affine chain for soundness fuzzing."""
    dims = [in_dim] + [width] * (depth - 1) + [out_dim]
    return [
        AffineLayer(
            scale * rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
            0.3 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


def assert_box_contains(outer: Box, inner: Box, tol=1e-9):
    assert np.all(inner.lo >= outer.lo - tol)
    assert np.all(inner.hi <= outer.hi + tol)


class TestRegistry:
    def test_unknown_name_rejected(self):
        rng = np.random.default_rng(0)
        layers = random_chain(rng)
        with pytest.raises(ValueError, match="unknown bound engine"):
            propagate_many("magic", layers, Box.uniform(4, -1, 1))

    def test_twin_ibp_requires_delta(self):
        rng = np.random.default_rng(0)
        layers = random_chain(rng)
        with pytest.raises(ValueError, match="delta"):
            TwinIBPPropagator().propagate(layers, Box.uniform(4, -1, 1))


class TestLayerBounds:
    def test_ibp_matches_legacy_propagation(self):
        from repro.bounds import propagate_box, propagate_twin_box

        rng = np.random.default_rng(1)
        layers = random_chain(rng)
        box = Box.uniform(4, -1, 1)
        bounds = IBPPropagator().propagate(layers, box, 0.05)
        _, legacy_pre = propagate_box(layers, box, collect=True)
        twin = propagate_twin_box(layers, box, 0.05)
        for i in range(len(layers)):
            assert np.allclose(bounds.y[i].lo, legacy_pre[i].lo)
            assert np.allclose(bounds.y[i].hi, legacy_pre[i].hi)
            assert np.allclose(bounds.dy[i].lo, twin.dy[i].lo)
            assert np.allclose(bounds.dx[i].hi, twin.dx[i + 1].hi)

    def test_value_only_has_no_distance(self):
        rng = np.random.default_rng(2)
        layers = random_chain(rng)
        bounds = IBPPropagator().propagate(layers, Box.uniform(4, -1, 1))
        assert not bounds.has_distance
        with pytest.raises(ValueError, match="distance"):
            bounds.output_distance
        with pytest.raises(ValueError, match="distance"):
            bounds.to_range_table()

    def test_intersect_tightest_wins(self):
        rng = np.random.default_rng(3)
        layers = random_chain(rng)
        box = Box.uniform(4, -1, 1)
        ibp = IBPPropagator().propagate(layers, box, 0.05)
        sym = SymbolicPropagator().propagate(layers, box, 0.05)
        both = ibp.intersect(sym)
        for i in range(len(layers)):
            assert np.allclose(both.y[i].lo, sym.y[i].lo)
            assert np.allclose(both.y[i].hi, sym.y[i].hi)

    def test_intersect_mixed_keeps_available_distance(self):
        rng = np.random.default_rng(30)
        layers = random_chain(rng)
        box = Box.uniform(4, -1, 1)
        value_only = IBPPropagator().propagate(layers, box)
        twin = SymbolicPropagator().propagate(layers, box, 0.05)
        for mixed in (value_only.intersect(twin), twin.intersect(value_only)):
            assert mixed.has_distance
            assert np.allclose(mixed.dy[0].lo, twin.dy[0].lo)
            assert np.allclose(mixed.output_distance.hi, twin.output_distance.hi)

    def test_stable_split_counts_relu_neurons_only(self):
        rng = np.random.default_rng(4)
        layers = random_chain(rng, depth=3, width=6)
        bounds = IBPPropagator().propagate(layers, Box.uniform(4, -1, 1))
        stable, total = bounds.stable_split(layers)
        assert total == 12  # two hidden ReLU layers of width 6
        assert 0 <= stable <= total
        assert bounds.stable_fraction(layers) == pytest.approx(stable / total)


class TestSymbolicContainment:
    """Property (a): symbolic bounds are always contained in IBP bounds."""

    def test_contained_in_ibp_value_and_distance(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            layers = random_chain(rng, depth=rng.integers(1, 5), scale=2.0)
            box = Box.uniform(4, -1, 1)
            ibp = IBPPropagator().propagate(layers, box, 0.1)
            sym = SymbolicPropagator().propagate(layers, box, 0.1)
            for i in range(len(layers)):
                assert_box_contains(ibp.y[i], sym.y[i])
                assert_box_contains(ibp.x[i], sym.x[i])
                assert_box_contains(ibp.dy[i], sym.dy[i])
                assert_box_contains(ibp.dx[i], sym.dx[i])

    def test_strictly_tighter_on_deep_nets(self):
        rng = np.random.default_rng(6)
        layers = random_chain(rng, depth=4, width=16, scale=2.0)
        box = Box.uniform(4, -1, 1)
        ibp = IBPPropagator().propagate(layers, box, 0.1)
        sym = SymbolicPropagator().propagate(layers, box, 0.1)
        assert sym.mean_pre_activation_width() < ibp.mean_pre_activation_width()
        dist_ibp = ibp.output_distance.width().max()
        dist_sym = sym.output_distance.width().max()
        assert dist_sym < dist_ibp

    def test_first_layer_matches_ibp_exactly(self):
        # No ReLU precedes layer 0, so backsubstitution degenerates to
        # one interval-arithmetic affine step.
        rng = np.random.default_rng(7)
        layers = random_chain(rng, depth=3)
        box = Box.uniform(4, -1, 1)
        ibp = IBPPropagator().propagate(layers, box, 0.05)
        sym = SymbolicPropagator().propagate(layers, box, 0.05)
        assert np.allclose(sym.y[0].lo, ibp.y[0].lo)
        assert np.allclose(sym.y[0].hi, ibp.y[0].hi)


class TestSymbolicSoundness:
    """Property (b): forward samples and twin pairs lie inside the bounds."""

    def test_contains_forward_samples(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            layers = random_chain(rng, depth=3, scale=2.0)
            box = Box.uniform(4, -1, 1)
            sym = SymbolicPropagator().propagate(layers, box)
            for _ in range(40):
                x = box.sample(rng)[0]
                cur = x
                for i, layer in enumerate(layers):
                    y = layer.pre_activation(cur)
                    assert sym.y[i].contains(y, tol=1e-7), f"layer {i} pre-act"
                    cur = layer.forward(cur)
                    assert sym.x[i].contains(cur, tol=1e-7), f"layer {i} post-act"

    def test_contains_twin_distance_samples(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            layers = random_chain(rng, depth=3, scale=2.0)
            box = Box.uniform(4, -1, 1)
            delta = 0.1
            sym = SymbolicPropagator().propagate(layers, box, delta)
            for _ in range(30):
                x = box.sample(rng)[0]
                xh = np.clip(x + rng.uniform(-delta, delta, 4), box.lo, box.hi)
                cur, curh = x, xh
                for i, layer in enumerate(layers):
                    dy = layer.pre_activation(curh) - layer.pre_activation(cur)
                    assert sym.dy[i].contains(dy, tol=1e-7), f"layer {i} dy"
                    cur, curh = layer.forward(cur), layer.forward(curh)
                    assert sym.dx[i].contains(curh - cur, tol=1e-7), f"layer {i} dx"

    def test_point_box_is_exact(self):
        rng = np.random.default_rng(10)
        layers = random_chain(rng)
        x = rng.standard_normal(4)
        sym = SymbolicPropagator().propagate(layers, Box.point(x))
        out = affine_chain_forward(layers, x)
        assert np.allclose(sym.output.lo, out, atol=1e-9)
        assert np.allclose(sym.output.hi, out, atol=1e-9)

    def test_zero_delta_gives_zero_distance(self):
        rng = np.random.default_rng(11)
        layers = random_chain(rng)
        sym = SymbolicPropagator().propagate(layers, Box.uniform(4, -1, 1), 0.0)
        assert np.allclose(sym.output_distance.lo, 0.0)
        assert np.allclose(sym.output_distance.hi, 0.0)

    def test_non_relu_interior_layer(self):
        # Hand-built chains may carry a linear interior stage; the
        # backsubstitution must treat it as identity.
        rng = np.random.default_rng(12)
        layers = [
            AffineLayer(rng.standard_normal((5, 3)), np.zeros(5), relu=True),
            AffineLayer(rng.standard_normal((5, 5)), np.zeros(5), relu=False),
            AffineLayer(rng.standard_normal((2, 5)), np.zeros(2), relu=True),
            AffineLayer(rng.standard_normal((1, 2)), np.zeros(1), relu=False),
        ]
        box = Box.uniform(3, -1, 1)
        sym = SymbolicPropagator().propagate(layers, box, 0.05)
        ibp = IBPPropagator().propagate(layers, box, 0.05)
        for i in range(len(layers)):
            assert_box_contains(ibp.y[i], sym.y[i])
            assert_box_contains(ibp.dx[i], sym.dx[i])
        for _ in range(50):
            x = box.sample(rng)[0]
            assert sym.output.contains(affine_chain_forward(layers, x), tol=1e-7)


class TestRangeTablePropagatorKnob:
    def test_symbolic_table_contained_in_ibp_table(self):
        rng = np.random.default_rng(13)
        layers = random_chain(rng, depth=4, width=10, scale=2.0)
        box = Box.uniform(4, 0, 1)
        t_ibp = IBPPropagator().propagate(layers, box, 0.05).to_range_table()
        t_sym = RangeTable.from_interval_propagation(layers, box, 0.05)
        for i in range(1, len(layers) + 1):
            for attr in ("y", "dy", "x", "dx"):
                assert_box_contains(
                    getattr(t_ibp.layer(i), attr), getattr(t_sym.layer(i), attr)
                )
        assert t_sym.output_variation_bound() <= t_ibp.output_variation_bound() + 1e-12

    def test_to_range_table_roundtrip(self):
        rng = np.random.default_rng(15)
        layers = random_chain(rng)
        bounds = SymbolicPropagator().propagate(
            layers, Box.uniform(4, 0, 1), 0.05
        )
        table = bounds.to_range_table()
        assert isinstance(bounds, LayerBounds)
        assert np.allclose(table.layer(1).y.lo, bounds.y[0].lo)
        # The table owns copies: mutating it must not leak back.
        table.layer(1).set_neuron(0, y=(0.0, 0.0))
        assert not np.allclose(table.layer(1).y.hi, bounds.y[0].hi) or (
            bounds.y[0].hi[0] == 0.0
        )
