"""Algorithm 1 solves only the LPs it needs — and loses nothing by it.

``GlobalRobustnessCertifier`` answers depth-1 sub-problems in closed
form, solves ``y`` bounds over the first network copy alone and skips
the ``y`` bounds of a ReLU-free output layer.  Every test here checks
those shortcuts against a test-local reference that tightens each layer
by the paper's LpRelaxY as written: four objectives per neuron (min/max
of ``y_j`` and ``Δy_j``) over one ITNE model.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _sanitize
from repro._sanitize import SanitizerError, check_shortcut_bound, sanitizing
from repro.bounds import Box
from repro.bounds.ranges import RangeTable
from repro.certify import CertifierConfig, GlobalRobustnessCertifier
from repro.certify import global_cert
from repro.certify.decomposition import decompose, subnetwork_ranges
from repro.certify.refinement import select_refinement
from repro.encoding.itne import encode_itne
from repro.milp import as_expr
from repro.nn.affine import AffineLayer

#: HiGHS' default relative MIP gap: a refined bound may trail the
#: optimum by this much.
MIP_GAP = 1e-4


def itne_reference(layers, table, i, cfg):
    """The four ITNE objectives per neuron of layer ``i``, as results.

    Returns ``[(y_min, y_max, dy_min, dy_max), ...]`` per neuron.
    """
    sub = decompose(layers, i, cfg.window, output_relu=False)
    sub_table = subnetwork_ranges(table, sub)
    masks = select_refinement(
        sub, sub_table, cfg.refine_count, include_output_layer=False
    )
    rec = table.layer(sub.input_layer_index)
    enc = encode_itne(
        sub.layers,
        Box(rec.x.lo, rec.x.hi),
        Box(rec.dx.lo, rec.dx.hi),
        ranges=sub_table,
        refine_mask=masks,
        couple_second_copy=cfg.couple_second_copy,
        clip_second_input=True,
    )
    objectives = []
    for y, dy in zip(enc.y[-1], enc.dy[-1]):
        objectives += [
            (as_expr(y), "min"), (as_expr(y), "max"),
            (as_expr(dy), "min"), (as_expr(dy), "max"),
        ]
    results = enc.model.solve_many(objectives)
    return [results[k : k + 4] for k in range(0, len(results), 4)]


class ReferenceCertifier(GlobalRobustnessCertifier):
    """Algorithm 1 tightening every layer through the four ITNE objectives."""

    def _tighten_layer(self, table, i):
        rec = table.layer(i)
        per_neuron = itne_reference(self.layers, table, i, self.config)
        for j, results in enumerate(per_neuron):
            bounds = [r.sound_bound() for r in results]
            y_lo, y_hi = rec.y.scalar(j)
            dy_lo, dy_hi = rec.dy.scalar(j)
            y_lo = y_lo if bounds[0] is None else max(y_lo, bounds[0])
            y_hi = y_hi if bounds[1] is None else min(y_hi, bounds[1])
            dy_lo = dy_lo if bounds[2] is None else max(dy_lo, bounds[2])
            dy_hi = dy_hi if bounds[3] is None else min(dy_hi, bounds[3])
            rec.set_neuron(
                j,
                y=(min(y_lo, y_hi), max(y_lo, y_hi)),
                dy=(min(dy_lo, dy_hi), max(dy_lo, dy_hi)),
            )
        return 4 * len(per_neuron), 0


@st.composite
def networks(draw, max_depth=3):
    """Small random chains (ReLU on every layer but maybe the last)."""
    depth = draw(st.integers(2, max_depth))
    dims = [draw(st.integers(1, 4)) for _ in range(depth + 1)]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    last_relu = draw(st.booleans())
    return [
        AffineLayer(
            rng.standard_normal((dims[k + 1], dims[k])),
            0.3 * rng.standard_normal(dims[k + 1]),
            relu=k < depth - 1 or last_relu,
        )
        for k in range(depth)
    ]


def layer_pairs(layers, box, delta, cfg):
    """Walk Algorithm 1, yielding ``(i, shortcut, reference)`` per layer.

    Both tables start from the same state, with layer ``i``'s own
    ``y``/``Δy`` ranges widened to ±inf: no sub-problem reads them, so
    the tightened values are the raw solver (or closed-form) bounds, not
    masked by the interval table.  The walk continues on the certifier's
    own table.
    """
    certifier = GlobalRobustnessCertifier(layers, cfg)
    table = RangeTable.from_interval_propagation(layers, box, delta)
    for i in range(1, len(layers) + 1):
        widened = copy.deepcopy(table)
        rec = widened.layer(i)
        for interval in (rec.y, rec.dy):
            interval.lo[:] = -math.inf
            interval.hi[:] = math.inf
        mine = copy.deepcopy(widened)
        certifier._tighten_layer(mine, i)
        reference = itne_reference(layers, widened, i, cfg)
        yield i, mine.layer(i), reference
        certifier._tighten_layer(table, i)
        certifier._finalize_layer(table, i, layers[i - 1])


def assert_close(value, ref, rel):
    assert abs(value - ref) <= rel * max(1.0, abs(ref)), (value, ref)


class TestClosedFormDepthOne:
    @settings(max_examples=30, deadline=None)
    @given(
        layers=networks(),
        window=st.integers(1, 3),
        delta=st.sampled_from([0.01, 0.3, 3.0]),
    )
    def test_matches_the_itne_lps(self, layers, window, delta):
        """δ = 3 exceeds the [-1, 1] domain, so the input clip binds."""
        cfg = CertifierConfig(window=window)
        box = Box.uniform(layers[0].in_dim, -1.0, 1.0)
        for i, rec, reference in layer_pairs(layers, box, delta, cfg):
            if min(i, window) != 1:
                continue
            for j, (y_lo, y_hi, dy_lo, dy_hi) in enumerate(reference):
                assert_close(rec.y.lo[j], y_lo.objective, 1e-9)
                assert_close(rec.y.hi[j], y_hi.objective, 1e-9)
                assert_close(rec.dy.lo[j], dy_lo.objective, 1e-9)
                assert_close(rec.dy.hi[j], dy_hi.objective, 1e-9)

    def test_clip_binds_on_the_distance(self):
        """With δ wider than the domain only ``hi − lo`` limits Δx(0)."""
        layer = AffineLayer(np.array([[1.0, -2.0]]), np.array([0.5]), relu=False)
        y, dy = global_cert._depth_one_bounds(
            layer, Box.uniform(2, 0.0, 1.0), Box.uniform(2, -5.0, 5.0)
        )
        assert (y.lo[0], y.hi[0]) == (-1.5, 1.5)
        assert (dy.lo[0], dy.hi[0]) == (-3.0, 3.0)


class TestFirstCopyY:
    @settings(max_examples=25, deadline=None)
    @given(
        layers=networks(),
        window=st.integers(2, 3),
        delta=st.sampled_from([0.05, 0.5]),
    )
    def test_lp_bounds_match_the_itne_lps(self, layers, window, delta):
        cfg = CertifierConfig(window=window)
        box = Box.uniform(layers[0].in_dim, -1.0, 1.0)
        for i, rec, reference in layer_pairs(layers, box, delta, cfg):
            if min(i, window) == 1:
                continue
            for j, (y_lo, y_hi, dy_lo, dy_hi) in enumerate(reference):
                assert_close(rec.dy.lo[j], dy_lo.objective, 1e-9)
                assert_close(rec.dy.hi[j], dy_hi.objective, 1e-9)
                if i == len(layers) and not layers[-1].relu:
                    # Nothing reads these: they are not solved.
                    assert (rec.y.lo[j], rec.y.hi[j]) == (-math.inf, math.inf)
                    continue
                assert_close(rec.y.lo[j], y_lo.objective, 1e-9)
                assert_close(rec.y.hi[j], y_hi.objective, 1e-9)

    @settings(max_examples=15, deadline=None)
    @given(
        layers=networks(),
        refine=st.integers(1, 4),
        delta=st.sampled_from([0.05, 0.5]),
    )
    def test_refined_bounds_within_the_mip_gap(self, layers, refine, delta):
        """A refined first-copy bound never cuts off the ITNE optimum."""
        cfg = CertifierConfig(window=3, refine_count=refine)
        box = Box.uniform(layers[0].in_dim, -1.0, 1.0)
        for i, rec, reference in layer_pairs(layers, box, delta, cfg):
            if i == 1 or (i == len(layers) and not layers[-1].relu):
                continue
            for j, (y_lo, y_hi, _, _) in enumerate(reference):
                gap = MIP_GAP * max(1.0, abs(y_lo.objective))
                assert rec.y.lo[j] <= y_lo.objective + gap
                assert rec.y.lo[j] >= y_lo.sound_bound() - gap
                gap = MIP_GAP * max(1.0, abs(y_hi.objective))
                assert rec.y.hi[j] >= y_hi.objective - gap
                assert rec.y.hi[j] <= y_hi.sound_bound() + gap


class TestWholeCertificate:
    @settings(max_examples=20, deadline=None)
    @given(
        layers=networks(),
        window=st.integers(1, 3),
        delta=st.sampled_from([0.05, 3.0]),
    )
    def test_epsilon_matches_the_reference(self, layers, window, delta):
        cfg = CertifierConfig(window=window)
        box = Box.uniform(layers[0].in_dim, -1.0, 1.0)
        ours = GlobalRobustnessCertifier(layers, cfg).certify(box, delta)
        ref = ReferenceCertifier(layers, cfg).certify(box, delta)
        np.testing.assert_allclose(ours.epsilons, ref.epsilons, rtol=1e-9, atol=1e-12)


def chain(dims, seed=0, last_relu=False):
    rng = np.random.default_rng(seed)
    return [
        AffineLayer(
            rng.standard_normal((dims[k + 1], dims[k])) / np.sqrt(dims[k]),
            0.1 * rng.standard_normal(dims[k + 1]),
            relu=k < len(dims) - 2 or last_relu,
        )
        for k in range(len(dims) - 1)
    ]


class TestCounts:
    def test_window_one_solves_nothing(self):
        cert = GlobalRobustnessCertifier(
            chain([7, 8, 8, 1]), CertifierConfig(window=1)
        ).certify(Box.uniform(7, 0.0, 1.0), 0.01)
        assert (cert.lp_count, cert.milp_count) == (0, 0)

    def test_counts_the_solves_made(self):
        """Layer 1 closed form, 8·4 LPs on layer 2, only Δy on the output."""
        cert = GlobalRobustnessCertifier(
            chain([7, 8, 8, 1]), CertifierConfig(window=2)
        ).certify(Box.uniform(7, 0.0, 1.0), 0.01)
        assert (cert.lp_count, cert.milp_count) == (34, 0)

    def test_relu_output_keeps_its_y_solves(self):
        cert = GlobalRobustnessCertifier(
            chain([7, 8, 8, 1], last_relu=True), CertifierConfig(window=2)
        ).certify(Box.uniform(7, 0.0, 1.0), 0.01)
        assert cert.lp_count == 36

    def test_lp_and_milp_counted_per_model(self):
        """Each model's solves count as MILPs iff that model has binaries."""
        layers = chain([3, 4, 4, 1], seed=3)
        made = []
        real = GlobalRobustnessCertifier._solve

        def spy(self, model, objectives):
            made.append((model.num_binary > 0, len(objectives)))
            return real(self, model, objectives)

        # The sanitizer's re-solves go through ``_solve`` too.
        with pytest.MonkeyPatch.context() as mp, sanitizing(False):
            mp.setattr(GlobalRobustnessCertifier, "_solve", spy)
            cert = GlobalRobustnessCertifier(
                layers, CertifierConfig(window=2, refine_count=2)
            ).certify(Box.uniform(3, -1.0, 1.0), 0.1)
        assert cert.milp_count == sum(n for binary, n in made if binary) > 0
        assert cert.lp_count == sum(n for binary, n in made if not binary)


class TestShortcutContract:
    def test_hooks_pass_on_real_certificates(self):
        layers = chain([3, 5, 4, 2], seed=1)
        box = Box.uniform(3, -1.0, 1.0)
        with sanitizing():
            for window, refine in ((1, 0), (2, 0), (3, 3)):
                GlobalRobustnessCertifier(
                    layers, CertifierConfig(window=window, refine_count=refine)
                ).certify(box, 0.2)

    @pytest.mark.parametrize("which", ["y", "dy"])
    def test_hook_catches_a_corrupted_closed_form(self, which, monkeypatch):
        real = global_cert._depth_one_bounds

        def corrupted(layer, x_in, dx_in):
            y_box, dy_box = real(layer, x_in, dx_in)
            box = y_box if which == "y" else dy_box
            box.lo[:] += 1e-3  # too tight: cuts off the LP optimum
            return y_box, dy_box

        monkeypatch.setattr(global_cert, "_depth_one_bounds", corrupted)
        layers = chain([3, 4, 2], seed=2)
        with sanitizing(), pytest.raises(SanitizerError, match="alg1-shortcut"):
            GlobalRobustnessCertifier(layers, CertifierConfig(window=1)).certify(
                Box.uniform(3, -1.0, 1.0), 0.1
            )

    @pytest.mark.parametrize("corruption", ["looser", "cuts off"])
    def test_hook_catches_a_corrupted_first_copy(self, corruption, monkeypatch):
        real = global_cert.encode_first_copy

        def corrupted(layers, input_box, ranges, refine_mask=None):
            if corruption == "cuts off":
                input_box = Box(input_box.lo, input_box.center)
            else:
                ranges = copy.deepcopy(ranges)
                for rec in ranges.layers:
                    rec.y.lo[:] -= 1.0
                    rec.y.hi[:] += 1.0
            return real(layers, input_box, ranges, refine_mask=refine_mask)

        monkeypatch.setattr(global_cert, "encode_first_copy", corrupted)
        layers = chain([3, 4, 4, 2], seed=4)
        with sanitizing(), pytest.raises(SanitizerError, match=corruption):
            GlobalRobustnessCertifier(layers, CertifierConfig(window=2)).certify(
                Box.uniform(3, -1.0, 1.0), 0.1
            )

    def test_hook_is_off_by_default(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            _sanitize, "check_shortcut_bound", lambda *a, **k: calls.append(a)
        )
        with sanitizing(False):
            GlobalRobustnessCertifier(chain([3, 4, 4, 2]), CertifierConfig()).certify(
                Box.uniform(3, -1.0, 1.0), 0.1
            )
        assert calls == []


class TestCheckShortcutBound:
    def test_exact_bounds_pass(self):
        check_shortcut_bound(1.0, "min", "optimal", 1.0, "lo")
        check_shortcut_bound(2.0, "max", "optimal", 2.0 + 1e-12, "hi")

    @pytest.mark.parametrize(
        "bound, sense, match",
        [(1.1, "min", "cuts off"), (0.9, "max", "cuts off"),
         (0.9, "min", "looser"), (1.1, "max", "looser")],
    )
    def test_off_bounds_fail(self, bound, sense, match):
        with pytest.raises(SanitizerError, match=match):
            check_shortcut_bound(bound, sense, "optimal", 1.0, "b")

    def test_slack_absorbs_a_mip_gap_but_not_a_cut(self):
        check_shortcut_bound(0.95, "min", "optimal", 1.0, "b", slack=0.1)
        with pytest.raises(SanitizerError, match="cuts off"):
            check_shortcut_bound(1.05, "min", "optimal", 1.0, "b", slack=0.1)

    def test_unproven_reference_or_missing_bound_is_skipped(self):
        check_shortcut_bound(5.0, "min", "time_limit", 1.0, "b")
        check_shortcut_bound(None, "min", "optimal", 1.0, "b")
