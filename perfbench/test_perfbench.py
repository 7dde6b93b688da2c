"""Tests of the benchmark's own aggregation code.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import numpy as np
import pytest

from perfbench import checks, stats
from perfbench.stats import Span


class TestPercentileRule:
    def test_p99_needs_ten_samples_beyond(self):
        assert stats.samples_beyond(1000, 99.0) == 10
        assert stats.samples_beyond(999, 99.0) == 9
        assert stats.highest_percentile(1000) == 99.0
        assert stats.highest_percentile(999) == 95.0

    def test_small_samples_fall_back_to_the_median_or_nothing(self):
        assert stats.highest_percentile(20) == 50.0
        assert stats.highest_percentile(19) is None

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 1001))
        assert stats.percentile(values, 99.0) == 990
        assert stats.percentile(values, 50.0) == 500

    def test_percentile_refuses_a_thin_tail(self):
        with pytest.raises(ValueError, match="fewer than 10"):
            stats.percentile(list(range(999)), 99.0)


class TestNormalization:
    def test_each_unit_uses_the_slices_on_both_sides(self):
        assert stats.adjacent_calibration([1.0, 3.0, 5.0]) == [2.0, 4.0]

    def test_pass_time_in_calibration_units(self):
        # Units of 4 s and 8 s between slices 1, 3, 5 s: mean adjacent
        # calibration is 3 s, so the pass lasts 12 / 3 = 4 slices.
        assert stats.normalized([4.0, 8.0], [1.0, 3.0, 5.0]) == pytest.approx(4.0)

    def test_uniform_slowdown_cancels(self):
        units, slices = [0.2, 0.9, 0.4], [0.05, 0.06, 0.04, 0.05]
        slow = stats.normalized([2.5 * u for u in units], [2.5 * s for s in slices])
        assert slow == pytest.approx(stats.normalized(units, slices))

    def test_slice_count_must_bracket_every_unit(self):
        with pytest.raises(ValueError):
            stats.normalized([1.0, 2.0], [1.0, 1.0])


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            Span("certify.alg1", 0.0, 10.0),
            Span("certify.alg1_layer", 1.0, 6.0, parent=0),
            Span("milp.solve", 2.0, 5.0, parent=1),
            Span("milp.highs_lp", 2.5, 4.5, parent=2),
            Span("certify.alg1_layer", 6.0, 9.0, parent=0),
        ]
        assert stats.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 2.0, 3.0])

    def test_overlapping_children_are_not_counted_twice(self):
        spans = [
            Span("a", 0.0, 10.0),
            Span("b", 1.0, 5.0, parent=0),
            Span("c", 4.0, 7.0, parent=0),
        ]
        assert stats.self_times(spans)[0] == pytest.approx(4.0)

    def test_outermost_skips_nested_calls_into_the_same_layer(self):
        spans = [
            Span("bounds.propagate_many", 0.0, 4.0),
            Span("bounds.propagate", 1.0, 2.0, parent=0),
            Span("milp.solve", 5.0, 6.0),
            Span("bounds.propagate", 5.2, 5.4, parent=2),
        ]
        assert stats.outermost(spans, "bounds.") == [0, 3]


class TestDeterminismCheck:
    @staticmethod
    def _tiny_layers():
        from repro.nn.affine import AffineLayer

        rng = np.random.default_rng(7)
        return [
            AffineLayer(rng.standard_normal((4, 3)), rng.standard_normal(4), True),
            AffineLayer(rng.standard_normal((1, 4)), rng.standard_normal(1), False),
        ]

    def _epsilons(self, layers):
        from repro.bounds.interval import Box
        from repro.certify import CertifierConfig, GlobalRobustnessCertifier

        cert = GlobalRobustnessCertifier(layers, CertifierConfig(window=2)).certify(
            Box.uniform(3, 0.0, 1.0), 0.01
        )
        return cert.epsilons

    def test_repeated_certificates_pass(self):
        layers = self._tiny_layers()
        runs = [[self._epsilons(layers).tobytes()] for _ in range(2)]
        assert checks.identical_across_passes(runs, "ε̄") == []

    def test_a_changed_bit_fails(self):
        eps = self._epsilons(self._tiny_layers())
        nudged = np.nextafter(eps, np.inf)
        failures = checks.identical_across_passes(
            [[eps.tobytes()], [nudged.tobytes()]], "ε̄"
        )
        assert len(failures) == 1 and "pass 2 differs" in failures[0]

    def test_certificate_is_above_sampled_gap(self):
        layers = self._tiny_layers()
        eps = self._epsilons(layers)
        gap = checks.sampled_global_gap(
            layers, 0.01, np.zeros(3), np.ones(3), np.random.default_rng(0), pairs=512
        )
        assert checks.alg1_certificate("tiny", eps, gap) == []
        assert checks.alg1_certificate("tiny", gap / 2, gap) != []


class TestRefutationChecks:
    """Refutations without a witness point report an attack lower bound."""

    @staticmethod
    def _layers():
        from repro.nn.affine import AffineLayer

        return [AffineLayer(np.array([[2.0, -1.0]]), np.zeros(1), False)]

    def _refuted(self, eps_lb, lo, hi):
        from types import SimpleNamespace

        return SimpleNamespace(
            center=np.array([0.5, 0.5]), epsilons=np.array([eps_lb]),
            output_lo=np.array([lo]), output_hi=np.array([hi]),
            detail={"verdict": "refuted"},
        )

    def _check(self, cert, epsilon=0.1):
        ball = np.array([0.4, 0.4]), np.array([0.6, 0.6])
        return checks.local_verdict(
            "q", self._layers(), cert, epsilon, *ball, np.random.default_rng(0)
        )

    def test_lower_bound_within_own_sound_bounds_passes(self):
        # F(center) = 0.5; the ball's exact output range is [0.2, 0.8].
        assert self._check(self._refuted(0.3, 0.2, 0.8)) == []

    def test_lower_bound_not_above_epsilon_fails(self):
        assert self._check(self._refuted(0.05, 0.2, 0.8)) != []

    def test_lower_bound_above_own_sound_bounds_fails(self):
        assert "sound bound" in self._check(self._refuted(0.4, 0.2, 0.8))[0]

    def test_inflated_lower_bound_fails_against_exact(self):
        exact = self._refuted(0.3, 0.2, 0.8)
        assert checks.exact_refutation("q", np.array([0.3]), exact) == []
        assert checks.exact_refutation("q", np.array([0.31]), exact) != []
