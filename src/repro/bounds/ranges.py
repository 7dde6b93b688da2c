"""Mutable per-layer range tables used by Algorithm 1.

Algorithm 1 evaluates, layer by layer and neuron by neuron, the ranges of
``y(i)_j``, ``Δy(i)_j``, ``x(i)_j`` and ``Δx(i)_j``.  The
:class:`RangeTable` stores these as per-layer :class:`LayerRanges`
records that start from sound interval-propagation values and are
overwritten with tighter LP-derived values as the algorithm proceeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds.interval import Box
from repro.bounds.symbolic import SymbolicPropagator
from repro.nn.affine import AffineLayer


@dataclass
class LayerRanges:
    """Ranges attached to one layer ``i`` (1-based in the paper).

    Attributes:
        y: Pre-activation value box ``y(i)``.
        dy: Pre-activation distance box ``Δy(i)``.
        x: Post-activation value box ``x(i)``.
        dx: Post-activation distance box ``Δx(i)``.
    """

    y: Box
    dy: Box
    x: Box
    dx: Box

    def set_neuron(
        self,
        j: int,
        y: tuple[float, float] | None = None,
        dy: tuple[float, float] | None = None,
        x: tuple[float, float] | None = None,
        dx: tuple[float, float] | None = None,
    ) -> None:
        """Overwrite individual neuron ranges (tightening updates)."""
        for box, pair in ((self.y, y), (self.dy, dy), (self.x, x), (self.dx, dx)):
            if pair is None:
                continue
            lo, hi = pair
            if lo > hi + 1e-9:
                raise ValueError(f"invalid range for neuron {j}: [{lo}, {hi}]")
            box.lo[j] = min(lo, hi)
            box.hi[j] = hi


class RangeTable:
    """All layer ranges of a twin-encoded network.

    Index 0 holds the *input* ranges (``x(0)`` = input domain,
    ``Δx(0)`` = perturbation box); entries 1..n hold per-layer records.
    """

    def __init__(self, input_box: Box, delta_box: Box) -> None:
        self.input = LayerRanges(
            y=Box(input_box.lo.copy(), input_box.hi.copy()),
            dy=Box(delta_box.lo.copy(), delta_box.hi.copy()),
            x=Box(input_box.lo.copy(), input_box.hi.copy()),
            dx=Box(delta_box.lo.copy(), delta_box.hi.copy()),
        )
        self.layers: list[LayerRanges] = []

    @classmethod
    def from_interval_propagation(
        cls,
        layers: list[AffineLayer],
        input_box: Box,
        delta: float | Box,
    ) -> "RangeTable":
        """Initialize every layer from the symbolic bounds (sound baseline).

        The symbolic engine intersects every layer with twin IBP, so the
        table is never looser than the paper's interval seed.  A caller
        wanting the twin-IBP table itself builds it with
        ``IBPPropagator().propagate(layers, input_box, delta).to_range_table()``.

        Args:
            layers: Normal-form network.
            input_box: Input domain.
            delta: L∞ perturbation radius or explicit distance box.
        """
        bounds = SymbolicPropagator().propagate(layers, input_box, delta)
        return bounds.to_range_table()

    def layer(self, i: int) -> LayerRanges:
        """Ranges of layer ``i`` (1-based; 0 returns the input record)."""
        if i == 0:
            return self.input
        return self.layers[i - 1]

    @property
    def num_layers(self) -> int:
        """Number of network layers tracked (input excluded)."""
        return len(self.layers)

    def output_variation_bound(self) -> float:
        """``ε̄ = max(|Δx̲(n)|, |Δx̅(n)|)`` over all outputs (line 14)."""
        last = self.layers[-1].dx
        return float(np.max(np.maximum(np.abs(last.lo), np.abs(last.hi))))

    def output_variation_bounds(self) -> np.ndarray:
        """Per-output ε̄ values (Table I reports outputs separately)."""
        last = self.layers[-1].dx
        return np.maximum(np.abs(last.lo), np.abs(last.hi))
