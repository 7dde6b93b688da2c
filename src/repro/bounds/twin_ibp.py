"""Twin-network interval propagation: value and distance boxes together.

This is the interval-arithmetic analogue of the paper's ITNE: alongside
the value interval of one network copy we track the interval of the
*distance* ``Δ`` between the two copies.  Through an affine layer the
distance transforms without the bias (``Δy = W Δx``); through a ReLU the
exact distance relation of Fig. 3,

    min(0, Δy) ≤ Δx ≤ max(0, Δy),        |Δx| ≤ |Δy|,

combined with what the value intervals of both copies admit, yields a
sound ``Δx`` interval.  These intervals seed the big-M constants of the
MILP encodings and the initial range table of Algorithm 1.

Every function here runs on a single :class:`~repro.bounds.interval.Box`
or on a ``(Q, n)`` :class:`~repro.bounds.batched.BatchedBox` stack; the
bodies are element-wise or go through ``affine``, so stacked rows are
bit-identical to the per-query calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic

import numpy as np

from repro.bounds.batched import AnyBox, BatchedBox, as_batched_delta
from repro.bounds.interval import Box
from repro.nn.affine import AffineLayer


@dataclass
class TwinBounds(Generic[AnyBox]):
    """Per-layer interval records of a twin propagation.

    Attributes:
        x: Value box of the first copy after each layer (index 0 is the
            input box).
        dx: Distance box after each layer (index 0 is the perturbation).
        y: Pre-activation value box per layer (index i bounds y(i+1)).
        dy: Pre-activation distance box per layer.
    """

    x: list[AnyBox] = field(default_factory=list)
    dx: list[AnyBox] = field(default_factory=list)
    y: list[AnyBox] = field(default_factory=list)
    dy: list[AnyBox] = field(default_factory=list)

    @property
    def output_distance(self) -> AnyBox:
        """Distance box of the network output (Δx(n))."""
        return self.dx[-1]


def relu_distance_interval(y_box: AnyBox, dy_box: AnyBox) -> AnyBox:
    """Sound interval for ``Δx = relu(y + Δy) − relu(y)``.

    Intersects two valid enclosures:

    1. The sign/magnitude facts ``min(0, Δy̲) ≤ Δx ≤ max(0, Δy̅)``.
    2. The difference of the (correlated, but soundly treated as
       independent) value enclosures ``relu(ŷ) − relu(y)``.

    Degenerate cases where both copies are certainly active (identity)
    or certainly inactive (zero) are exact.
    """
    make = type(y_box)
    yhat_box = make(y_box.lo + dy_box.lo, y_box.hi + dy_box.hi)

    # Certainly-active: Δx = Δy exactly.
    both_active = (y_box.lo >= 0.0) & (yhat_box.lo >= 0.0)
    # Certainly-inactive: Δx = 0 exactly.
    both_inactive = (y_box.hi <= 0.0) & (yhat_box.hi <= 0.0)

    lo1 = np.minimum(0.0, dy_box.lo)
    hi1 = np.maximum(0.0, dy_box.hi)

    relu_y = y_box.relu()
    relu_yhat = yhat_box.relu()
    lo2 = relu_yhat.lo - relu_y.hi
    hi2 = relu_yhat.hi - relu_y.lo

    lo = np.maximum(lo1, lo2)
    hi = np.minimum(hi1, hi2)

    lo = np.where(both_active, dy_box.lo, np.where(both_inactive, 0.0, lo))
    hi = np.where(both_active, dy_box.hi, np.where(both_inactive, 0.0, hi))
    return make(lo, hi)


def _as_delta(delta: "float | AnyBox", boxes: AnyBox) -> AnyBox:
    """The perturbation in the container of ``boxes``.

    A radius δ becomes the box ``[-δ, δ]^n`` (per row, for a stack); an
    explicit box passes through after a dimension check.
    """
    if isinstance(boxes, BatchedBox):
        stack = as_batched_delta(delta, boxes.num_queries, boxes.dim)
        assert stack is not None  # a radius or a stack is never None
        return stack
    if isinstance(delta, Box):
        if delta.dim != boxes.dim:
            raise ValueError("perturbation box dimension mismatch")
        return delta
    return Box.uniform(boxes.dim, -float(delta), float(delta))


def propagate_twin_box(
    layers: list[AffineLayer], input_box: AnyBox, delta: "float | AnyBox"
) -> TwinBounds[AnyBox]:
    """Propagate value and distance boxes through an affine chain.

    Args:
        layers: Normal-form network.
        input_box: Box over the flattened input domain ``X``, or a
            ``(Q, n)`` stack of them.
        delta: Input perturbation — either the L∞ radius δ (a float) or
            an explicit distance box (a stack for a stacked input).

    Returns:
        A :class:`TwinBounds` with per-layer value/distance intervals,
        in the container of ``input_box``.
    """
    dx_box = _as_delta(delta, input_box)
    bounds = TwinBounds(x=[input_box], dx=[dx_box])
    x_box, d_box = input_box, dx_box
    for layer in layers:
        y_box = x_box.affine(layer.weight, layer.bias)
        dy_box = d_box.affine(layer.weight, 0.0)
        bounds.y.append(y_box)
        bounds.dy.append(dy_box)
        if layer.relu:
            x_box = y_box.relu()
            d_box = relu_distance_interval(y_box, dy_box)
        else:
            x_box, d_box = y_box, dy_box
        bounds.x.append(x_box)
        bounds.dx.append(d_box)
    return bounds
