"""Symbolic linear bound propagation (CROWN/DeepPoly-style backsubstitution).

Plain IBP concretizes to a box after every layer, so the dependency
between neurons is lost immediately and the big-M ranges it produces
grow exponentially loose with depth.  The symbolic propagator instead
keeps each pre-activation as a pair of *linear* functions of the input,

    A_L x(0) + c_L  ≤  y(i)  ≤  A_U x(0) + c_U,

obtained by substituting backward through the affine chain and replacing
every intervening ReLU with sound linear lower/upper relaxations (the
CROWN / DeepPoly family):

* stable neurons substitute exactly (identity or zero);
* an unstable neuron ``y ∈ [l, u]`` uses the chord ``u(y − l)/(u − l)``
  as upper relaxation and the adaptive slope (identity when ``u ≥ −l``,
  zero otherwise) as lower relaxation.

Concretizing the final linear pair over the input box yields bounds that
are never looser than one affine step of interval arithmetic — and each
layer's result is additionally intersected with the IBP box, so the
output is *guaranteed* to be contained in the IBP bounds.

The twin variant does the same in distance space: ``Δy(i)`` is kept
linear in the input perturbation ``Δx(0)`` (``Δy = W Δx`` has no bias),
and the nonlinear distance relation ``Δx = relu(y + Δy) − relu(y)`` is
replaced by the chords of its envelope ``min(0, Δy) ≤ Δx ≤ max(0, Δy)``
(Fig. 3 of the paper), tightened to exact substitution wherever the
value bounds prove both copies stably active or stably inactive.  These
distance bounds seed the ITNE/BTNE encoders and Algorithm 1's range
table through :meth:`repro.bounds.ranges.RangeTable.from_interval_propagation`:
this is the one bound method every certifier starts from.
"""

from __future__ import annotations

from typing import Any, Callable, TypeVar

import numpy as np

from repro import _sanitize
from repro.bounds.batched import BatchedBox, DeltaSpec
from repro.bounds.interval import Box
from repro.bounds.propagator import (
    BatchedLayerBounds,
    BoxStack,
    IBPPropagator,
    LayerBounds,
)
from repro.bounds.twin_ibp import relu_distance_interval
from repro.nn.affine import AffineLayer

#: Linear relaxation of one activation layer: element-wise coefficient
#: arrays ``(d_lo, b_lo, d_hi, b_hi)`` such that
#: ``d_lo·y + b_lo ≤ act(y) ≤ d_hi·y + b_hi`` over the layer's y-range.
Relaxation = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: A backsubstitution kernel: ``(layers, t, box, relaxations,
#: with_bias) -> (lo, hi)`` — :func:`_backsubstitute` for one box,
#: :func:`_backsubstitute_batch` for a ``(Q, n)`` stack.
Backsubstitute = Callable[
    [list[AffineLayer], int, Any, list[Relaxation], bool],
    tuple[np.ndarray, np.ndarray],
]

#: The record the symbolic layer loop fills (the IBP record's type).
Record = TypeVar("Record", LayerBounds, BatchedLayerBounds)


def _identity_relaxation(shape: tuple[int, ...]) -> Relaxation:
    one = np.ones(shape)
    zero = np.zeros(shape)
    return one, zero, one.copy(), zero.copy()


def _relu_relaxation_arrays(lo: np.ndarray, hi: np.ndarray) -> Relaxation:
    """CROWN relaxation of ``relu(y)`` over ``y ∈ [lo, hi]``.

    Stable-active → identity, stable-inactive → zero; unstable neurons
    get the chord as upper bound and the adaptive identity/zero slope as
    lower bound (minimizing the relaxation area).

    Shape-agnostic (every operation is element-wise), so it serves both
    the scalar ``(n,)`` path and the batched ``(Q, n)`` stacks with
    bit-identical per-row results.
    """
    active = lo >= 0.0
    inactive = hi <= 0.0
    denom = np.where(hi - lo > 0.0, hi - lo, 1.0)
    slope = hi / denom
    d_hi = np.where(inactive, 0.0, np.where(active, 1.0, slope))
    b_hi = np.where(inactive | active, 0.0, -slope * lo)
    d_lo = np.where(inactive, 0.0, np.where(active, 1.0,
                                            np.where(hi >= -lo, 1.0, 0.0)))
    b_lo = np.zeros_like(lo)
    return d_lo, b_lo, d_hi, b_hi


def _distance_relaxation_arrays(
    y_lo: np.ndarray,
    y_hi: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> Relaxation:
    """Linear envelope of ``Δx = relu(y + Δy) − relu(y)`` in ``Δy``.

    ``y ∈ [y_lo, y_hi]`` and ``Δy ∈ [lo, hi]``.  Uses the Fig. 3 facts
    ``min(0, Δy) ≤ Δx ≤ max(0, Δy)``: the chord of ``max(0, ·)`` over
    ``Δy ∈ [l, u]`` bounds above (convex), the chord of ``min(0, ·)``
    bounds below (concave).  Neurons whose value boxes prove both copies
    stably active substitute ``Δx = Δy`` exactly; both-inactive neurons
    substitute ``Δx = 0``.  Element-wise, hence shape-agnostic.
    """
    yhat_lo = y_lo + lo
    yhat_hi = y_hi + hi
    both_active = (y_lo >= 0.0) & (yhat_lo >= 0.0)
    both_inactive = (y_hi <= 0.0) & (yhat_hi <= 0.0)

    denom = np.where(hi - lo > 0.0, hi - lo, 1.0)
    up_slope = hi / denom        # chord of max(0, ·): (l, 0) -> (u, u)
    lo_slope = -lo / denom       # chord of min(0, ·): (l, l) -> (u, 0)
    d_hi = np.where(hi <= 0.0, 0.0, np.where(lo >= 0.0, 1.0, up_slope))
    b_hi = np.where((hi <= 0.0) | (lo >= 0.0), 0.0, -up_slope * lo)
    d_lo = np.where(hi <= 0.0, 1.0, np.where(lo >= 0.0, 0.0, lo_slope))
    b_lo = np.where((hi <= 0.0) | (lo >= 0.0), 0.0, -lo_slope * hi)

    d_lo = np.where(both_active, 1.0, np.where(both_inactive, 0.0, d_lo))
    d_hi = np.where(both_active, 1.0, np.where(both_inactive, 0.0, d_hi))
    b_lo = np.where(both_active | both_inactive, 0.0, b_lo)
    b_hi = np.where(both_active | both_inactive, 0.0, b_hi)
    return d_lo, b_lo, d_hi, b_hi


def _backsubstitute(
    layers: list[AffineLayer],
    t: int,
    box: Box,
    relaxations: list[Relaxation],
    with_bias: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Concrete bounds of layer ``t``'s pre-activation by backsubstitution.

    Starting from ``y(t) = W(t) h(t−1) (+ b(t))``, each earlier
    activation ``h(k) = act(y(k))`` is replaced by its linear relaxation
    (``relaxations[k]``, sign-split per coefficient) and each ``y(k)``
    by its affine definition, until the bound is linear in the input;
    the final pair is concretized over ``box``.  ``with_bias=False``
    runs the same recursion in distance space (``Δy = W Δx``, biasless).

    Returns:
        ``(lo, hi)`` arrays for ``y(t)`` (or ``Δy(t)``).
    """
    a_lo = layers[t].weight.copy()
    a_hi = layers[t].weight.copy()
    if with_bias:
        c_lo = layers[t].bias.copy()
        c_hi = layers[t].bias.copy()
    else:
        c_lo = np.zeros(layers[t].out_dim)
        c_hi = np.zeros(layers[t].out_dim)

    for k in range(t - 1, -1, -1):
        d_lo, b_lo, d_hi, b_hi = relaxations[k]
        pos, neg = np.maximum(a_lo, 0.0), np.minimum(a_lo, 0.0)
        c_lo = c_lo + pos @ b_lo + neg @ b_hi
        a_lo = pos * d_lo + neg * d_hi
        pos, neg = np.maximum(a_hi, 0.0), np.minimum(a_hi, 0.0)
        c_hi = c_hi + pos @ b_hi + neg @ b_lo
        a_hi = pos * d_hi + neg * d_lo
        if with_bias:
            c_lo = c_lo + a_lo @ layers[k].bias
            c_hi = c_hi + a_hi @ layers[k].bias
        a_lo = a_lo @ layers[k].weight
        a_hi = a_hi @ layers[k].weight

    pos, neg = np.maximum(a_lo, 0.0), np.minimum(a_lo, 0.0)
    lo = pos @ box.lo + neg @ box.hi + c_lo
    pos, neg = np.maximum(a_hi, 0.0), np.minimum(a_hi, 0.0)
    hi = pos @ box.hi + neg @ box.lo + c_hi
    return lo, hi


def _backsubstitute_batch(
    layers: list[AffineLayer],
    t: int,
    boxes: BatchedBox,
    relaxations: list[Relaxation],
    with_bias: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Backsubstitution for all ``Q`` queries in one pass.

    The batched twin of :func:`_backsubstitute`: the coefficient
    matrices carry a leading query axis (``(Q, m_t, m_k)``), relaxation
    entries are ``(Q, m_k)`` stacks, and every matmul is arranged in the
    *stacked* form (batch through numpy's leading axes, never folded
    into a wider 2-D product) so each per-query slice runs the exact
    scalar computation — row ``q`` of the result is bit-identical to
    backsubstituting query ``q`` alone.

    The coefficients start 2-D (shared across the batch: layer ``t``'s
    weight) and pick up the query axis at the first per-query relaxation
    by broadcasting, so a depth-1 backsubstitution never materializes
    ``Q`` weight copies.
    """
    a_lo: np.ndarray = layers[t].weight
    a_hi: np.ndarray = layers[t].weight
    c_lo: np.ndarray
    c_hi: np.ndarray
    if with_bias:
        c_lo = layers[t].bias
        c_hi = layers[t].bias
    else:
        c_lo = np.zeros(layers[t].out_dim)
        c_hi = np.zeros(layers[t].out_dim)

    for k in range(t - 1, -1, -1):
        d_lo, b_lo, d_hi, b_hi = relaxations[k]
        pos, neg = np.maximum(a_lo, 0.0), np.minimum(a_lo, 0.0)
        c_lo = (
            c_lo
            + (pos @ b_lo[..., None])[..., 0]
            + (neg @ b_hi[..., None])[..., 0]
        )
        a_lo = pos * d_lo[:, None, :] + neg * d_hi[:, None, :]
        pos, neg = np.maximum(a_hi, 0.0), np.minimum(a_hi, 0.0)
        c_hi = (
            c_hi
            + (pos @ b_hi[..., None])[..., 0]
            + (neg @ b_lo[..., None])[..., 0]
        )
        a_hi = pos * d_hi[:, None, :] + neg * d_lo[:, None, :]
        if with_bias:
            c_lo = c_lo + a_lo @ layers[k].bias
            c_hi = c_hi + a_hi @ layers[k].bias
        a_lo = a_lo @ layers[k].weight
        a_hi = a_hi @ layers[k].weight

    pos, neg = np.maximum(a_lo, 0.0), np.minimum(a_lo, 0.0)
    lo = (
        (pos @ boxes.lo[..., None])[..., 0]
        + (neg @ boxes.hi[..., None])[..., 0]
        + c_lo
    )
    pos, neg = np.maximum(a_hi, 0.0), np.minimum(a_hi, 0.0)
    hi = (
        (pos @ boxes.hi[..., None])[..., 0]
        + (neg @ boxes.lo[..., None])[..., 0]
        + c_hi
    )
    return lo, hi


def _symbolic_bounds(
    layers: list[AffineLayer],
    ibp: Record,
    backsubstitute: Backsubstitute,
    method: str,
) -> Record:
    """The one symbolic layer loop, over a box or a ``(Q, n)`` stack.

    Backsubstitutes every layer over ``ibp``'s input (and, for twin
    runs, perturbation) box with ``backsubstitute`` and intersects each
    result tightest-wins with the IBP box of the same layer; the result
    is a record of ``ibp``'s own type.
    """
    make = type(ibp.input_box)
    y_boxes = []
    x_boxes = []
    value_relax: list[Relaxation] = []
    for t, layer in enumerate(layers):
        lo, hi = backsubstitute(layers, t, ibp.input_box, value_relax, True)
        y_box = make(lo, hi).intersect(ibp.y[t])
        if _sanitize.ENABLED:
            _sanitize.check_containment(
                y_box.lo, y_box.hi, ibp.y[t].lo, ibp.y[t].hi,
                f"symbolic y[{t}] vs ibp",
            )
        y_boxes.append(y_box)
        if layer.relu:
            x_boxes.append(y_box.relu())
            value_relax.append(_relu_relaxation_arrays(y_box.lo, y_box.hi))
        else:
            x_boxes.append(make(y_box.lo, y_box.hi))
            value_relax.append(_identity_relaxation(y_box.lo.shape))

    if ibp.delta_box is None:
        return type(ibp)(
            input_box=ibp.input_box, y=y_boxes, x=x_boxes, method=method
        )

    assert ibp.dy is not None and ibp.dx is not None
    dy_boxes = []
    dx_boxes = []
    dist_relax: list[Relaxation] = []
    for t, layer in enumerate(layers):
        lo, hi = backsubstitute(layers, t, ibp.delta_box, dist_relax, False)
        dy_box = make(lo, hi).intersect(ibp.dy[t])
        if _sanitize.ENABLED:
            _sanitize.check_containment(
                dy_box.lo, dy_box.hi, ibp.dy[t].lo, ibp.dy[t].hi,
                f"symbolic dy[{t}] vs ibp",
            )
        dy_boxes.append(dy_box)
        if layer.relu:
            dx_box = relu_distance_interval(y_boxes[t], dy_box)
            dist_relax.append(
                _distance_relaxation_arrays(
                    y_boxes[t].lo, y_boxes[t].hi, dy_box.lo, dy_box.hi
                )
            )
        else:
            dx_box = make(dy_box.lo, dy_box.hi)
            dist_relax.append(_identity_relaxation(dy_box.lo.shape))
        dx_box = dx_box.intersect(ibp.dx[t])
        if _sanitize.ENABLED:
            _sanitize.check_containment(
                dx_box.lo, dx_box.hi, ibp.dx[t].lo, ibp.dx[t].hi,
                f"symbolic dx[{t}] vs ibp",
            )
        dx_boxes.append(dx_box)

    return type(ibp)(
        input_box=ibp.input_box,
        y=y_boxes,
        x=x_boxes,
        delta_box=ibp.delta_box,
        dy=dy_boxes,
        dx=dx_boxes,
        method=method,
    )


class SymbolicPropagator:
    """Backward-substitution linear bounds (value and twin distance).

    Every layer's symbolic result is intersected with the IBP box before
    it feeds later relaxations, so the produced :class:`LayerBounds` are
    always contained in (usually strictly tighter than) plain IBP.
    """

    name = "symbolic"

    def __init__(self) -> None:
        self._ibp = IBPPropagator()

    def propagate(
        self,
        layers: list[AffineLayer],
        input_box: Box,
        delta: float | Box | None = None,
    ) -> LayerBounds:
        ibp = self._ibp.propagate(layers, input_box, delta)
        return _symbolic_bounds(layers, ibp, _backsubstitute, self.name)

    def propagate_many(
        self,
        layers: list[AffineLayer],
        input_boxes: BoxStack,
        deltas: DeltaSpec = None,
    ) -> BatchedLayerBounds:
        """One backsubstitution pass serving all ``Q`` stacked queries.

        The same layer loop as :meth:`propagate` — batched IBP first,
        per-layer batched backsubstitution intersected tightest-wins
        with the IBP stacks — with every kernel in the stacked-matmul
        form, so row ``q`` of the result is bit-identical to the scalar
        ``propagate`` of query ``q``.
        """
        ibp = self._ibp.propagate_many(layers, input_boxes, deltas)
        return _symbolic_bounds(layers, ibp, _backsubstitute_batch, self.name)
