"""Interleaving twin-network encoding (ITNE) — the paper's §II-B.

One copy of the network is encoded explicitly (variables ``y``, ``x``);
the second copy exists only through per-neuron *distance* variables
``Δy = ŷ − y`` and ``Δx = x̂ − x``.  The nonlinear map ``ŷ → x̂`` is
replaced by the distance relation ``Δx = relu(y + Δy) − relu(y)``:

* a *refined* neuron encodes both its own ReLU and its twin's ReLU
  exactly (big-M binaries), making the distance relation exact;
* a *relaxed* neuron uses the triangle relaxation (Eq. 4) for its own
  ReLU and the butterfly relaxation (Eq. 6) for the distance relation —
  no binaries at all.

With every neuron refined, optimizing ``Δx(n)`` over this encoding
solves the exact global-robustness problem of Eq. 1.

Pre-activations ``y(i)`` and their distances ``Δy(i)`` are model
variables linked to the previous layer by one equality block each
(``y − W x = b``, ``Δy − W Δx = 0``); the globally valid range cuts of
Algorithm 1 become their variable bounds.  The default assembly is
array-native (per-layer COO blocks, see :mod:`repro.encoding.assembly`);
``vectorized=False`` builds the identical formulation with per-neuron
expression dicts for equivalence testing and benchmarking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.bounds.interval import Box
from repro.bounds.ranges import LayerRanges, RangeTable
from repro.encoding.assembly import RowBlockBuilder, affine_link_rows, row_dot
from repro.encoding.bigm import encode_relu_exact, relu_exact_rows
from repro.encoding.relaxation import (
    couple_triangle_rows,
    distance_relaxed_rows,
    encode_distance_relaxed,
    encode_relu_triangle,
    relu_triangle_rows,
)
from repro.encoding.single import SingleEncoding
from repro.milp import Model, Sense
from repro.milp.expr import LinExpr, Var, as_expr
from repro.nn.affine import AffineLayer

Handle = "Var | LinExpr"


@dataclass
class ItneEncoding:
    """Handles into an ITNE model.

    Attributes:
        model: The underlying MILP/LP.
        input_vars: Variables for ``x(0)`` (one network copy's input).
        input_dist_vars: Variables for ``Δx(0)`` (the perturbation).
        y: Per-layer pre-activation variables of the first copy.
        dy: Per-layer pre-activation *distance* variables.
        x: Per-layer post-activation handles of the first copy.
        dx: Per-layer post-activation distance handles (an expression
            ``x̂ − x`` for refined neurons, a variable otherwise).
        num_binaries: Integer variables introduced (refinement cost).
    """

    model: Model
    input_vars: list[Var]
    input_dist_vars: list[Var]
    y: list[list[Var]] = field(default_factory=list)
    dy: list[list[Var]] = field(default_factory=list)
    x: list[list[Var | LinExpr]] = field(default_factory=list)
    dx: list[list[Var | LinExpr]] = field(default_factory=list)

    @property
    def output_distance(self) -> list[Var | LinExpr]:
        """Distance handles of the output layer (Δx(n))."""
        return self.dx[-1]

    @property
    def output(self) -> list[Var | LinExpr]:
        """First-copy output handles (x(n))."""
        return self.x[-1]

    @property
    def num_binaries(self) -> int:
        """Binary variables in the model (0 for a pure LP relaxation)."""
        return self.model.num_binary


def encode_itne(
    layers: list[AffineLayer],
    input_box: Box,
    delta: float | Box,
    ranges: RangeTable | None = None,
    refine_mask: list[np.ndarray] | None = None,
    couple_second_copy: bool = True,
    clip_second_input: bool = True,
    model: Model | None = None,
    prefix: str = "t",
    vectorized: bool = True,
) -> ItneEncoding:
    """Encode the twin pair under ITNE.

    Args:
        layers: Normal-form network (or sub-network for ND).
        input_box: Range of the first copy's input — the input domain
            ``X`` for the full network, or the propagated ``x(i−w)``
            range for a sub-network.
        delta: Perturbation: the L∞ bound δ (float) for the full
            network, or the propagated ``Δx(i−w)`` box for a sub-network.
        ranges: Per-layer ``y``/``Δy`` bounds used for big-M constants
            and relaxations; the symbolic bounds
            (:meth:`~repro.bounds.ranges.RangeTable.from_interval_propagation`)
            when omitted.
        refine_mask: Per-layer boolean arrays; ``True`` = encode this
            neuron exactly (binaries), ``False`` = relax (Eq. 4 + Eq. 6).
            ``None`` refines every neuron (exact encoding).
        couple_second_copy: Additionally apply the triangle relaxation to
            the implicit second copy ``x̂ = x + Δx`` (sound tightening
            enabled by the interleaving variables).
        clip_second_input: Constrain ``x(0) + Δx(0)`` inside
            ``input_box`` (both inputs must lie in the domain, per
            Definition 1).
        model: Existing model to extend.
        prefix: Variable-name prefix.
        vectorized: Emit per-layer constraint blocks (default); False
            assembles the same formulation per neuron via expression
            dicts (reference path).

    Returns:
        An :class:`ItneEncoding`.
    """
    model = model or Model("itne")
    if isinstance(delta, Box):
        delta_box = delta
        if delta_box.dim != input_box.dim:
            raise ValueError("perturbation box dimension mismatch")
    else:
        delta_box = Box.uniform(input_box.dim, -float(delta), float(delta))
    if ranges is None:
        ranges = RangeTable.from_interval_propagation(layers, input_box, delta_box)

    input_vars = model.add_vars_array(
        input_box.dim, lb=input_box.lo, ub=input_box.hi, prefix=f"{prefix}.x0"
    )
    input_dist_vars = model.add_vars_array(
        delta_box.dim, lb=delta_box.lo, ub=delta_box.hi, prefix=f"{prefix}.dx0"
    )
    if clip_second_input:
        if vectorized:
            clip = RowBlockBuilder()
            for k, (x0, d0) in enumerate(zip(input_vars, input_dist_vars)):
                pair = [x0.index, d0.index]
                clip.add(pair, [1.0, 1.0], Sense.GE, float(input_box.lo[k]))
                clip.add(pair, [1.0, 1.0], Sense.LE, float(input_box.hi[k]))
            clip.flush(model, name=f"{prefix}.clip")
        else:
            for k, (x0, d0) in enumerate(zip(input_vars, input_dist_vars)):
                second = x0 + d0
                model.add_constr(second >= float(input_box.lo[k]))
                model.add_constr(second <= float(input_box.hi[k]))

    enc = ItneEncoding(model, input_vars, input_dist_vars)
    cur_x: list[Var | LinExpr] = list(input_vars)
    cur_dx: list[Var | LinExpr] = list(input_dist_vars)

    for i, layer in enumerate(layers):
        layer_ranges = ranges.layer(i + 1)
        mask = None if refine_mask is None else refine_mask[i]
        m_i = layer.out_dim
        y_vars = _first_copy_link(model, layer, layer_ranges, cur_x, prefix, i, vectorized)
        # Distance range cuts, as for y (see _first_copy_link).
        if layer.relu:
            dy_lo, dy_hi = layer_ranges.dy.lo, layer_ranges.dy.hi
        else:
            dy_lo, dy_hi = -math.inf, math.inf
        dy_vars = model.add_vars_array(
            m_i, lb=dy_lo, ub=dy_hi, prefix=f"{prefix}.dy{i}"
        )
        rows: RowBlockBuilder | None = None
        if vectorized:
            affine_link_rows(
                model, dy_vars, layer.weight, cur_dx, np.zeros(m_i),
                name=f"{prefix}.l{i}.dlink",
            )
            rows = RowBlockBuilder()
        else:
            for j in range(m_i):
                model.add_constr(
                    dy_vars[j] == row_dot(layer.weight[j], cur_dx, 0.0)
                )

        if not layer.relu:
            x_list: list[Var | LinExpr] = list(y_vars)
            dx_list: list[Var | LinExpr] = list(dy_vars)
        else:
            x_list = []
            dx_list = []
            for j in range(m_i):
                y_var, dy_var = y_vars[j], dy_vars[j]
                y_lb, y_ub = layer_ranges.y.scalar(j)
                dy_lb, dy_ub = layer_ranges.dy.scalar(j)
                tag = f"{prefix}.l{i}n{j}"
                refine = True if mask is None else bool(mask[j])
                x_var = _first_copy_relu(model, rows, y_var, y_lb, y_ub, refine, tag)
                x_list.append(x_var)
                if refine:
                    if rows is not None:
                        xhat_var = relu_exact_rows(
                            model,
                            rows,
                            y_var + dy_var,
                            y_lb + dy_lb,
                            y_ub + dy_ub,
                            name=f"{tag}.hat",
                        )
                    else:
                        xhat_var = encode_relu_exact(
                            model,
                            y_var + dy_var,
                            y_lb + dy_lb,
                            y_ub + dy_ub,
                            name=f"{tag}.hat",
                        )
                    dx_list.append(as_expr(xhat_var) - as_expr(x_var))
                else:
                    if rows is not None:
                        dx_var = distance_relaxed_rows(
                            model, rows, dy_var, dy_lb, dy_ub, name=tag
                        )
                        if couple_second_copy:
                            couple_triangle_rows(
                                rows,
                                x_var,
                                dx_var,
                                y_var,
                                dy_var,
                                y_lb + dy_lb,
                                y_ub + dy_ub,
                            )
                    else:
                        dx_var = encode_distance_relaxed(
                            model, dy_var, dy_lb, dy_ub, name=tag
                        )
                        if couple_second_copy:
                            _couple_triangle(
                                model,
                                x_var + dx_var,
                                y_var + dy_var,
                                y_lb + dy_lb,
                                y_ub + dy_ub,
                            )
                    dx_list.append(dx_var)
        if rows is not None:
            rows.flush(model, name=f"{prefix}.l{i}.relu")
        enc.y.append(list(y_vars))
        enc.dy.append(list(dy_vars))
        enc.x.append(x_list)
        enc.dx.append(dx_list)
        cur_x, cur_dx = x_list, dx_list
    return enc


def encode_first_copy(
    layers: list[AffineLayer],
    input_box: Box,
    ranges: RangeTable,
    refine_mask: list[np.ndarray] | None = None,
    vectorized: bool = True,
) -> SingleEncoding:
    """The first-copy rows of :func:`encode_itne`, without the twin.

    Same input box, same ``y`` range cuts, same ReLU rows (big-M for
    refined neurons, the Eq. 4 triangle for relaxed ones) — built by the
    same helpers — but no distance variables, clip rows or second-copy
    coupling.  Its constraints are a subset of the ITNE model's, so any
    bound on ``y`` it proves is sound.  It is also exactly as tight for
    objectives over ``y``: every feasible point extends to the ITNE
    system with ``Δx ≡ 0`` (0 lies in every distance range, and a wider
    second-copy triangle contains the first copy's).  Algorithm 1 solves
    its ``y`` min/max objectives here.

    Variables carry the names :func:`encode_itne` gives them by default.

    Returns:
        A :class:`~repro.encoding.single.SingleEncoding`.
    """
    model = Model("first-copy")
    prefix = "t"
    input_vars = model.add_vars_array(
        input_box.dim, lb=input_box.lo, ub=input_box.hi, prefix=f"{prefix}.x0"
    )
    enc = SingleEncoding(model=model, input_vars=input_vars)
    cur_x: list[Var | LinExpr] = list(input_vars)
    for i, layer in enumerate(layers):
        layer_ranges = ranges.layer(i + 1)
        mask = None if refine_mask is None else refine_mask[i]
        y_vars = _first_copy_link(model, layer, layer_ranges, cur_x, prefix, i, vectorized)
        x_list = list(y_vars)
        if layer.relu:
            rows = RowBlockBuilder() if vectorized else None
            for j, y_var in enumerate(y_vars):
                y_lb, y_ub = layer_ranges.y.scalar(j)
                refine = True if mask is None else bool(mask[j])
                x_list[j] = _first_copy_relu(
                    model, rows, y_var, y_lb, y_ub, refine, f"{prefix}.l{i}n{j}"
                )
            if rows is not None:
                rows.flush(model, name=f"{prefix}.l{i}.relu")
        enc.y.append(y_vars)
        enc.x.append(x_list)
        cur_x = list(x_list)
    return enc


def _first_copy_link(
    model: Model,
    layer: AffineLayer,
    layer_ranges: LayerRanges,
    cur_x: list[Var | LinExpr],
    prefix: str,
    i: int,
    vectorized: bool,
) -> list[Var]:
    """Pre-activation variables ``y(i)`` tied to ``cur_x`` by ``y − W x = b``.

    Range cuts: Algorithm 1 lists the hidden-neuron ranges y(i−k),
    Δy(i−k) as prerequisites of every sub-network problem.  They are
    globally valid (derived from the full network earlier), so imposing
    them is sound — and necessary: inside a decomposed slice the
    box-relaxed inputs can otherwise reach y/Δy values outside these
    ranges, where the exact big-M encoding admits distance values the
    Eq. 6 butterfly would have cut off (making a *refined* neuron
    paradoxically looser than a relaxed one).  With y/Δy as model
    variables the cuts are simply their bounds; a layer without a ReLU
    gets none.
    """
    if layer.relu:
        y_lo, y_hi = layer_ranges.y.lo, layer_ranges.y.hi
    else:
        y_lo, y_hi = -math.inf, math.inf
    y_vars = model.add_vars_array(layer.out_dim, lb=y_lo, ub=y_hi, prefix=f"{prefix}.y{i}")
    if vectorized:
        affine_link_rows(
            model, y_vars, layer.weight, cur_x, layer.bias, name=f"{prefix}.l{i}.link"
        )
    else:
        for j in range(layer.out_dim):
            model.add_constr(
                y_vars[j] == row_dot(layer.weight[j], cur_x, float(layer.bias[j]))
            )
    return y_vars


def _first_copy_relu(
    model: Model,
    rows: RowBlockBuilder | None,
    y: Var,
    lb: float,
    ub: float,
    refine: bool,
    name: str,
) -> Var:
    """The first copy's ``x = relu(y)``: exact big-M when ``refine``, else Eq. 4.

    Appends to ``rows`` (block assembly) or, when it is ``None``, adds
    the constraints one by one (reference path).
    """
    if refine:
        if rows is not None:
            return relu_exact_rows(model, rows, y, lb, ub, name=name)
        return encode_relu_exact(model, y, lb, ub, name=name)
    if rows is not None:
        return relu_triangle_rows(model, rows, y, lb, ub, name=name)
    return encode_relu_triangle(model, y, lb, ub, name=name)


def _couple_triangle(
    model: Model, xhat: LinExpr, yhat: LinExpr, lb: float, ub: float
) -> None:
    """Triangle constraints on the implicit second copy ``x̂ = x + Δx``."""
    if ub <= 0.0:
        model.add_constr(xhat == 0.0)
        return
    if lb >= 0.0:
        model.add_constr(xhat == yhat)
        return
    model.add_constr(xhat >= 0.0)
    model.add_constr(xhat >= yhat)
    slope = ub / (ub - lb)
    model.add_constr(xhat <= slope * yhat - slope * lb)
