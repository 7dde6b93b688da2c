"""Encode one network copy as a MILP (exact or LP-relaxed per neuron).

Pre-activations are model *variables*: each layer appends free variables
``y(i)`` tied to the previous layer by one equality block
``y − W x = b``.  By default that block (and the per-neuron ReLU rows)
is emitted array-natively — COO triplets straight from the layer's
weight matrix, one :meth:`~repro.milp.model.Model.add_linear_rows` call
per layer (see :mod:`repro.encoding.assembly`).  ``vectorized=False``
builds the identical formulation through dict-based expression
arithmetic, one constraint at a time; it exists as the reference for
equivalence tests and the construction benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.bounds.interval import Box
from repro.bounds.propagator import BoundPropagator, get_propagator
from repro.encoding.assembly import RowBlockBuilder, affine_link_rows, row_dot
from repro.encoding.bigm import encode_relu_exact, relu_exact_rows
from repro.encoding.relaxation import encode_relu_triangle, relu_triangle_rows
from repro.milp import Model, Var
from repro.nn.affine import AffineLayer


@dataclass
class SingleEncoding:
    """Handles into a single-copy encoding.

    Attributes:
        model: The underlying MILP.
        input_vars: Variables for the (flattened) network input.
        y: Per-layer pre-activation variables.
        x: Per-layer post-activation variables (the pre-activation
            variable itself for layers without a ReLU).
        output: Post-activation handles of the final layer.
    """

    model: Model
    input_vars: list[Var]
    y: list[list[Var]] = field(default_factory=list)
    x: list[list[Var]] = field(default_factory=list)

    @property
    def output(self) -> list[Var]:
        """Output-layer handles."""
        return self.x[-1]


def encode_single_network(
    layers: list[AffineLayer],
    input_box: Box,
    relax_mask: list[np.ndarray] | None = None,
    pre_act_bounds: list[Box] | None = None,
    model: Model | None = None,
    prefix: str = "n",
    vectorized: bool = True,
    bounds: str | BoundPropagator = "ibp",
) -> SingleEncoding:
    """Encode ``F(x)`` over ``input_box`` into a MILP.

    Args:
        layers: Normal-form network.
        input_box: Domain of the input variables.
        relax_mask: Optional per-layer boolean arrays; ``True`` relaxes
            that neuron's ReLU with the triangle (Eq. 4) instead of the
            exact big-M encoding.  ``None`` encodes everything exactly.
        pre_act_bounds: Sound per-layer pre-activation boxes; computed by
            the ``bounds`` propagator when omitted.
        model: Existing model to extend (used by the twin encoders).
        prefix: Variable-name prefix.
        vectorized: Emit per-layer constraint blocks (default).  False
            assembles the same formulation per neuron via expression
            dicts (reference path, much slower on wide layers).
        bounds: Bound propagator seeding the big-M / relaxation ranges
            (``"ibp"`` or ``"symbolic"``); ignored when explicit
            ``pre_act_bounds`` are given.

    Returns:
        A :class:`SingleEncoding` with variable handles.
    """
    model = model or Model("single")
    if pre_act_bounds is None:
        pre_act_bounds = get_propagator(bounds).propagate(layers, input_box).y

    input_vars = model.add_vars_array(
        input_box.dim, lb=input_box.lo, ub=input_box.hi, prefix=f"{prefix}.x0"
    )
    enc = SingleEncoding(model=model, input_vars=input_vars)

    current: list[Var] = list(input_vars)
    for i, layer in enumerate(layers):
        y_bounds = pre_act_bounds[i]
        mask = None if relax_mask is None else relax_mask[i]
        y_vars = model.add_vars_array(
            layer.out_dim, lb=-math.inf, ub=math.inf, prefix=f"{prefix}.y{i}"
        )
        rows: RowBlockBuilder | None = None
        if vectorized:
            affine_link_rows(
                model, y_vars, layer.weight, current, layer.bias,
                name=f"{prefix}.l{i}.link",
            )
            rows = RowBlockBuilder()
        else:
            for j, y_var in enumerate(y_vars):
                model.add_constr(
                    y_var == row_dot(layer.weight[j], current, float(layer.bias[j]))
                )

        if not layer.relu:
            x_handles: list[Var] = list(y_vars)
        else:
            x_handles = []
            for j, y_var in enumerate(y_vars):
                lb, ub = y_bounds.scalar(j)
                tag = f"{prefix}.l{i}n{j}"
                relaxed = mask is not None and bool(mask[j])
                if rows is not None:
                    emit = relu_triangle_rows if relaxed else relu_exact_rows
                    x_handles.append(emit(model, rows, y_var, lb, ub, name=tag))
                else:
                    build = encode_relu_triangle if relaxed else encode_relu_exact
                    x_handles.append(build(model, y_var, lb, ub, name=tag))
        if rows is not None:
            rows.flush(model, name=f"{prefix}.l{i}.relu")
        enc.y.append(list(y_vars))
        enc.x.append(x_handles)
        current = x_handles
    return enc
