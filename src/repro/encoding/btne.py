"""Basic twin-network encoding (BTNE) — the scheme of Katz et al. [2].

Two full copies of the network are encoded independently and tied only at
the input (perturbation constraint) and output (distance expressions).
No hidden-layer distance information exists, which is exactly why ND/LPR
over-approximations degrade badly under BTNE (paper Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bounds.interval import Box
from repro.bounds.symbolic import SymbolicPropagator
from repro.encoding.single import SingleEncoding, encode_single_network
from repro.milp import Model, Sense
from repro.milp.expr import LinExpr, Var, as_expr
from repro.nn.affine import AffineLayer


@dataclass
class BtneEncoding:
    """Handles into a BTNE model.

    Attributes:
        model: The underlying MILP.
        first: Encoding of copy ``F(x)``.
        second: Encoding of copy ``F(x̂)``.
        output_distance: Expressions ``Δx(n)_j = x̂(n)_j − x(n)_j``.
    """

    model: Model
    first: SingleEncoding
    second: SingleEncoding
    output_distance: list[LinExpr]


def encode_btne(
    layers: list[AffineLayer],
    input_box: Box,
    delta: float | Box,
    relax_mask: list[np.ndarray] | None = None,
    vectorized: bool = True,
    pre_act_bounds: list[Box] | None = None,
) -> BtneEncoding:
    """Encode the twin pair under BTNE.

    Args:
        layers: Normal-form network.
        input_box: Input domain ``X``.
        delta: L∞ perturbation bound δ (or an explicit perturbation box).
        relax_mask: Optional per-layer relax masks applied to *both*
            copies (True = triangle relaxation).
        vectorized: Emit per-layer constraint blocks (default); False
            uses the per-neuron dict-based reference assembly.
        pre_act_bounds: Sound per-layer pre-activation boxes over
            ``input_box`` seeding both copies' big-M ranges; the
            symbolic bounds when omitted.

    Returns:
        A :class:`BtneEncoding`.
    """
    model = Model("btne")
    # Both copies range over the same input box, so one propagation
    # seeds both encodings.
    if pre_act_bounds is None:
        pre_act_bounds = SymbolicPropagator().propagate(layers, input_box).y
    pre_acts = pre_act_bounds
    first = encode_single_network(
        layers, input_box, relax_mask=relax_mask, pre_act_bounds=pre_acts,
        model=model, prefix="a", vectorized=vectorized,
    )
    second = encode_single_network(
        layers, input_box, relax_mask=relax_mask, pre_act_bounds=pre_acts,
        model=model, prefix="b", vectorized=vectorized,
    )

    if isinstance(delta, Box):
        d_lo, d_hi = delta.lo, delta.hi
    else:
        d_lo = np.full(input_box.dim, -float(delta))
        d_hi = np.full(input_box.dim, float(delta))
    if vectorized:
        from repro.encoding.assembly import RowBlockBuilder

        link = RowBlockBuilder()
        for k, (xa, xb) in enumerate(zip(first.input_vars, second.input_vars)):
            pair = [xb.index, xa.index]
            link.add(pair, [1.0, -1.0], Sense.LE, float(d_hi[k]))
            link.add(pair, [1.0, -1.0], Sense.GE, float(d_lo[k]))
        link.flush(model, name="delta.link")
    else:
        for k, (xa, xb) in enumerate(zip(first.input_vars, second.input_vars)):
            diff = xb - xa
            model.add_constr(diff <= float(d_hi[k]))
            model.add_constr(diff >= float(d_lo[k]))

    output_distance = [
        as_expr(xb) - as_expr(xa)
        for xa, xb in zip(first.output, second.output)
    ]
    return BtneEncoding(model, first, second, output_distance)
