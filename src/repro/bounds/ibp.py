"""Single-network interval bound propagation (IBP)."""

from __future__ import annotations

from repro.bounds.batched import AnyBox
from repro.nn.affine import AffineLayer


def propagate_box(
    layers: list[AffineLayer], input_box: AnyBox, collect: bool = False
) -> "AnyBox | tuple[AnyBox, list[AnyBox]]":
    """Propagate an input box (or a ``(Q, n)`` stack of them) through a chain.

    The loop runs unchanged on a :class:`~repro.bounds.interval.Box` or
    a :class:`~repro.bounds.batched.BatchedBox`; row ``q`` of a stacked
    result is bit-identical to propagating row ``q`` alone (see the
    :mod:`repro.bounds.batched` bit-identity contract).

    Args:
        layers: Normal-form network (see :mod:`repro.nn.affine`).
        input_box: Box (or box stack) over the flattened input.
        collect: When True, also return per-layer pre-activation boxes.

    Returns:
        The output box, or ``(output_box, pre_activation_boxes)`` when
        ``collect`` is set.  ``pre_activation_boxes[i]`` bounds ``y(i+1)``
        in the paper's indexing.
    """
    box = input_box
    pre_acts: list[AnyBox] = []
    for layer in layers:
        box = box.affine(layer.weight, layer.bias)
        if collect:
            pre_acts.append(box)
        if layer.relu:
            box = box.relu()
    if collect:
        return box, pre_acts
    return box
