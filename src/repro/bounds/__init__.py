"""Interval analysis: boxes, bound propagators, and range tables.

Bound propagation serves two roles in the pipeline:

1. It seeds the big-M constants of every MILP encoding (a valid ``[l, u]``
   range per pre-activation is required for the exact ReLU encoding).
2. It provides the fallback/starting ranges that Algorithm 1's LP-based
   refinement tightens layer by layer.

All engines sit behind one :class:`~repro.bounds.propagator.BoundPropagator`
protocol (``propagate(layers, input_box, delta=None) -> LayerBounds``):

* ``"ibp"`` — plain interval bound propagation; with a ``delta`` the twin
  variant tracks value and *distance* intervals (``Δy``, ``Δx``) side by
  side, using the exact ReLU-distance facts ``0 ∧ Δy ≤ Δx ≤ 0 ∨ Δy``
  from Fig. 3 of the paper;
* ``"twin-ibp"`` — the same twin engine with the perturbation mandatory;
* ``"symbolic"`` — CROWN/DeepPoly-style backward substitution of linear
  relaxations (:mod:`repro.bounds.symbolic`), never looser than IBP and
  usually much tighter; it also propagates distance bounds symbolically.

Every engine also answers a whole ``(Q, n)`` stack of queries in one
vectorized pass (:func:`propagate_many`, returning
:class:`BatchedLayerBounds`), row-for-row bit-identical to the per-query
``propagate``.  Each method writes its layer loop once: the low-level
:func:`propagate_box` / :func:`propagate_twin_box` /
:func:`relu_distance_interval` (the IBP engine's implementation) take a
:class:`Box` or a :class:`BatchedBox` alike.
"""

from __future__ import annotations

from repro.bounds.interval import Box
from repro.bounds.batched import BatchedBox, as_batched_box, as_batched_delta
from repro.bounds.ibp import propagate_box
from repro.bounds.twin_ibp import (
    TwinBounds,
    propagate_twin_box,
    relu_distance_interval,
)
from repro.bounds.propagator import (
    BatchedLayerBounds,
    BoundPropagator,
    IBPPropagator,
    LayerBounds,
    TwinIBPPropagator,
    available_propagators,
    get_propagator,
    propagate_many,
    register_propagator,
)
from repro.bounds.symbolic import SymbolicPropagator
from repro.bounds.ranges import LayerRanges, RangeTable

__all__ = [
    "Box",
    "BatchedBox",
    "BatchedLayerBounds",
    "as_batched_box",
    "as_batched_delta",
    "propagate_box",
    "propagate_twin_box",
    "relu_distance_interval",
    "TwinBounds",
    "LayerRanges",
    "RangeTable",
    "BoundPropagator",
    "LayerBounds",
    "IBPPropagator",
    "TwinIBPPropagator",
    "SymbolicPropagator",
    "available_propagators",
    "get_propagator",
    "propagate_many",
    "register_propagator",
]
