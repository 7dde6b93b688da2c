"""MILP/LP encodings of ReLU networks and twin-network pairs.

Implements the paper's §II-B/§II-C machinery:

* :mod:`repro.encoding.bigm` — exact big-M encoding of a ReLU given
  pre-activation bounds.
* :mod:`repro.encoding.relaxation` — the triangle relaxation of a ReLU
  (Eq. 4) and the ReLU *distance* relaxation (Eq. 6 / Fig. 3).
* :mod:`repro.encoding.single` — one network copy as a MILP.
* :mod:`repro.encoding.btne` — the basic twin-network encoding of [2]:
  two independent copies tied only at input and output.
* :mod:`repro.encoding.itne` — the paper's interleaving twin-network
  encoding: per-neuron distance variables ``Δy``, ``Δx`` link the copies,
  enabling per-neuron choice of exact vs. relaxed encodings.
"""

from __future__ import annotations

from repro.encoding.assembly import RowBlockBuilder, affine_link_rows, row_dot
from repro.encoding.bigm import encode_relu_exact, relu_exact_rows
from repro.encoding.btne import BtneEncoding, encode_btne
from repro.encoding.itne import ItneEncoding, encode_first_copy, encode_itne
from repro.encoding.relaxation import (
    couple_triangle_rows,
    distance_relaxed_rows,
    encode_distance_relaxed,
    encode_relu_triangle,
    eq4_score,
    eq6_bounds,
    eq6_score,
    relu_triangle_rows,
)
from repro.encoding.single import SingleEncoding, encode_single_network

__all__ = [
    "RowBlockBuilder",
    "affine_link_rows",
    "row_dot",
    "encode_relu_exact",
    "relu_exact_rows",
    "encode_relu_triangle",
    "relu_triangle_rows",
    "encode_distance_relaxed",
    "distance_relaxed_rows",
    "couple_triangle_rows",
    "eq6_bounds",
    "eq4_score",
    "eq6_score",
    "SingleEncoding",
    "encode_single_network",
    "BtneEncoding",
    "encode_btne",
    "ItneEncoding",
    "encode_first_copy",
    "encode_itne",
]
