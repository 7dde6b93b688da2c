"""BTNE-based ND/LPR baselines used in the Fig. 4 comparison.

Under the basic twin-network encoding there are no hidden-layer distance
variables, so decomposition and relaxation can only be applied to each
network copy *individually*; the correlation between the copies is lost
after the first sub-network and the resulting global-robustness bounds
degrade badly (7.5×/10.9× in the paper's example).  These functions
implement that deliberately-handicapped behaviour for comparison.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bounds.interval import Box
from repro.certify.local import single_copy_nd
from repro.certify.minmax import min_max_objectives, optimal_ranges
from repro.certify.results import GlobalCertificate
from repro.encoding.btne import encode_btne
from repro.nn.affine import AffineLayer
from repro.nn.network import Network, as_affine_chain


def certify_global_btne_nd(
    network: Network | list[AffineLayer],
    input_box: Box,
    delta: float,
    window: int = 1,
) -> GlobalCertificate:
    """Global robustness via ND under BTNE (distance info lost).

    Each copy's layer ranges are tightened with exact sub-network MILPs
    (like the local ND), but because the encoding carries no hidden
    distance variables, the output distance can only be bounded by the
    difference of the two copies' *independent* output ranges.
    """
    t0 = time.perf_counter()
    layers = as_affine_chain(network)
    # Per-copy ND ranges (identical for both copies by symmetry).
    out, milp_count = single_copy_nd(layers, input_box, window)
    # Output distance: difference of two independent copies of the range.
    epsilons = out.hi - out.lo
    return GlobalCertificate(
        delta=float(delta),
        epsilons=epsilons,
        method=f"btne-nd-w{window}",
        exact=False,
        solve_time=time.perf_counter() - t0,
        milp_count=milp_count,
        detail={"output_distance": Box(out.lo - out.hi, out.hi - out.lo)},
    )


def certify_global_btne_lpr(
    network: Network | list[AffineLayer],
    input_box: Box,
    delta: float,
) -> GlobalCertificate:
    """Global robustness via LPR under BTNE.

    Both copies are triangle-relaxed and share only the input
    perturbation constraint; the output distance is optimized over the
    joint LP.  Without interleaving distance variables the relaxation
    cannot exploit neuron-level correlation, giving loose bounds.
    """
    t0 = time.perf_counter()
    layers = as_affine_chain(network)
    relax = [np.ones(l.out_dim, dtype=bool) for l in layers]
    enc = encode_btne(layers, input_box, delta, relax_mask=relax)
    objectives = min_max_objectives(enc.output_distance)
    results = enc.model.solve_many(objectives)
    lo, hi = optimal_ranges(results[0::2], results[1::2])
    return GlobalCertificate(
        delta=float(delta),
        epsilons=np.maximum(np.abs(lo), np.abs(hi)),
        method="btne-lpr",
        exact=False,
        solve_time=time.perf_counter() - t0,
        lp_count=len(objectives),
        detail={"output_distance": Box(lo, hi)},
    )

