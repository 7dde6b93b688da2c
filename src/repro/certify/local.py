"""Local robustness certification (exact MILP, ND, LPR, bounds presolve).

Local robustness bounds the output change around a *given* sample:
``‖x̂ − x0‖∞ ≤ δ ⇒ |F(x̂)_j − F(x0)_j| ≤ ε_local``.  These routines
reproduce the local half of the paper's Fig. 4 and serve as reference
points for the global techniques (a valid global ε must dominate the
local ε at every sample).

Every certifier seeds its big-M ranges with the symbolic bounds
(:class:`~repro.bounds.symbolic.SymbolicPropagator`, never looser than
IBP).  :func:`presolve_local` (the bounds-only
presolve tier, re-exported from :mod:`repro.certify.presolve`) can
answer an ε-targeted query without building a MILP at all.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bounds.interval import Box
from repro.bounds.symbolic import SymbolicPropagator
from repro.certify.decomposition import decompose
from repro.certify.minmax import min_max_objectives, optimal_ranges
from repro.certify.presolve import (
    perturbation_ball,
    presolve_local,
    variation_from_reference,
)
from repro.certify.results import LocalCertificate
from repro.encoding.single import encode_single_network
from repro.nn.affine import AffineLayer, affine_chain_forward
from repro.nn.network import Network, as_affine_chain

__all__ = [
    "certify_local_exact",
    "certify_local_nd",
    "certify_local_lpr",
    "presolve_local",
]


def _certificate(
    layers, center, delta, lo, hi, method, exact, t0
) -> LocalCertificate:
    base = affine_chain_forward(layers, np.asarray(center, dtype=float).reshape(-1))
    eps = variation_from_reference(lo, hi, base)
    return LocalCertificate(
        center=np.asarray(center, dtype=float),
        delta=float(delta),
        epsilons=eps,
        output_lo=lo,
        output_hi=hi,
        method=method,
        exact=exact,
        solve_time=time.perf_counter() - t0,
    )


def certify_local_exact(
    network: Network | list[AffineLayer],
    center: np.ndarray,
    delta: float,
    domain: Box | None = None,
    time_limit: float | None = None,
) -> LocalCertificate:
    """Exact local robustness: full big-M MILP over the δ-ball.

    ``time_limit`` caps each objective solve (``None`` = unbounded);
    on timeout the underlying solver raises through
    :meth:`~repro.milp.solution.SolveResult.require_optimal`.
    """
    return _certify_whole_network(
        network, center, delta, domain, time_limit, relax=False
    )


def certify_local_nd(
    network: Network | list[AffineLayer],
    center: np.ndarray,
    delta: float,
    window: int = 1,
    domain: Box | None = None,
    time_limit: float | None = None,
) -> LocalCertificate:
    """Local robustness via network decomposition (exact sub-MILPs).

    Layer ranges are tightened layer by layer: each layer's neurons are
    optimized exactly over a depth-``window`` sub-network whose input
    ranges come from the previous step — the single-network analogue of
    the paper's ND.
    """
    t0 = time.perf_counter()
    layers = as_affine_chain(network)
    ball = perturbation_ball(center, delta, domain)
    out, _ = single_copy_nd(layers, ball, window, time_limit)
    return _certificate(
        layers, center, delta, out.lo, out.hi, f"local-nd-w{window}", False, t0
    )


def certify_local_lpr(
    network: Network | list[AffineLayer],
    center: np.ndarray,
    delta: float,
    domain: Box | None = None,
    time_limit: float | None = None,
) -> LocalCertificate:
    """Local robustness via the triangle LP relaxation of every ReLU."""
    return _certify_whole_network(
        network, center, delta, domain, time_limit, relax=True
    )


def _certify_whole_network(
    network, center, delta, domain, time_limit, relax
) -> LocalCertificate:
    """Output ranges over one encoding of the whole δ-ball (LPR if ``relax``)."""
    t0 = time.perf_counter()
    layers = as_affine_chain(network)
    ball = perturbation_ball(center, delta, domain)
    relax_mask = [np.ones(layer.out_dim, dtype=bool) for layer in layers] if relax else None
    enc = encode_single_network(layers, ball, relax_mask=relax_mask)
    results = enc.model.solve_many(
        min_max_objectives(enc.output), time_limit=time_limit
    )
    lo, hi = optimal_ranges(results[0::2], results[1::2])
    method = "local-lpr" if relax else "local-exact"
    return _certificate(layers, center, delta, lo, hi, method, not relax, t0)


def single_copy_nd(
    layers: list[AffineLayer],
    input_box: Box,
    window: int,
    time_limit: float | None = None,
) -> tuple[Box, int]:
    """Output range of one network copy by network decomposition.

    Seeds every pre-activation range with the symbolic bounds,
    then, layer by layer, replaces it by the exact min/max of each
    neuron over the depth-``window`` sub-network ending there (input
    ranges from the previous step), intersected with the seed in case
    of numerical jitter.  Every solve must be optimal.

    Returns:
        ``(output box, number of solves)``.
    """
    if window < 1:  # decompose would clamp it while the caller records it
        raise ValueError("window must be >= 1")
    x_ranges: list[Box] = [input_box]  # index 0 = input
    y_ranges = list(SymbolicPropagator().propagate(layers, input_box).y)
    solves = 0
    for i in range(1, len(layers) + 1):
        sub = decompose(layers, i, window, output_relu=False)
        enc = encode_single_network(
            sub.layers,
            x_ranges[sub.input_layer_index],
            pre_act_bounds=y_ranges[sub.input_layer_index : i],
        )
        results = enc.model.solve_many(
            min_max_objectives(enc.y[-1]), time_limit=time_limit
        )
        solves += len(results)
        lo, hi = optimal_ranges(results[0::2], results[1::2])
        seed = y_ranges[i - 1]
        y_ranges[i - 1] = Box(np.maximum(lo, seed.lo), np.minimum(hi, seed.hi))
        x_ranges.append(
            y_ranges[i - 1].relu() if layers[i - 1].relu else y_ranges[i - 1]
        )
    return x_ranges[-1], solves
