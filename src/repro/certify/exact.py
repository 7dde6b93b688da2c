"""Exact global robustness by solving the full twin-network MILP (Eq. 1).

This is the ``t_M`` baseline of Table I: encode both network copies over
the entire input domain, link them with the perturbation constraint, and
maximize/minimize every output distance.  Complexity is exponential in
the number of unstable ReLU neurons (×2, one per copy), which is exactly
the blow-up the paper's Algorithm 1 avoids.

Soundness under resource limits (Algorithm 1's premise) holds here too:
a time/node-limited MILP contributes its *dual bound* via
:meth:`~repro.milp.solution.SolveResult.sound_bound`, intersected with
the symbolic interval bound — never the incumbent objective of an
interrupted solve, which is unsound on the extremal side.  The returned
epsilons are therefore always finite and certified; ``exact`` is True
only when every solve proved optimality.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bounds.interval import Box
from repro.bounds.ranges import RangeTable
from repro.encoding.btne import encode_btne
from repro.encoding.itne import encode_itne
from repro.certify.minmax import RangeSolveError, limited_ranges, min_max_objectives
from repro.certify.results import GlobalCertificate
from repro.nn.affine import AffineLayer
from repro.nn.network import Network, as_affine_chain


def certify_exact_global(
    network: Network | list[AffineLayer],
    input_box: Box,
    delta: float,
    encoding: str = "itne",
    time_limit: float | None = None,
    outputs: list[int] | None = None,
) -> GlobalCertificate:
    """Solve Problem 1 via MILP; sound even when ``time_limit`` bites.

    Args:
        network: A :class:`Network` or its affine chain.
        input_box: Input domain ``X``.
        delta: Perturbation bound δ.
        encoding: ``"itne"`` (all neurons refined) or ``"btne"`` (two
            independent copies, the encoding of [2]).
        time_limit: Per-MILP time limit in seconds.  A limited solve
            never raises: its sound dual bound (or, failing that, the
            symbolic interval bound) certifies the output, and the
            certificate reports ``exact=False``.  Non-limit failures
            (infeasible, solver error) still raise — they indicate a
            broken encoding, not a resource trade-off.
        outputs: Restrict to these output indices (default: all).

    Returns:
        A :class:`GlobalCertificate`; ``exact=True`` iff every MILP was
        solved to proven optimality (``detail["limit_hits"]`` counts the
        solves that fell back to a bound).
    """
    layers = as_affine_chain(network)
    if encoding not in ("itne", "btne"):
        raise ValueError(f"unknown encoding {encoding!r}")

    t0 = time.perf_counter()
    out_dim = layers[-1].out_dim
    targets = list(range(out_dim)) if outputs is None else list(outputs)
    epsilons = np.zeros(out_dim)

    # Sound a-priori interval bounds on the output distance: the
    # fallback (and intersection partner) for limited solves.  The same
    # table feeds the ITNE encoder, so the bounds are propagated once.
    table = RangeTable.from_interval_propagation(layers, input_box, delta)
    interval = table.layer(len(layers)).dx

    if encoding == "itne":
        enc = encode_itne(layers, input_box, delta, ranges=table)
    else:
        # The table's y boxes already are the symbolic single-copy
        # pre-activation bounds; reuse them instead of re-propagating.
        pre_acts = [table.layer(i).y for i in range(1, len(layers) + 1)]
        enc = encode_btne(layers, input_box, delta, pre_act_bounds=pre_acts)

    # One SolverSession for the whole batch: the standard form is
    # exported once and only the objective vector is swapped per solve.
    objectives = min_max_objectives([enc.output_distance[j] for j in targets])
    results = enc.model.solve_many(objectives, time_limit=time_limit)
    # Sound bounds only: the dual bound of a limited solve, or the
    # objective of a proven-optimal one — never a limited incumbent.
    try:
        lo, hi, limit_hits = limited_ranges(
            results[0::2],
            results[1::2],
            Box(interval.lo[targets], interval.hi[targets]),
            "exact global solve",
        )
    except RangeSolveError as err:  # name the network output, not its position
        raise RangeSolveError(err.what, targets[err.output], err.result) from None
    epsilons[targets] = np.maximum(np.abs(lo), np.abs(hi))

    return GlobalCertificate(
        delta=float(delta),
        epsilons=epsilons,
        method=f"exact-milp-{encoding}",
        exact=limit_hits == 0,
        solve_time=time.perf_counter() - t0,
        milp_count=len(objectives),
        detail={
            "encoding": encoding,
            "binaries": enc.model.num_binary,
            "limit_hits": limit_hits,
        },
    )
