"""Algorithm 1: efficient global robustness over-approximation.

Combines the three ingredients of the paper:

* **ITNE** — sub-problems are encoded over twin copies with per-neuron
  distance variables (:mod:`repro.encoding.itne`);
* **ND** — the network is processed layer by layer; for each layer a
  depth-``W`` sub-network ending at that layer is encoded, with input
  ranges taken from the already-tightened table (``LpRelaxY`` /
  ``LpRelaxX`` of Algorithm 1, batched per layer so each constraint
  matrix is built once and only the objective vector changes);
* **LPR + selective refinement** — all ReLU and distance relations are
  relaxed (Eq. 4 / Eq. 6) except the ``refine_count`` worst-scored
  neurons, which keep exact big-M encodings.

``LpRelaxY`` solves only what it needs.  A depth-1 sub-network (layer 1,
or every layer at ``W = 1``) has a closed-form answer, so it builds no
model.  Deeper ones solve ``Δy`` min/max over the ITNE model and ``y``
min/max over its first copy alone, which is exactly as tight.  The
``y`` range of a ReLU-free output layer is never solved: ``ε̄`` reads
only ``Δx``.

The result is a sound, deterministic over-approximation ``ε̄ ≥ ε`` whose
cost grows polynomially with network size (at most four small LPs/MILPs
per neuron of a layer at depth two or more) instead of exponentially.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro import _sanitize
from repro.bounds.interval import Box
from repro.bounds.ranges import RangeTable
from repro.bounds.twin_ibp import relu_distance_interval
from repro.certify.decomposition import decompose, subnetwork_ranges
from repro.certify.minmax import min_max_objectives, sound_ranges
from repro.certify.refinement import select_refinement
from repro.certify.results import GlobalCertificate
from repro.encoding.itne import ItneEncoding, encode_first_copy, encode_itne
from repro.milp import Model
from repro.milp.solution import SolveResult
from repro.nn.affine import AffineLayer
from repro.nn.network import Network, as_affine_chain


@dataclass
class CertifierConfig:
    """Tuning knobs of Algorithm 1.

    Attributes:
        window: Sub-network depth ``W``, at least 1 (clipped to the
            layer index).
        refine_count: Neurons refined (exactly encoded) per sub-network,
            at least 0; 0 gives a pure LP pipeline.
        couple_second_copy: Apply the triangle relaxation to the implicit
            second copy as well (tightening; on by default).
        lp_time_limit: Optional per-LP time limit (seconds).
        milp_time_limit: Per-MILP time limit for refined sub-problems.
            A timed-out MILP still contributes its *dual bound*, which is
            sound for range certification, so limits never cost
            soundness — only tightness.
        workers: Worker processes for the per-neuron solve batches.
            A layer solves up to two batches — ``Δy`` min/max over the
            ITNE model, ``y`` min/max over the first-copy model — whose
            objectives are independent, so with ``workers > 1`` each
            batch is fanned across processes via
            :func:`repro.runtime.batch.parallel_solve_many` in chunks of
            whole LP stacks (results are bit-identical to the serial
            path; 1 = serial, the default).  Closed-form layers solve
            nothing and never start a pool.  A pool pays off only for
            refined (MILP) layers.  Measured on 2 vCPUs, window 2, three
            runs each: with ``refine_count=0``, ``workers=2`` is no
            faster (DNN-4 0.19–0.20 s → 0.21–0.26 s, DNN-5 0.72–0.73 s
            → 0.51–1.02 s); with ``refine_count=4`` it is (DNN-4
            3.7–4.1 s → 2.2–2.3 s).
        verbose: Print per-layer progress.
    """

    window: int = 2
    refine_count: int = 0
    couple_second_copy: bool = True
    lp_time_limit: float | None = None
    milp_time_limit: float | None = 30.0
    workers: int = 1
    verbose: bool = False

    def __post_init__(self) -> None:
        # The certificate records these as given, so a value the
        # decomposition would silently clamp must not get that far.
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.refine_count < 0:
            raise ValueError("refine_count must be >= 0")


class GlobalRobustnessCertifier:
    """Implements Algorithm 1 of the paper.

    Example::

        certifier = GlobalRobustnessCertifier(net, CertifierConfig(window=2,
                                              refine_count=4))
        cert = certifier.certify(Box.uniform(net.input_dim, 0, 1), delta=0.001)
        print(cert.summary())
    """

    def __init__(
        self,
        network: Network | list[AffineLayer],
        config: CertifierConfig | None = None,
    ) -> None:
        self.layers = as_affine_chain(network)
        self.config = config or CertifierConfig()

    # -- public API -----------------------------------------------------------

    def certify(self, input_box: Box, delta: float) -> GlobalCertificate:
        """Run Algorithm 1 and return the certified ``ε̄`` per output.

        Args:
            input_box: Input domain ``X`` (flattened).
            delta: L∞ input perturbation bound δ.
        """
        cfg = self.config
        t0 = time.perf_counter()
        table = RangeTable.from_interval_propagation(self.layers, input_box, delta)
        lp_count = 0
        milp_count = 0

        for i in range(1, len(self.layers) + 1):
            layer = self.layers[i - 1]
            lps, milps = self._tighten_layer(table, i)
            lp_count += lps
            milp_count += milps
            self._finalize_layer(table, i, layer)
            if cfg.verbose:
                rec = table.layer(i)
                print(
                    f"layer {i}/{len(self.layers)}: "
                    f"|dy| <= {np.abs(rec.dy.hi).max():.4g}, "
                    f"|dx| <= {max(abs(rec.dx.lo.min()), abs(rec.dx.hi.max())):.4g} "
                    f"({lps} LPs, {milps} MILPs)"
                )

        return GlobalCertificate(
            delta=float(delta),
            epsilons=table.output_variation_bounds(),
            method=self._method_name(),
            exact=False,
            solve_time=time.perf_counter() - t0,
            lp_count=lp_count,
            milp_count=milp_count,
            detail={
                "window": cfg.window,
                "refine_count": cfg.refine_count,
                "range_table": table,
            },
        )

    # -- internals --------------------------------------------------------------

    def _method_name(self) -> str:
        tag = "itne-nd-lpr"
        if self.config.refine_count > 0:
            tag += f"-r{self.config.refine_count}"
        return tag

    def _tighten_layer(self, table: RangeTable, i: int) -> tuple[int, int]:
        """LpRelaxY for every neuron of layer ``i`` (batched).

        Bounds ``y_j`` and ``Δy_j`` of every neuron over the depth-``w``
        sub-network ending at the whole pre-activation layer ``y(i)``,
        solving only the LPs that are needed, and intersects them with
        the table in place:

        * a depth-1 sub-network is answered in closed form (see
          :func:`_depth_one_bounds`), with no model at all;
        * otherwise ``Δy`` min/max are solved over the ITNE model and
          ``y`` min/max over its first copy alone
          (:func:`~repro.encoding.itne.encode_first_copy`, equally
          tight and about half the size);
        * ``y`` of a last layer without a ReLU is never read (``ε̄``
          comes from ``Δx``), so it is not solved.

        Returns:
            ``(lp_solves, milp_solves)`` actually made.
        """
        cfg = self.config
        sub = decompose(self.layers, i, cfg.window, output_relu=False)
        input_rec = table.layer(sub.input_layer_index)
        x_in = Box(input_rec.x.lo, input_rec.x.hi)  # Box copies its arrays
        dx_in = Box(input_rec.dx.lo, input_rec.dx.hi)
        rec = table.layer(i)
        if sub.depth == 1:
            y_box, dy_box = _depth_one_bounds(sub.layers[0], x_in, dx_in)
            if _sanitize.ENABLED:
                enc = encode_itne(
                    sub.layers, x_in, dx_in, ranges=subnetwork_ranges(table, sub),
                    couple_second_copy=cfg.couple_second_copy, clip_second_input=True,
                )
                j = _seeded_neuron(i, y_box.dim)
                self._check_shortcut(
                    enc, [enc.y[-1][j], enc.dy[-1][j]],
                    [y_box.lo[j], y_box.hi[j], dy_box.lo[j], dy_box.hi[j]],
                    [0.0] * 4, f"layer {i} closed-form neuron {j}",
                )
            _intersect(rec.y, y_box.lo, y_box.hi)
            _intersect(rec.dy, dy_box.lo, dy_box.hi)
            return 0, 0

        sub_table = subnetwork_ranges(table, sub)
        masks = select_refinement(
            sub, sub_table, cfg.refine_count, include_output_layer=False
        )
        enc = encode_itne(
            sub.layers,
            x_in,
            dx_in,
            ranges=sub_table,
            refine_mask=masks,
            couple_second_copy=cfg.couple_second_copy,
            clip_second_input=True,
        )
        dy_results = self._solve(enc.model, min_max_objectives(enc.dy[-1]))
        _intersect(rec.dy, *sound_ranges(dy_results[0::2], dy_results[1::2]))
        solved = [(enc.model, len(dy_results))]
        if i < len(self.layers) or self.layers[i - 1].relu:
            first = encode_first_copy(sub.layers, x_in, sub_table, refine_mask=masks)
            y_results = self._solve(first.model, min_max_objectives(first.y[-1]))
            if _sanitize.ENABLED:
                j = _seeded_neuron(i, len(first.y[-1]))
                mine = y_results[2 * j : 2 * j + 2]
                self._check_shortcut(
                    enc, [enc.y[-1][j]], [r.sound_bound() for r in mine],
                    [_gap(r) for r in mine], f"layer {i} first-copy neuron {j}",
                )
            _intersect(rec.y, *sound_ranges(y_results[0::2], y_results[1::2]))
            solved.append((first.model, len(y_results)))
        lps = sum(n for model, n in solved if model.num_binary == 0)
        return lps, sum(n for _, n in solved) - lps

    def _solve(self, model: Model, objectives: list) -> list[SolveResult]:
        """Solve ``objectives`` over ``model``, fanned across workers if set."""
        cfg = self.config
        time_limit = cfg.milp_time_limit if model.num_binary > 0 else cfg.lp_time_limit
        if cfg.workers > 1:
            from repro.runtime.batch import parallel_solve_many

            return parallel_solve_many(
                model,
                objectives,
                time_limit=time_limit,
                max_workers=cfg.workers,
            )
        # Serial path: one SolverSession per model — the export is cached
        # once for all of its objective solves.
        return model.solve_many(objectives, time_limit=time_limit)

    def _check_shortcut(
        self,
        enc: ItneEncoding,
        handles: list,
        bounds: list[float | None],
        slacks: list[float],
        what: str,
    ) -> None:
        """Sanitizer contract ``alg1-shortcut`` for one neuron.

        ``bounds`` are the shortcut's min/max bounds of ``handles`` (in
        ``min_max_objectives`` order) and ``slacks`` their own MIP gaps;
        each must contain and match the same objective solved over the
        full ITNE model ``enc``.
        """
        objectives = min_max_objectives(handles)
        refs = self._solve(enc.model, objectives)
        for k, ((_, sense), bound, slack, ref) in enumerate(
            zip(objectives, bounds, slacks, refs)
        ):
            _sanitize.check_shortcut_bound(
                bound, sense, ref.status.value, ref.objective,
                f"{what} objective {k} ({sense})", slack=slack + _gap(ref),
            )

    @staticmethod
    def _finalize_layer(table: RangeTable, i: int, layer: AffineLayer) -> None:
        """LpRelaxX: derive ``x(i)``/``Δx(i)`` ranges from fresh y/Δy.

        For a relaxed output neuron the LP optimum of ``x``/``Δx`` equals
        the closed-form image of the Eq. 4 / Eq. 6 relaxations at the
        ``y``/``Δy`` extremes (the relaxation hulls are tight at their
        corners), so this evaluates those images directly — including
        the exact-case intersection used by twin IBP — instead of
        re-solving LPs.
        """
        rec = table.layer(i)
        if layer.relu:
            x_box = rec.y.relu()
            dx_box = relu_distance_interval(rec.y, rec.dy)
        else:
            x_box = Box(rec.y.lo.copy(), rec.y.hi.copy())
            dx_box = Box(rec.dy.lo.copy(), rec.dy.hi.copy())
        for j in range(rec.x.dim):
            rec.set_neuron(
                j,
                x=(float(x_box.lo[j]), float(x_box.hi[j])),
                dx=(float(dx_box.lo[j]), float(dx_box.hi[j])),
            )


def _depth_one_bounds(layer: AffineLayer, x_in: Box, dx_in: Box) -> tuple[Box, Box]:
    """Exact ``y``/``Δy`` ranges of a depth-1 ITNE sub-problem.

    With one affine layer (ReLU stripped) the only coupling between the
    inputs is the clip ``x + Δx ∈ [lo, hi]``.  It leaves every ``x`` in
    its box reachable (with ``Δx = 0``) and every ``Δx`` in
    ``Δx-box ∩ [lo − hi, hi − lo]`` reachable, coordinate by coordinate,
    so the four LP optima per neuron are the interval images of ``W``
    over those boxes.  Interval arithmetic is also never tighter than
    the exact image, which an LP answer within its tolerance can be.
    """
    clipped = Box(
        np.maximum(dx_in.lo, x_in.lo - x_in.hi), np.minimum(dx_in.hi, x_in.hi - x_in.lo)
    )
    return x_in.affine(layer.weight, layer.bias), clipped.affine(layer.weight)


def _intersect(box: Box, lo: np.ndarray, hi: np.ndarray) -> None:
    """Tighten ``box`` in place by ``[lo, hi]`` (bounds never loosen)."""
    new_lo = np.maximum(box.lo, lo)
    new_hi = np.minimum(box.hi, hi)
    box.lo[:] = np.minimum(new_lo, new_hi)
    box.hi[:] = np.maximum(new_lo, new_hi)


def _seeded_neuron(layer_index: int, width: int) -> int:
    """The neuron of a layer that the ``alg1-shortcut`` contract re-checks."""
    return int(np.random.default_rng(layer_index).integers(width))


def _gap(result: SolveResult) -> float:
    """Distance between a solve's objective and its dual bound (0 for LPs)."""
    if math.isfinite(result.objective) and math.isfinite(result.bound):
        return abs(result.objective - result.bound)
    return 0.0 if result.is_optimal else math.inf
