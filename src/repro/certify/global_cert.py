"""Algorithm 1: efficient global robustness over-approximation.

Combines the three ingredients of the paper:

* **ITNE** — sub-problems are encoded over twin copies with per-neuron
  distance variables (:mod:`repro.encoding.itne`);
* **ND** — the network is processed layer by layer; for each layer a
  depth-``W`` sub-network ending at that layer is encoded, with input
  ranges taken from the already-tightened table (``LpRelaxY`` /
  ``LpRelaxX`` of Algorithm 1, batched per layer so the constraint
  matrix is built once and only the objective vector changes);
* **LPR + selective refinement** — all ReLU and distance relations are
  relaxed (Eq. 4 / Eq. 6) except the ``refine_count`` worst-scored
  neurons, which keep exact big-M encodings.

The result is a sound, deterministic over-approximation ``ε̄ ≥ ε`` whose
cost grows polynomially with network size (one small LP/MILP per neuron)
instead of exponentially.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.bounds.interval import Box
from repro.bounds.ranges import RangeTable
from repro.bounds.twin_ibp import relu_distance_interval
from repro.certify.decomposition import decompose, subnetwork_ranges
from repro.certify.refinement import select_refinement
from repro.certify.results import GlobalCertificate
from repro.encoding.itne import encode_itne
from repro.milp.expr import as_expr
from repro.nn.affine import AffineLayer
from repro.nn.network import Network


@dataclass
class CertifierConfig:
    """Tuning knobs of Algorithm 1.

    Attributes:
        window: Sub-network depth ``W`` (clipped to the layer index).
        refine_count: Neurons refined (exactly encoded) per sub-network;
            0 gives a pure LP pipeline.
        backend: MILP/LP backend name.
        bounds: Bound propagator seeding the initial range table
            (``"ibp"`` — the paper's twin IBP — or ``"symbolic"`` for
            the backsubstitution bounds, which start the refinement from
            strictly tighter ranges).
        couple_second_copy: Apply the triangle relaxation to the implicit
            second copy as well (tightening; on by default).
        lp_time_limit: Optional per-LP time limit (seconds).
        milp_time_limit: Per-MILP time limit for refined sub-problems.
            A timed-out MILP still contributes its *dual bound*, which is
            sound for range certification, so limits never cost
            soundness — only tightness.
        workers: Worker processes for the per-neuron solve batches.
            Each layer's min/max objectives are independent, so with
            ``workers > 1`` they are fanned across processes via
            :func:`repro.runtime.batch.parallel_solve_many` in chunks of
            whole LP stacks (results are bit-identical to the serial
            path; 1 = serial, the default).
        verbose: Print per-layer progress.
    """

    window: int = 2
    refine_count: int = 0
    backend: str = "scipy"
    bounds: str = "ibp"
    couple_second_copy: bool = True
    lp_time_limit: float | None = None
    milp_time_limit: float | None = 30.0
    workers: int = 1
    verbose: bool = False


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
        self.layers = (
            network.to_affine_layers() if isinstance(network, Network) else list(network)
        )
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
        table = RangeTable.from_interval_propagation(
            self.layers, input_box, delta, propagator=cfg.bounds
        )
        lp_count = 0
        milp_count = 0

        for i in range(1, len(self.layers) + 1):
            layer = self.layers[i - 1]
            solves, used_binaries = self._tighten_layer(table, i)
            if used_binaries:
                milp_count += solves
            else:
                lp_count += solves
            self._finalize_layer(table, i, layer)
            if cfg.verbose:
                rec = table.layer(i)
                print(
                    f"layer {i}/{len(self.layers)}: "
                    f"|dy| <= {np.abs(rec.dy.hi).max():.4g}, "
                    f"|dx| <= {max(abs(rec.dx.lo.min()), abs(rec.dx.hi.max())):.4g} "
                    f"({solves} solves)"
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
        if self.config.bounds != "ibp":
            tag += f"-{self.config.bounds}"
        return tag

    def _tighten_layer(self, table: RangeTable, i: int) -> tuple[int, bool]:
        """LpRelaxY for every neuron of layer ``i`` (batched).

        Encodes one depth-``w`` sub-network whose output is the whole
        pre-activation layer ``y(i)`` and solves min/max of ``y_j`` and
        ``Δy_j`` for each neuron, updating the table in place.

        Returns:
            ``(num_solves, used_binaries)``.
        """
        cfg = self.config
        sub = decompose(self.layers, i, cfg.window, output_relu=False)
        sub_table = subnetwork_ranges(table, sub)
        masks = select_refinement(
            sub, sub_table, cfg.refine_count, include_output_layer=False
        )
        input_rec = table.layer(sub.input_layer_index)
        enc = encode_itne(
            sub.layers,
            Box(input_rec.x.lo.copy(), input_rec.x.hi.copy()),
            Box(input_rec.dx.lo.copy(), input_rec.dx.hi.copy()),
            ranges=sub_table,
            refine_mask=masks,
            couple_second_copy=cfg.couple_second_copy,
            clip_second_input=True,
        )
        used_binaries = enc.model.num_binary > 0

        m_i = self.layers[i - 1].out_dim
        objectives = []
        for j in range(m_i):
            y_expr = as_expr(enc.y[-1][j])
            dy_expr = as_expr(enc.dy[-1][j])
            objectives.extend(
                [(y_expr, "min"), (y_expr, "max"), (dy_expr, "min"), (dy_expr, "max")]
            )
        time_limit = cfg.milp_time_limit if used_binaries else cfg.lp_time_limit
        if cfg.workers > 1:
            from repro.runtime.batch import parallel_solve_many

            results = parallel_solve_many(
                enc.model,
                objectives,
                backend=cfg.backend,
                time_limit=time_limit,
                max_workers=cfg.workers,
            )
        else:
            # Serial path: one SolverSession per sub-network — the
            # export is cached once for all 4·m_i objective solves.
            from repro.milp.session import solve_objectives

            results = solve_objectives(
                enc.model, objectives, backend=cfg.backend, time_limit=time_limit
            )

        rec = table.layer(i)
        for j in range(m_i):
            r_ylo, r_yhi, r_dlo, r_dhi = results[4 * j : 4 * j + 4]
            # Intersect with the (sound) interval values so bounds never
            # loosen, using each solve's *dual bound* — sound even when a
            # refined MILP stopped at a gap or time limit.  Solves with
            # no usable bound fall back to the interval value.
            y_lo, y_hi = rec.y.scalar(j)
            dy_lo, dy_hi = rec.dy.scalar(j)
            lo_c = r_ylo.sound_bound()
            hi_c = r_yhi.sound_bound()
            if lo_c is not None:
                y_lo = max(y_lo, lo_c)
            if hi_c is not None:
                y_hi = min(y_hi, hi_c)
            lo_c = r_dlo.sound_bound()
            hi_c = r_dhi.sound_bound()
            if lo_c is not None:
                dy_lo = max(dy_lo, lo_c)
            if hi_c is not None:
                dy_hi = min(dy_hi, hi_c)
            rec.set_neuron(
                j,
                y=(min(y_lo, y_hi), max(y_lo, y_hi)),
                dy=(min(dy_lo, dy_hi), max(dy_lo, dy_hi)),
            )
        return len(objectives), used_binaries

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


