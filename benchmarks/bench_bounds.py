"""Benchmark — symbolic vs interval bounds: tightness and presolve speedup.

Every MILP in the pipeline is seeded by per-layer interval bounds; PR 4
put the propagators behind one ``BoundPropagator`` API and added the
CROWN/DeepPoly-style symbolic engine plus a bounds-only presolve tier.
This bench quantifies both halves on the Table-1 nets:

* **tightness** — mean pre-activation width and stable-neuron fraction
  of ``"symbolic"`` vs ``"ibp"``, for the value bounds and the twin
  distance bounds (the ε̄ the intervals alone certify);
* **presolve speedup** — wall-clock of a batch of ε-targeted local
  certification queries with the presolve tier on vs off, checking that
  the queries still reaching the MILP tier produce *bit-identical*
  certificates.

Run standalone (used by CI in smoke mode, no model training needed)::

    PYTHONPATH=src python -m benchmarks.bench_bounds --smoke

or as part of the benchmark suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_bounds.py -s
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from benchmarks.conftest import write_bench_json
from repro.bounds import Box, get_propagator
from repro.nn.affine import AffineLayer
from repro.runtime import BatchCertifier, local_queries
from repro.utils import format_table


def tiny_chain(rng, depth=3, width=16, in_dim=8, out_dim=2):
    """Smoke-mode stand-in: one tiny random net, trains nothing."""
    dims = [in_dim] + [width] * (depth - 1) + [out_dim]
    return [
        AffineLayer(
            rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
            0.1 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


def tightness_stats(layers, box, delta) -> dict:
    """Compare the ``"ibp"`` and ``"symbolic"`` engines on one net."""
    stats = {}
    for name in ("ibp", "symbolic"):
        t0 = time.perf_counter()
        bounds = get_propagator(name).propagate(layers, box, delta)
        stats[name] = {
            "propagate_ms": 1e3 * (time.perf_counter() - t0),
            "mean_y_width": bounds.mean_pre_activation_width(),
            "stable_fraction": bounds.stable_fraction(layers),
            "interval_epsilon": float(bounds.output_variation_bounds().max()),
        }
    stats["width_ratio"] = (
        stats["symbolic"]["mean_y_width"] / stats["ibp"]["mean_y_width"]
    )
    return stats


def ball_tightness(layers, domain, radius: float, n_centers: int, seed: int = 1) -> dict:
    """Stable-neuron fractions over certification balls (radius ``radius``).

    Stability over the δ-ball is what actually shrinks the MILPs — a
    stable neuron encodes without a binary — so this is measured where
    certification happens, averaged over ``n_centers`` random centers.
    """
    from repro.certify.presolve import perturbation_ball

    rng = np.random.default_rng(seed)
    stats = {name: {"stable": [], "width": []} for name in ("ibp", "symbolic")}
    for x in domain.sample(rng, n_centers):
        ball = perturbation_ball(x, radius, domain)
        for name in stats:
            bounds = get_propagator(name).propagate(layers, ball)
            stats[name]["stable"].append(bounds.stable_fraction(layers))
            stats[name]["width"].append(bounds.mean_pre_activation_width())
    return {
        "radius": radius,
        "centers": n_centers,
        **{
            name: {
                "stable_fraction": float(np.mean(vals["stable"])),
                "mean_y_width": float(np.mean(vals["width"])),
            }
            for name, vals in stats.items()
        },
    }


def presolve_speedup(
    layers, domain, delta, method: str, n_samples: int, seed: int = 0
) -> dict:
    """Batch-certify ``n_samples`` with the presolve tier on vs off.

    Per-sample ε targets are chosen so the batch genuinely mixes tiers:
    even samples get a target just above their symbolic bound (decided
    by presolve), odd samples probe for a target the tier *cannot*
    decide (bound too loose to prove, attack too weak to refute) so
    they fall through to the MILP — whose certificates are then
    compared bit-for-bit between the on and off runs.
    """
    from repro.certify.presolve import (
        perturbation_ball,
        presolve_local,
        variation_from_reference,
    )
    from repro.nn.affine import affine_chain_forward
    from repro.runtime import CertificationQuery

    rng = np.random.default_rng(seed)
    samples = domain.sample(rng, n_samples)
    sym = get_propagator("symbolic")

    epsilons = []
    for i, x in enumerate(samples):
        ball = perturbation_ball(x, delta, domain)
        bounds = sym.propagate(layers, ball)
        out = bounds.output
        base = affine_chain_forward(layers, x)
        ub = float(variation_from_reference(out.lo, out.hi, base).max())
        if i % 2 == 0:
            epsilons.append(ub * 1.05)  # provable from bounds alone
            continue
        undecided = next(
            (
                ub * f
                for f in (0.98, 0.9, 0.75, 0.5)
                if presolve_local(
                    layers, x, delta, ub * f, domain=domain
                )
                is None
            ),
            None,
        )
        epsilons.append(ub * 1.05 if undecided is None else undecided)

    engine = BatchCertifier(max_workers=1)

    def run_batch(presolve: bool):
        queries = [
            CertificationQuery(
                kind=f"local-{method}",
                layers=layers,
                delta=float(delta),
                center=x,
                domain=domain,
                epsilon=eps,
                presolve=presolve,
                tag=f"sample[{i}]",
            )
            for i, (x, eps) in enumerate(zip(samples, epsilons))
        ]
        t0 = time.perf_counter()
        results = engine.run(queries)
        elapsed = time.perf_counter() - t0
        assert all(r.ok for r in results), [r.error for r in results if not r.ok]
        return elapsed, [r.certificate for r in results]

    # Warm-up: the first query pays one-time lazy-import and solver
    # start-up costs; keep them out of whichever run is timed first.
    engine.run(
        [
            CertificationQuery(
                kind=f"local-{method}", layers=layers, delta=float(delta),
                center=samples[0], domain=domain,
            )
        ]
    )
    t_off, certs_off = run_batch(presolve=False)
    t_on, certs_on = run_batch(presolve=True)

    presolved = sum(1 for c in certs_on if c.method == "presolve")
    milp_pairs = [
        (on, off)
        for on, off in zip(certs_on, certs_off)
        if on.method != "presolve"
    ]
    milp_identical = all(
        np.array_equal(on.epsilons, off.epsilons) for on, off in milp_pairs
    )
    return {
        "method": method,
        "queries": n_samples,
        "epsilon_targets": epsilons,
        "time_presolve_off": t_off,
        "time_presolve_on": t_on,
        "speedup": t_off / max(t_on, 1e-9),
        "presolved": presolved,
        "milp_queries": len(milp_pairs),
        "milp_certificates_identical": milp_identical,
    }


def run(smoke: bool, emit=print, write_json=write_bench_json) -> dict:
    """Execute the bench; returns the aggregate results dict."""
    if smoke:
        rng = np.random.default_rng(0)
        cases = [
            ("smoke: random 8-16-16-2 net", tiny_chain(rng), Box.uniform(8, 0, 1),
             0.05, "lpr", 8),
        ]
    else:
        from repro.zoo import get_network

        mpg = get_network(3)
        mnist = get_network(6, image_size=10)
        cases = [
            (
                f"Table-1 DNN-3 ({mpg.description})",
                mpg.network.to_affine_layers(),
                Box.uniform(mpg.network.input_dim, 0.0, 1.0),
                mpg.delta, "exact", 12,
            ),
            (
                f"Table-1 DNN-6 ({mnist.description})",
                mnist.network.to_affine_layers(),
                Box.uniform(mnist.network.input_dim, 0.0, 1.0),
                mnist.delta, "lpr", 8,
            ),
        ]

    tight_rows = []
    batch_rows = []
    results = {"smoke": smoke, "cases": []}
    for label, layers, box, delta, method, n_samples in cases:
        tight = tightness_stats(layers, box, delta)
        ball = ball_tightness(layers, box, radius=0.1, n_centers=3)
        batch = presolve_speedup(layers, box, delta, method, n_samples)
        results["cases"].append(
            {
                "label": label,
                "layers": len(layers),
                "neurons": int(sum(l.out_dim for l in layers[:-1])),
                "delta": delta,
                "tightness": tight,
                "ball_tightness": ball,
                "presolve": batch,
            }
        )
        tight_rows.append(
            [
                label,
                f"{tight['ibp']['mean_y_width']:.4g}",
                f"{tight['symbolic']['mean_y_width']:.4g}",
                f"{tight['width_ratio']:.3f}",
                f"{100 * ball['ibp']['stable_fraction']:.1f}%",
                f"{100 * ball['symbolic']['stable_fraction']:.1f}%",
                f"{tight['symbolic']['interval_epsilon']:.4g}"
                f" / {tight['ibp']['interval_epsilon']:.4g}",
            ]
        )
        batch_rows.append(
            [
                label,
                f"local-{method} ×{n_samples}",
                f"{batch['presolved']}/{n_samples}",
                f"{batch['milp_queries']}",
                f"{batch['time_presolve_off']:.2f}s",
                f"{batch['time_presolve_on']:.2f}s",
                f"{batch['speedup']:.1f}x",
                "yes" if batch["milp_certificates_identical"] else "NO",
            ]
        )

    emit(
        format_table(
            ["net", "y-width ibp", "y-width sym", "ratio",
             "stable ibp", "stable sym", "ε̄ sym/ibp"],
            tight_rows,
            title="bound tightness: symbolic vs IBP — widths over the full "
            "domain, stable-neuron fractions over r=0.1 balls",
        )
    )
    emit(
        format_table(
            ["net", "batch", "presolved", "to MILP", "t off", "t on",
             "speedup", "identical"],
            batch_rows,
            title="presolve tier: ε-targeted batch certification, "
            "presolve off vs on",
        )
    )
    if write_json is not None:
        write_json("bounds", results)
    return results


def _check(results: dict) -> list[str]:
    """Acceptance checks; returns a list of failure messages."""
    failures = []
    for case in results["cases"]:
        label = case["label"]
        tight = case["tightness"]
        ball = case["ball_tightness"]
        if not tight["width_ratio"] < 1.0:
            failures.append(
                f"{label}: symbolic bounds not strictly tighter "
                f"(width ratio {tight['width_ratio']:.3f})"
            )
        if ball["symbolic"]["stable_fraction"] < ball["ibp"]["stable_fraction"]:
            failures.append(f"{label}: symbolic lost stable neurons")
        if not case["presolve"]["milp_certificates_identical"]:
            failures.append(f"{label}: MILP-tier certificates diverged")
    # The bit-identical claim must be exercised, not vacuously true: at
    # least one query across the cases has to reach the MILP tier.
    if sum(c["presolve"]["milp_queries"] for c in results["cases"]) == 0:
        failures.append(
            "no query reached the MILP tier — bit-identical check was vacuous"
        )
    return failures


def test_bench_bounds(report, json_report):
    """Benchmark-suite entry: Table-1 nets, asserts the PR targets."""
    results = run(smoke=False, emit=report, write_json=json_report)
    failures = _check(results)
    assert not failures, failures
    # End-to-end: the presolve tier must yield a measurable speedup on
    # at least one batch-certification benchmark.
    best = max(c["presolve"]["speedup"] for c in results["cases"])
    assert best >= 1.2, f"best presolve speedup {best:.2f}x < 1.2x floor"
    assert any(c["presolve"]["presolved"] > 0 for c in results["cases"])
    # Table-1 MNIST net: strictly more stable neurons over δ-balls.
    mnist = results["cases"][-1]
    assert (
        mnist["ball_tightness"]["symbolic"]["stable_fraction"]
        > mnist["ball_tightness"]["ibp"]["stable_fraction"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="one tiny random net (CI mode; no model training)",
    )
    args = parser.parse_args(argv)
    results = run(smoke=args.smoke)
    failures = _check(results)
    # The speedup floor applies to the full run only: smoke-mode MILPs
    # are too small for the timing difference to be stable in CI.
    if not args.smoke:
        best = max(c["presolve"]["speedup"] for c in results["cases"])
        if best < 1.2:
            failures.append(f"best presolve speedup {best:.2f}x below 1.2x target")
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if failures:
        return 1
    print("OK (width ratios: "
          + ", ".join(f"{c['tightness']['width_ratio']:.3f}"
                      for c in results["cases"])
          + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
