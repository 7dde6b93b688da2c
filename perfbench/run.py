"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload alg1-lp --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` makes a separate traced run and reports the per-layer
breakdown.  Information lines start with ``#``; the last line of
standard output is the JSON result.  The exit code is non-zero when a
correctness check fails (or the certifier cannot be imported).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS thread, so a unit's time
# does not depend on how many cores happen to be idle.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
#: Private work space inside the checkout (temp zoo caches, trace files).
WORK = ROOT / ".perfbench"
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Seconds one calibration slice takes on the reference host (2 vCPU,
#: quiet).  ``setup_s`` is set-up time in slices times this constant:
#: seconds at reference speed, so a slow or busy host does not read as
#: slower set-up.
REFERENCE_SLICE_S = 0.02
#: Refutations without a witness re-checked per run by an exact MILP.
EXACT_REFUTATION_SAMPLES = 10
#: What a fresh interpreter runs to import the certifier as this
#: benchmark does (``sys.argv[1:]`` are the import roots).
_IMPORT_CHILD = "import sys; sys.path[:0] = sys.argv[1:]; import perfbench.workloads"


def _import_certifier() -> bool:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the certifier from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return False
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return False
    return True


def _peak_mem_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _calibration(workload):
    """The slice for ``workload``; a single-threaded one is pinned to one CPU.

    The host's vCPUs slow down independently (no correlation between
    them at any window from 0.25 s to 2 s), so a single-threaded workload
    runs on one CPU together with its slices.
    """
    from perfbench.calib import CalibrationSlice

    if workload.workers_per_unit == 1:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return CalibrationSlice(repeats=workload.calib_repeats)


def _setup(workload, seed: int) -> None:
    """Train the networks into a fresh private cache and build the inputs."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="zoo-", dir=WORK) as cache:
        workload.setup(seed, Path(cache))


def _import_in_child() -> None:
    """Start a fresh interpreter that imports the certifier, and wait for it."""
    subprocess.run(
        [sys.executable, "-c", _IMPORT_CHILD, str(ROOT / "src"), str(ROOT)],
        cwd=ROOT, check=True,
    )


def _bracketed(step, calib, repeats: int) -> list[float]:
    """Wall of each of ``repeats`` calls of ``step``, in adjacent-slice units."""
    from perfbench.stats import adjacent_calibration

    walls, slices = [], [calib()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        step()
        walls.append(time.perf_counter() - t0)
        slices.append(calib())
    return [w / c for w, c in zip(walls, adjacent_calibration(slices))]


def _run_pass(units, calib, tracer=None):
    """Run every unit once, each bracketed by calibration slices."""
    from perfbench.workloads import PassRecord, UnitResult

    gc.collect()
    record = PassRecord(units=[], slices=[calib()])
    for unit in units:
        if tracer is not None:
            tracer.query = unit.label
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, err = unit.run(), None
        # A raising unit is recorded, not allowed to end the run: it fails
        # the checks and counts against ok_frac, and the metrics still print.
        except Exception:  # noqa: BLE001
            out, err = None, traceback.format_exc()
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        record.units.append(UnitResult(unit.label, wall, out, err))
        record.slices.append(calib())
    return record


def _timed_passes(workload, calib, seconds: float, min_passes: int) -> list:
    """Passes until the next one would overrun ``seconds`` (at least ``min_passes``)."""
    records = []
    t0 = time.perf_counter()
    while True:
        records.append(_run_pass(workload.units(), calib))
        elapsed = time.perf_counter() - t0
        if len(records) >= min_passes and elapsed * (1 + 1 / len(records)) > seconds:
            return records


def _info(records, what: str) -> None:
    from perfbench.stats import normalized

    for p, rec in enumerate(records, start=1):
        wall = sum(u.wall for u in rec.units)
        calib = sum(rec.slices)
        norm = normalized([u.wall for u in rec.units], rec.slices)
        print(f"# {what} pass {p}: wall_s={wall:.4f} calib_s={calib:.4f} "
              f"wall_norm={norm:.4f} units_s={[round(u.wall, 4) for u in rec.units]} "
              f"slices_s={[round(s, 5) for s in rec.slices]}")


# -- per-workload outcomes and checks ---------------------------------------


def _alg1_outcomes(workload, records, seed: int):
    """(ε̄ per network, failures)."""
    import numpy as np

    from perfbench import checks

    keys_per_pass, failures = [], []
    for rec in records:
        keys = []
        for unit in rec.units:
            if unit.error is not None:
                failures.append(f"{unit.label}: raised\n{unit.error}")
                keys.append(None)
            else:
                keys.append(unit.output.epsilons.tobytes())
        keys_per_pass.append(keys)
    failures += checks.identical_across_passes(keys_per_pass, f"{workload.name} ε̄")
    rng = np.random.default_rng(seed)
    eps = {}
    for unit in records[0].units:
        if unit.error is not None:
            continue
        dnn_id = int(unit.label[3:])
        layers = workload.layers[dnn_id]
        gap = checks.sampled_global_gap(
            layers, workload.delta, workload.domain.lo, workload.domain.hi, rng
        )
        failures += checks.alg1_certificate(unit.label, unit.output.epsilons, gap)
        eps[unit.label] = float(np.max(unit.output.epsilons))
    return eps, failures


def _local_outcomes(workload, records, seed: int):
    """(ε̄ of every certified query, failures)."""
    import numpy as np

    from repro.certify import certify_local_exact
    from repro.certify.presolve import perturbation_ball

    from perfbench import checks

    keys_per_pass, failures = [], []
    for rec in records:
        keys = []
        for unit in rec.units:
            if unit.error is not None:
                failures.append(f"{unit.label}: raised\n{unit.error}")
                continue
            for r in unit.output.results:
                cert = r.certificate
                keys.append((r.tag, None) if cert is None else (
                    r.tag, cert.method, cert.detail.get("verdict"),
                    cert.epsilons.tobytes(),
                ))
        keys_per_pass.append(keys)
    failures += checks.identical_across_passes(keys_per_pass, "local-batch verdicts")
    rng = np.random.default_rng(seed)
    certified, unwitnessed = [], []
    for unit in records[0].units:
        if unit.error is not None:
            continue
        for r in unit.output.results:
            if not r.ok:
                continue
            i = int(r.tag[1:])
            ball = perturbation_ball(workload.centers[i], workload.delta, workload.domain)
            failures += checks.local_verdict(
                r.tag, workload.layers, r.certificate, float(workload.epsilons[i]),
                ball.lo, ball.hi, rng,
            )
            verdict = r.certificate.detail.get("verdict")
            if verdict == "certified":
                certified.append(float(np.max(r.certificate.epsilons)))
            elif verdict == "refuted" and r.certificate.detail.get("witness") is None:
                unwitnessed.append((r.tag, i, r.certificate.epsilons))
    # Refutations by attack lower bound, checked against the exact MILP ε
    # on a seeded sample (all of them would cost as much as a pass).
    picks = rng.permutation(len(unwitnessed))[:EXACT_REFUTATION_SAMPLES]
    for k in sorted(picks):
        tag, i, eps_lb = unwitnessed[k]
        exact = certify_local_exact(
            workload.layers, workload.centers[i], workload.delta, workload.domain
        )
        failures += checks.exact_refutation(tag, eps_lb, exact)
    print(f"# refutations without a witness: {len(unwitnessed)}, "
          f"{len(picks)} checked against the exact ε")
    return certified, failures


def _counts(workload, records) -> tuple[int, int, int]:
    """(attempted, not ok or degraded, decided) over the timed passes."""
    import numpy as np

    attempted = failed = decided = 0
    for rec in records:
        for unit in rec.units:
            if workload.name.startswith("alg1"):
                attempted += 1
                if unit.error is not None:
                    failed += 1
                else:
                    decided += bool(np.all(np.isfinite(unit.output.epsilons)))
                continue
            if unit.error is not None:
                attempted += workload.batch
                failed += workload.batch
                continue
            for r in unit.output.results:
                attempted += 1
                failed += (not r.ok) or r.degraded
                verdict = r.certificate.detail.get("verdict") if r.ok else None
                decided += verdict in ("certified", "refuted")
    return attempted, failed, decided


def _network_norms(records) -> list[float]:
    """``alg1-*``: each network's certificate time in calibration units.

    A certificate's time is divided by its pass's calibration, the same
    denominator as ``wall_norm``: dividing it by only its own two
    neighbouring slices doubled the run-to-run spread.  Every pass
    certifies the same networks, so each network's value is its median
    over passes.
    """
    from perfbench.stats import adjacent_calibration

    per_network: dict[str, list[float]] = {}
    for rec in records:
        calib = statistics.fmean(adjacent_calibration(rec.slices))
        for unit in rec.units:
            if unit.error is None:
                per_network.setdefault(unit.label, []).append(unit.wall / calib)
    return [statistics.median(v) for v in per_network.values()]


def _query_norms(records) -> list[float]:
    """``local-batch``: every query's ``BatchResult.elapsed`` over its batch's
    adjacent slices, pooled over passes.

    Each (query, pass) sample counts.  The tail is the same dozen
    split-tier queries in every run, so p99 moves with the host's speed
    during those few seconds: over sets of ten runs its spread was
    0.06–0.10 under this rule and 0.07–0.11 when each query's median
    over passes was divided by its pass's calibration instead.
    """
    from perfbench.stats import adjacent_calibration

    samples = []
    for rec in records:
        for unit, calib in zip(rec.units, adjacent_calibration(rec.slices)):
            if unit.error is None:
                samples += [r.elapsed / calib for r in unit.output.results]
    return samples


# -- the two kinds of run ---------------------------------------------------


def timed_run(name: str, seed: int, seconds: float) -> dict:
    from perfbench import stats, workloads

    workload = workloads.make(name)
    calib = _calibration(workload)
    calib()  # first call pays HiGHS's lazy start-up
    # Set-up time in reference seconds: the import (in fresh interpreters,
    # since this one has it cached) and the set-up proper, each repeated
    # between calibration slices and taken as the median.  Both are
    # single-threaded, so they run on one CPU with their slices.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    imports = _bracketed(_import_in_child, calib, SETUP_REPEATS)
    setups = _bracketed(lambda: _setup(workload, seed), calib, SETUP_REPEATS)
    os.sched_setaffinity(0, cpus)
    setup_s = (statistics.median(imports) + statistics.median(setups)) * REFERENCE_SLICE_S
    _run_pass(workload.units(), calib)  # untimed warm-up
    min_passes = 3
    records = _timed_passes(workload, calib, seconds, min_passes)
    _info(records, "timed")

    norms = [stats.normalized([u.wall for u in r.units], r.slices) for r in records]
    attempted, failed, decided = _counts(workload, records)
    if name.startswith("alg1"):
        eps, failures = _alg1_outcomes(workload, records, seed)
        eps_bar = statistics.fmean(eps.values()) if eps else float("nan")
        # Too few networks for ten samples beyond a p99: the tail is the
        # slowest network's certificate.
        per_query = _network_norms(records)
        p99 = max(per_query)
        print(f"# eps per network: {eps}")
    else:
        certified, failures = _local_outcomes(workload, records, seed)
        eps_bar = statistics.fmean(certified) if certified else float("nan")
        per_query = _query_norms(records)
        p99 = stats.percentile(per_query, 99.0)
    p50 = statistics.median(per_query)
    print(f"# setup in slices: imports {[round(x, 2) for x in imports]}, set-ups "
          f"{[round(x, 2) for x in setups]}")
    print(f"# per-query samples: {len(per_query)}; highest percentile with "
          f">= {stats.MIN_BEYOND} beyond: p{stats.highest_percentile(len(per_query))}")
    for failure in failures:
        print(f"# CHECK FAILED: {failure}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_norm": (statistics.median(norms), "calib"),
        "query_p50_norm": (p50, "calib"),
        "query_p99_norm": (p99, "calib"),
        "eps_bar": (eps_bar, "output"),
        "decided_frac": (decided / attempted, "frac"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_mem_mb": (_peak_mem_mb(), "MB"),
    }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(name: str, seed: int, seconds: float) -> dict:
    from perfbench import stats, workloads
    from perfbench.breakdown import per_layer, runtime_metrics
    from perfbench.trace import Tracer, installed

    workload = workloads.make(name)
    calib = _calibration(workload)
    _setup(workload, seed)
    calib()
    _run_pass(workload.units(), calib)  # untimed warm-up
    local = not name.startswith("alg1")
    if local:
        # Forked workers cannot send spans back, so the traced run is
        # inline; one pooled pass supplies the runtime metrics, and an
        # untraced inline pass is the overhead baseline.
        pooled = [_run_pass(workload.units(), calib)]
        plain = [_run_pass(workload.units(1), calib)]
        passes = 1
    else:
        pooled = []
        plain = _timed_passes(workload, calib, seconds / 2, 1)
        passes = len(plain)
    tracer = Tracer()
    tracer.tags = (
        {c.tobytes(): t for c, t in zip(workload.centers, workload.tags)} if local else {}
    )
    with installed(tracer) as missing:
        traced = [
            _run_pass(workload.units(1) if local else workload.units(), calib, tracer)
            for _ in range(passes)
        ]
    _info(pooled, "pooled")
    _info(plain, "untraced")
    _info(traced, "traced")

    def norm(records):
        return statistics.median(
            stats.normalized([u.wall for u in r.units], r.slices) for r in records
        )

    metrics = per_layer(tracer.spans, passes)
    metrics.update(runtime_metrics(pooled))
    metrics["trace.overhead_frac"] = (norm(traced) / norm(plain) - 1.0, "frac")
    metrics["trace.calib_s"] = (
        statistics.fmean(s for r in traced for s in r.slices), "s"
    )
    records = pooled + plain + traced
    if local:
        _, failures = _local_outcomes(workload, records, seed)
    else:
        _, failures = _alg1_outcomes(workload, records, seed)
        # Limit hits are read from the HiGHS spans: without any, a
        # zero count would be no evidence.
        if not metrics["milp.highs_lp_calls"][0] + metrics["milp.highs_mip_calls"][0]:
            failures.append("no HiGHS call was traced: solver limit hits cannot be checked")
        hits = metrics["milp.limit_hits"][0]
        if hits:
            failures.append(f"{hits} solver limit hit(s): ε̄ would depend on machine speed")
    failures += [f"trace: entry point {m} not found, its metrics would read 0"
                 for m in missing]
    attempted, failed, _ = _counts(workload, traced)
    for failure in failures:
        print(f"# CHECK FAILED: {failure}")
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"trace-{name}-seed{seed}.jsonl")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_certifier():
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds)
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
