"""Benchmark — fault-tolerance runtime: off-mode overhead and recovery.

The fault-tolerant runtime's claim (ISSUE 10): chaos-grade robustness
must be free when it is off and cheap when it fires.  Three
measurements:

* **off-mode hook overhead** — the disabled fault-point guard
  (``if _faults.ENABLED: fault_point(...)``) micro-timed against the
  same loop without it; reported as nanoseconds per hook and as a
  bound on the per-query overhead percentage (the acceptance target is
  < 1 %);
* **raise-recovery scenario** — a presolve+LPR query mix run clean and
  under a deterministic one-raise-per-worker schedule whose retries
  are guaranteed to succeed; every verdict and every ε must be
  bit-identical to the clean run (gated), recovery throughput is
  recorded;
* **crash-recovery scenario** — every worker's first query kills the
  worker (``os._exit``); the supervisor salvages, rebuilds and
  re-dispatches; throughput and rebuild counts are recorded and every
  query must still resolve (degraded answers allowed, errors not).

Run standalone (used by CI in smoke mode)::

    PYTHONPATH=src python -m benchmarks.bench_faults --smoke

or as part of the benchmark suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -s
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from benchmarks.bench_batch_bounds import _timed_min
from benchmarks.bench_splitting import tiny_chain
from benchmarks.conftest import write_bench_json
from repro import _faults
from repro.bounds import Box
from repro.certify.presolve import presolve_local_many
from repro.runtime import faults
from repro.runtime.batch import BatchCertifier, local_queries
from repro.runtime.retry import RetryPolicy

#: Generous per-query hook-count bound used to convert the measured
#: per-hook cost into a per-query overhead percentage: one dispatch and
#: one worker hook plus a comfortable margin for every solver-tier hook
#: (``session.solve`` / ``scipy.solve`` / ``solve.chunk``) a query of
#: the benchmarked shape can hit.
HOOKS_PER_QUERY = 64


def _loop_guarded(iterations: int) -> float:
    acc = 0.0
    for i in range(iterations):
        if _faults.ENABLED:
            _faults.fault_point("bench.hook")
        acc += math.sqrt(i + 1.5)
    return acc


def _loop_plain(iterations: int) -> float:
    acc = 0.0
    for i in range(iterations):
        acc += math.sqrt(i + 1.5)
    return acc


def hook_overhead(iterations: int) -> dict:
    """Micro-time the disabled guard against the guard-free loop.

    Both loops share the same arithmetic body, so their ratio isolates
    the cost of one module-attribute load and one branch — what every
    fault-point site pays when injection is off — and stays stable
    across machines of different absolute speed.
    """
    faults.clear()
    (t_guarded, _), (t_plain, _) = _timed_min(
        lambda: _loop_guarded(iterations),
        lambda: _loop_plain(iterations),
        repeats=7,
    )
    return {
        "iterations": iterations,
        "time_guarded": t_guarded,
        "time_plain": t_plain,
        "hook_ns": max(0.0, (t_guarded - t_plain) / iterations * 1e9),
        "off_mode_hook_speedup": t_plain / max(t_guarded, 1e-12),
    }


def _mixed_queries(layers, domain, delta, n_centers, n_eps, seed=0):
    """A centers × ε grid whose presolve verdicts mix all three classes.

    ``presolve`` stays on per query but the engine's bulk prefilter is
    disabled by the caller, so the tier runs *inside* the workers —
    where the chaos schedules fire.
    """
    rng = np.random.default_rng(seed)
    centers = domain.sample(rng, n_centers)
    probe = presolve_local_many(
        layers, centers, delta, 1e9, domain=domain, attack_samples=0
    )
    scale = max(float(c.epsilon) for c in probe)
    queries = []
    for eps in np.geomspace(scale * 1e-3, scale * 4.0, n_eps):
        queries.extend(
            local_queries(
                layers, centers, delta, method="lpr", domain=domain,
                epsilon=float(eps), tag_prefix=f"eps{eps:.3g}",
            )
        )
    return queries


def _verdict_label(result) -> str:
    verdict = result.certificate.verdict
    return "none" if verdict is None else str(verdict)


def recovery_scenario(layers, domain, delta, n_centers, n_eps, workers) -> dict:
    """Clean batch vs the same batch under guaranteed-recovery chaos.

    The schedule raises on every worker process's *first* query — at
    most ``workers`` transient failures and no worker deaths — and the
    policy allows ``workers + 1`` attempts, so every query provably
    succeeds and the chaos run must reproduce the clean run answer for
    answer.  Any verdict or ε drift is a recovery-soundness bug, not a
    performance wobble, hence the exact-gated verdict counts.
    """
    def engine():
        return BatchCertifier(
            max_workers=workers,
            bulk_presolve=False,
            retry=RetryPolicy(max_attempts=workers + 1, base_delay=0.001),
        )

    clean_engine = engine()
    t0 = time.perf_counter()
    clean = clean_engine.run(_mixed_queries(layers, domain, delta, n_centers, n_eps))
    t_clean = time.perf_counter() - t0

    chaos_engine = engine()
    with faults.injected(faults.FaultPlan.parse("batch.worker:raise@1")):
        t0 = time.perf_counter()
        chaotic = chaos_engine.run(
            _mixed_queries(layers, domain, delta, n_centers, n_eps)
        )
        t_chaos = time.perf_counter() - t0

    identical = len(clean) == len(chaotic) and all(
        a.ok and b.ok and not b.degraded
        and _verdict_label(a) == _verdict_label(b)
        and np.array_equal(a.certificate.epsilons, b.certificate.epsilons)
        for a, b in zip(clean, chaotic)
    )
    labels = [_verdict_label(r) for r in chaotic]
    return {
        "queries": len(chaotic),
        "workers": workers,
        "time_clean": t_clean,
        "time_chaos": t_chaos,
        "per_query_clean": t_clean / len(clean),
        "recovery_queries_per_sec": len(chaotic) / max(t_chaos, 1e-9),
        "recovery_overhead_ratio": t_chaos / max(t_clean, 1e-9),
        "retries": chaos_engine.fault_stats["retries"],
        "verdicts_identical": identical,
        "verdicts_certified": labels.count("certified"),
        "verdicts_refuted": labels.count("refuted"),
        "verdicts_undecided": labels.count("none"),
    }


def crash_scenario(layers, domain, delta, n_queries, workers) -> dict:
    """Throughput when every worker's *second* query kills the worker.

    First queries complete and must be salvaged when the crash breaks
    the pool; the crash victims retry on rebuilt workers (whose first
    queries succeed), so the batch recovers by salvage + re-dispatch
    rather than by degradation.
    """
    rng = np.random.default_rng(3)
    centers = domain.sample(rng, n_queries)
    engine = BatchCertifier(
        max_workers=workers,
        retry=RetryPolicy(base_delay=0.001),
    )
    with faults.injected(faults.FaultPlan.parse("batch.worker:crash@2")):
        t0 = time.perf_counter()
        results = engine.run(
            local_queries(layers, centers, delta, method="lpr", domain=domain)
        )
        t_chaos = time.perf_counter() - t0
    return {
        "queries": len(results),
        "workers": workers,
        "time_chaos": t_chaos,
        "crash_queries_per_sec": len(results) / max(t_chaos, 1e-9),
        "all_resolved": all(r.ok for r in results),
        "in_order": [r.index for r in results] == list(range(len(results))),
        "degraded": sum(r.degraded for r in results),
        "pool_rebuilds": engine.fault_stats["pool_rebuilds"],
        "retries": engine.fault_stats["retries"],
    }


def run(smoke: bool, emit=print, write_json=write_bench_json) -> dict:
    """Execute the bench; returns (and persists) the results dict.

    The worker count is pinned (not ``cpu_count``-derived) so the
    scenario structure — worker processes, fault schedules, verdict
    counts — is identical on every machine; only the recorded (ungated)
    timings scale with the hardware.
    """
    workers = 4
    if smoke:
        rng = np.random.default_rng(0)
        layers = tiny_chain(rng)
        domain = Box.uniform(6, 0.0, 1.0)
        hooks = hook_overhead(iterations=200_000)
        recovery = recovery_scenario(
            layers, domain, 0.12, n_centers=6, n_eps=4, workers=workers
        )
        crash = crash_scenario(layers, domain, 0.12, n_queries=8, workers=workers)
    else:
        rng = np.random.default_rng(0)
        layers = tiny_chain(rng, depth=4, width=20)
        domain = Box.uniform(6, 0.0, 1.0)
        hooks = hook_overhead(iterations=400_000)
        recovery = recovery_scenario(
            layers, domain, 0.12, n_centers=12, n_eps=8, workers=workers
        )
        crash = crash_scenario(layers, domain, 0.12, n_queries=16, workers=workers)

    # The acceptance bound: per-hook cost x a generous hook count,
    # relative to the cheapest real per-query time measured above.
    per_query_ns = recovery["per_query_clean"] * 1e9
    hooks["off_overhead_pct_bound"] = (
        100.0 * HOOKS_PER_QUERY * hooks["hook_ns"] / max(per_query_ns, 1.0)
    )

    emit(
        f"off-mode fault hook: {hooks['hook_ns']:.1f} ns/hook "
        f"(guarded/plain ratio {hooks['off_mode_hook_speedup']:.3f}) -> "
        f"<= {hooks['off_overhead_pct_bound']:.4f}% of a "
        f"{per_query_ns / 1e6:.2f} ms query at {HOOKS_PER_QUERY} hooks/query"
    )
    emit(
        f"raise-recovery: {recovery['queries']} queries, "
        f"{recovery['retries']} retries, clean {recovery['time_clean']:.2f}s "
        f"vs chaos {recovery['time_chaos']:.2f}s "
        f"({recovery['recovery_queries_per_sec']:.1f} q/s, answers "
        f"{'identical' if recovery['verdicts_identical'] else 'DIVERGED'})"
    )
    emit(
        f"crash-recovery: {crash['queries']} queries through "
        f"{crash['pool_rebuilds']} pool rebuild(s), "
        f"{crash['crash_queries_per_sec']:.1f} q/s, "
        f"{crash['degraded']} degraded, "
        f"{'all resolved' if crash['all_resolved'] else 'UNRESOLVED QUERIES'}"
    )

    results = {"hooks": hooks, "recovery": recovery, "crash": crash}
    prefix = "smoke_" if smoke else ""
    payload = {f"{prefix}{key}": value for key, value in results.items()}
    if write_json is not None:
        write_json("faults", payload)
    return results


def _check(results: dict, smoke: bool) -> list[str]:
    """Acceptance checks; returns a list of failure messages."""
    failures = []
    hooks = results["hooks"]
    if hooks["off_overhead_pct_bound"] >= 1.0:
        failures.append(
            f"off-mode fault hooks cost {hooks['off_overhead_pct_bound']:.2f}% "
            "of a query — the <1% acceptance bound is blown"
        )
    recovery = results["recovery"]
    if not recovery["verdicts_identical"]:
        failures.append(
            "raise-recovery run diverged from the clean run (the schedule "
            "guarantees full recovery, so this is a retry-engine bug)"
        )
    if min(recovery["verdicts_certified"], recovery["verdicts_refuted"]) == 0:
        failures.append(
            "recovery ε ladder missed a verdict class — the scenario no "
            "longer exercises both presolve sides under chaos"
        )
    crash = results["crash"]
    if not crash["all_resolved"]:
        failures.append("crash scenario left unresolved (error) queries")
    if not crash["in_order"]:
        failures.append("crash scenario returned results out of order")
    return failures


def test_bench_faults(report, json_report):
    """Benchmark-suite entry: asserts the ISSUE 10 acceptance bounds."""
    results = run(smoke=False, emit=report, write_json=json_report)
    failures = _check(results, smoke=False)
    assert not failures, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small nets and batches (CI mode)",
    )
    args = parser.parse_args(argv)
    results = run(smoke=args.smoke)
    failures = _check(results, smoke=args.smoke)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if failures:
        return 1
    print(
        f"OK (hook {results['hooks']['hook_ns']:.1f} ns, overhead bound "
        f"{results['hooks']['off_overhead_pct_bound']:.4f}% < 1%, "
        "chaos answers identical, crashes recovered)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
