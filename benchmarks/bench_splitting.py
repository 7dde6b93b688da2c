"""Benchmark — input-splitting tier vs the monolithic MILP tier.

The split tier's claim: for ε-queries the presolve tier leaves
undecided, branch-and-bound over the input space (symbolic bounds per
subdomain, binary-sparse MILPs only at the leaves) beats one monolithic
big-M MILP over the whole perturbation ball.  Two measurements:

* **speedup at equal verdicts** — a set of presolve-*undecided* local
  ε-queries (targets chosen strictly between each query's attack lower
  bound and its root symbolic bound) certified both ways; wall-clock
  ratio is reported and every verdict must be identical;
* **deadline scenario** — a global ε-query under a shared time limit
  that the monolithic exact MILP cannot decide within (it times out and
  falls back to a too-loose sound bound), while the split tier decides
  it by proving cheap subdomains.

Run standalone (used by CI in smoke mode, no model training needed)::

    PYTHONPATH=src python -m benchmarks.bench_splitting --smoke

or as part of the benchmark suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_splitting.py -s
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from benchmarks.conftest import write_bench_json
from repro.bounds import Box, SymbolicPropagator
from repro.certify import SplitConfig, certify_exact_global, certify_global_split
from repro.certify.presolve import (
    perturbation_ball,
    presolve_global,
    presolve_local,
    variation_from_reference,
)
from repro.nn.affine import AffineLayer, affine_chain_forward
from repro.runtime import BatchCertifier, local_queries
from repro.utils import format_table


def tiny_chain(rng, depth=3, width=14, in_dim=6, out_dim=2, scale=1.6):
    """Smoke-mode stand-in: one small random net, trains nothing."""
    dims = [in_dim] + [width] * (depth - 1) + [out_dim]
    return [
        AffineLayer(
            scale * rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
            0.1 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


def undecided_local_epsilon(layers, center, delta, domain, side="high"):
    """A target the presolve tier provably cannot decide, or ``None``.

    Walks down from the root symbolic bound over targets
    :func:`presolve_local` returns ``None`` for (bound too loose to
    prove, attack too weak to refute) — the queries that actually reach
    a MILP tier, where the split-vs-monolithic comparison is meaningful.
    ``side="high"`` returns the largest such target (usually above the
    true ε → both tiers certify); ``side="low"`` the smallest (usually
    below → both tiers refute), so a query set alternating sides
    compares verdicts of both kinds.
    """
    ball = perturbation_ball(center, delta, domain)
    bounds = SymbolicPropagator().propagate(layers, ball)
    out = bounds.output
    base = affine_chain_forward(layers, center)
    ub = float(variation_from_reference(out.lo, out.hi, base).max())
    undecided = [
        ub * factor
        for factor in (0.98, 0.95, 0.9, 0.8, 0.65, 0.5, 0.35, 0.22, 0.12)
        if presolve_local(
            layers, center, delta, ub * factor, domain=domain,
        )
        is None
    ]
    if not undecided:
        return None
    return max(undecided) if side == "high" else min(undecided)


def monolithic_verdict(cert, epsilon) -> str:
    """Classify a bound-producing certificate against an ε target."""
    if cert.epsilon <= epsilon:
        return "certified"  # sound upper bound below the target
    if cert.exact:
        return "refuted"  # exact ε above the target
    return "undecided"  # loose bound above the target proves nothing


def refute_side_agreement(layers, domain, delta, n_samples, seed=100) -> dict:
    """Verdict agreement on *refute-side* presolve-undecided targets.

    Targets just above each query's attack lower bound are the hardest
    refutations (the cheap attack already failed); the split tier is
    configured to fall to MILP leaves quickly (deep splitting buys
    nothing when a concrete witness is what's needed).  This set checks
    completeness — both tiers must return the same verdict — but is not
    part of the speedup claim, which is about the bound-provable side.
    """
    rng = np.random.default_rng(seed)
    from repro.certify import SplitConfig, certify_local_exact, certify_local_split

    verdicts_mono = []
    verdicts_split = []
    found = 0
    for x in domain.sample(rng, 6 * n_samples):
        epsilon = undecided_local_epsilon(layers, x, delta, domain, side="low")
        if epsilon is None:
            continue
        found += 1
        mono = certify_local_exact(layers, x, delta, domain=domain)
        verdicts_mono.append(monolithic_verdict(mono, epsilon))
        split = certify_local_split(
            layers, x, delta, epsilon, domain=domain,
            config=SplitConfig(max_domains=16, max_depth=3),
        )
        verdicts_split.append(split.detail["verdict"])
        if found == n_samples:
            break
    return {
        "queries": found,
        "verdicts_monolithic": verdicts_mono,
        "verdicts_split": verdicts_split,
        "verdicts_identical": verdicts_mono == verdicts_split,
    }


def local_speedup(layers, domain, delta, n_samples, seed=0) -> dict:
    """Certify a presolve-undecided query set monolithically and split."""
    rng = np.random.default_rng(seed)
    queries = []
    for x in domain.sample(rng, 4 * n_samples):
        epsilon = undecided_local_epsilon(layers, x, delta, domain)
        if epsilon is not None:
            queries.append((x, epsilon))
        if len(queries) == n_samples:
            break
    if not queries:
        # Nothing presolve-undecided (bounds got tight on this net):
        # report a zeroed case so _check fails with its diagnosis
        # instead of this function crashing on an empty stack.
        return {
            "queries": 0,
            "epsilon_targets": [],
            "time_monolithic": 0.0,
            "time_split": 0.0,
            "speedup": 0.0,
            "verdicts_monolithic": [],
            "verdicts_split": [],
            "verdicts_identical": True,
            "split_domains": [],
            "split_milp_leaves": [],
        }
    engine = BatchCertifier(max_workers=1)

    def run_batch(split: bool):
        qs = local_queries(
            layers,
            np.stack([x for x, _ in queries]),
            delta,
            domain=domain,
            presolve=False,
            split=split,
            epsilon=queries[0][1],  # placeholder; per-query ε set below
        )
        # Per-query ε targets (local_queries applies one ε to all).
        for q, (_, epsilon) in zip(qs, queries):
            q.epsilon = epsilon
        t0 = time.perf_counter()
        results = engine.run(qs)
        elapsed = time.perf_counter() - t0
        assert all(r.ok for r in results), [r.error for r in results if not r.ok]
        return elapsed, [r.certificate for r in results]

    # Warm-up one monolithic query: lazy imports / solver start-up must
    # not pollute whichever timed run goes first.
    engine.run(local_queries(layers, queries[0][0][None], delta, domain=domain))

    t_mono, certs_mono = run_batch(split=False)
    t_split, certs_split = run_batch(split=True)

    verdicts_mono = [
        monolithic_verdict(c, eps) for c, (_, eps) in zip(certs_mono, queries)
    ]
    verdicts_split = [c.detail["verdict"] for c in certs_split]
    return {
        "queries": len(queries),
        "epsilon_targets": [eps for _, eps in queries],
        "time_monolithic": t_mono,
        "time_split": t_split,
        "speedup": t_mono / max(t_split, 1e-9),
        "verdicts_monolithic": verdicts_mono,
        "verdicts_split": verdicts_split,
        "verdicts_identical": verdicts_mono == verdicts_split,
        "split_domains": [c.detail["domains"] for c in certs_split],
        "split_milp_leaves": [c.detail["milp_leaves"] for c in certs_split],
    }


def splitting_provable_target(layers, domain, delta, partitions=24) -> dict:
    """An ε the split tier can prove from bounds over a small partition.

    Greedy probe mirroring the tier's own priority rule: repeatedly
    bisect the subdomain with the loosest twin symbolic bound (on its
    gradient-weighted widest dimension) until ``partitions`` boxes
    exist.  A target a quarter of the way from the partition's worst
    bound up to the root bound is provable by pure splitting in about
    that many subdomains, while staying strictly below the root bound —
    i.e. presolve-undecided.

    Returns the target plus the bound-tightness ratio (root bound over
    partition bound, >1 — how much the partition tightened the symbolic
    bound), the splitting tier's quality claim that the benchmark gate
    tracks alongside the speedup.
    """
    from repro.certify.presolve import _output_gradient
    from repro.certify.splitting import _bisect, _split_dimension

    sym = SymbolicPropagator()

    def bound(box):
        return sym.propagate(layers, box, delta).output_variation_bounds()

    root_eps = bound(domain)
    boxes = [(domain, root_eps)]
    while len(boxes) < partitions:
        worst = max(range(len(boxes)), key=lambda i: float(boxes[i][1].max()))
        box, eps = boxes.pop(worst)
        grad = _output_gradient(layers, box.center, int(np.argmax(eps)))
        dim = _split_dimension(box.width(), grad)
        for child in _bisect(box, dim):
            boxes.append((child, bound(child)))
    partition_max = max(float(eps.max()) for _, eps in boxes)
    root_max = float(root_eps.max())
    return {
        "epsilon": partition_max + 0.25 * (root_max - partition_max),
        "root_bound": root_max,
        "partition_bound": partition_max,
        "partitions": partitions,
        "bound_tightness": root_max / max(partition_max, 1e-9),
    }


def timeout_scenario(layers, domain, delta, time_limit, max_domains=512) -> dict:
    """A global ε-query the monolithic tier times out on, split decides.

    The target comes from :func:`splitting_provable_target`, so pure
    bound splitting decides it quickly; the monolithic exact MILP gets
    ``time_limit`` per solve and the split tier gets the same number as
    its *whole-run* deadline (a stricter budget).
    """
    target = splitting_provable_target(layers, domain, delta)
    epsilon = target["epsilon"]
    presolve_undecided = (
        presolve_global(layers, domain, delta, epsilon) is None
    )

    t0 = time.perf_counter()
    mono = certify_exact_global(layers, domain, delta, time_limit=time_limit)
    t_mono = time.perf_counter() - t0
    t0 = time.perf_counter()
    split = certify_global_split(
        layers, domain, delta, epsilon,
        config=SplitConfig(time_limit=time_limit, max_domains=max_domains),
    )
    t_split = time.perf_counter() - t0
    return {
        "epsilon_target": epsilon,
        "root_bound": target["root_bound"],
        "partition_bound": target["partition_bound"],
        "bound_tightness": target["bound_tightness"],
        "presolve_undecided": presolve_undecided,
        "time_limit": time_limit,
        "monolithic_verdict": monolithic_verdict(mono, epsilon),
        "monolithic_exact": mono.exact,
        "monolithic_epsilon": mono.epsilon,
        "monolithic_limit_hits": mono.detail.get("limit_hits", 0),
        "split_verdict": split.detail["verdict"],
        "split_domains": split.detail["domains"],
        "split_milp_leaves": split.detail["milp_leaves"],
        "time_monolithic": t_mono,
        "time_split": t_split,
    }


def run(smoke: bool, emit=print, write_json=write_bench_json) -> dict:
    """Execute the bench; returns (and persists) the results dict.

    Smoke results are written under ``smoke_*`` keys so the committed
    full-mode numbers survive a CI smoke run (the JSON writer merges).
    """
    if smoke:
        rng = np.random.default_rng(0)
        cases = [
            ("smoke: random 6-14-14-2 net", tiny_chain(rng),
             Box.uniform(6, 0.0, 1.0), 0.12, 6),
        ]
        t_rng = np.random.default_rng(1)
        # Low input dim (fast bound convergence under splitting), wide
        # layers (a hard monolithic twin MILP): the regime where input
        # splitting wins outright.
        timeout_net = tiny_chain(t_rng, depth=3, width=28, in_dim=2)
        timeout_args = (timeout_net, Box.uniform(2, 0.0, 1.0), 0.1, 3.0)
    else:
        from repro.zoo import get_network

        mpg3 = get_network(3)
        mpg4 = get_network(4)
        mpg5 = get_network(5)
        cases = [
            (
                f"Table-1 DNN-3 ({mpg3.description})",
                mpg3.network.to_affine_layers(),
                Box.uniform(mpg3.network.input_dim, 0.0, 1.0),
                0.2, 8,
            ),
            (
                f"Table-1 DNN-4 ({mpg4.description})",
                mpg4.network.to_affine_layers(),
                Box.uniform(mpg4.network.input_dim, 0.0, 1.0),
                0.2, 8,
            ),
        ]
        # DNN-5 (64 hidden neurons, 128 ITNE binaries at δ=2): the
        # monolithic exact MILP cannot close the gap in 10 s/solve while
        # the split tier proves the same target from subdomain bounds.
        timeout_args = (
            mpg5.network.to_affine_layers(),
            Box.uniform(mpg5.network.input_dim, 0.0, 1.0),
            2.0, 10.0,
        )

    case_results = []
    rows = []
    for label, layers, box, delta, n_samples in cases:
        stats = local_speedup(layers, box, delta, n_samples)
        stats["label"] = label
        stats["refute_side"] = refute_side_agreement(
            layers, box, delta, max(n_samples // 2, 2)
        )
        case_results.append(stats)
        rows.append(
            [
                label,
                f"{stats['queries']}",
                f"{stats['time_monolithic']:.2f}s",
                f"{stats['time_split']:.2f}s",
                f"{stats['speedup']:.1f}x",
                "yes" if stats["verdicts_identical"] else "NO",
                f"{stats['refute_side']['queries']} "
                + ("yes" if stats["refute_side"]["verdicts_identical"] else "NO"),
            ]
        )
    emit(
        format_table(
            ["net", "queries", "t monolithic", "t split", "speedup",
             "verdicts =", "refute-side ="],
            rows,
            title="input-splitting tier vs monolithic MILP on "
            "presolve-undecided local ε-queries",
        )
    )

    timeout = timeout_scenario(*timeout_args)
    emit(
        f"deadline scenario (limit {timeout['time_limit']:g}s): "
        f"monolithic -> {timeout['monolithic_verdict']} "
        f"(exact={timeout['monolithic_exact']}, "
        f"{timeout['monolithic_limit_hits']} limited solves, "
        f"{timeout['time_monolithic']:.2f}s) | "
        f"split -> {timeout['split_verdict']} "
        f"({timeout['split_domains']} subdomains, "
        f"{timeout['time_split']:.2f}s) | "
        f"bound tightness {timeout['bound_tightness']:.2f}x "
        f"(root {timeout['root_bound']:.3f} -> partition "
        f"{timeout['partition_bound']:.3f})"
    )

    results = {"cases": case_results, "timeout_scenario": timeout}
    if smoke:
        payload = {
            "smoke_cases": case_results,
            "smoke_timeout_scenario": timeout,
            "smoke_speedup": max(c["speedup"] for c in case_results),
            "smoke_bound_tightness": timeout["bound_tightness"],
        }
    else:
        payload = {
            "cases": case_results,
            "timeout_scenario": timeout,
            "speedup": max(c["speedup"] for c in case_results),
            "bound_tightness": timeout["bound_tightness"],
        }
    if write_json is not None:
        write_json("splitting", payload)
    return results


def _check(results: dict, smoke: bool) -> list[str]:
    """Acceptance checks; returns a list of failure messages."""
    failures = []
    for case in results["cases"]:
        if not case["verdicts_identical"]:
            failures.append(
                f"{case['label']}: split verdicts diverged from the "
                f"monolithic MILP ({case['verdicts_split']} vs "
                f"{case['verdicts_monolithic']})"
            )
        if case["queries"] == 0:
            failures.append(f"{case['label']}: no presolve-undecided queries")
        if not case["refute_side"]["verdicts_identical"]:
            failures.append(
                f"{case['label']}: refute-side verdicts diverged "
                f"({case['refute_side']['verdicts_split']} vs "
                f"{case['refute_side']['verdicts_monolithic']})"
            )
    timeout = results["timeout_scenario"]
    if timeout["split_verdict"] == "undecided":
        failures.append("deadline scenario: split tier failed to decide")
    if timeout["bound_tightness"] <= 1.0:
        failures.append(
            "deadline scenario: partitioning did not tighten the root "
            f"symbolic bound (tightness {timeout['bound_tightness']:.2f}x)"
        )
    if timeout["monolithic_verdict"] != "undecided":
        failures.append(
            "deadline scenario: monolithic tier did not time out "
            "(scenario lost its point — raise the problem size)"
        )
    if not smoke:
        best = max(c["speedup"] for c in results["cases"])
        if best < 3.0:
            failures.append(
                f"best split speedup {best:.2f}x below the 3x target"
            )
    return failures


def test_bench_splitting(report, json_report):
    """Benchmark-suite entry: Table-1 nets, asserts the PR targets."""
    results = run(smoke=False, emit=report, write_json=json_report)
    failures = _check(results, smoke=False)
    assert not failures, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small random nets (CI mode; no model training)",
    )
    args = parser.parse_args(argv)
    results = run(smoke=args.smoke)
    failures = _check(results, smoke=args.smoke)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    if failures:
        return 1
    best = max(c["speedup"] for c in results["cases"])
    print(f"OK (best speedup {best:.1f}x, deadline scenario decided by "
          "split only)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
