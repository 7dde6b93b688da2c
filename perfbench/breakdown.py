"""Per-layer metrics: the traced spans and the engine's own statistics, per pass."""

from __future__ import annotations

from typing import Sequence

from perfbench.stats import Span, outermost, self_times

#: Algorithm 1 layers reported one by one (the Table-1 nets have three).
ALG1_LAYERS = (1, 2, 3)


def _has_ancestor(spans: Sequence[Span], i: int, prefix: str) -> bool:
    parent = spans[i].parent
    while parent >= 0:
        if spans[parent].name.startswith(prefix):
            return True
        parent = spans[parent].parent
    return False


def per_layer(spans: Sequence[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Span totals divided by the number of traced passes."""
    own = self_times(spans)

    def pick(prefix: str, outer: bool = True) -> list[int]:
        if outer:
            return outermost(spans, prefix)
        return [i for i, s in enumerate(spans) if s.name.startswith(prefix)]

    def total(idx: list[int]) -> float:
        return sum(spans[i].duration for i in idx)

    def counter(idx: list[int], key: str) -> float:
        return sum(spans[i].counters.get(key, 0) for i in idx)

    solves = pick("milp.solve")
    lp = pick("milp.highs_lp")
    mip = pick("milp.highs_mip")
    highs_in_solves = [i for i in lp + mip if _has_ancestor(spans, i, "milp.solve")]
    export = pick("milp.export")
    enc = pick("encoding.")
    bnd = pick("bounds.")
    alg1 = pick("certify.alg1", outer=False)
    alg1_runs = [i for i in alg1 if spans[i].name == "certify.alg1"]
    layers = [i for i in alg1 if spans[i].name == "certify.alg1_layer"]
    pre = pick("certify.presolve")
    split = pick("certify.split")
    pre_queries = counter(pre, "queries")
    domains = counter(split, "domains")

    raw = {
        "milp.solves": (len(solves), "count"),
        "milp.solve_s": (total(solves), "s"),
        "milp.shim_s": (total(solves) - total(highs_in_solves), "s"),
        "milp.export_calls": (len(export), "count"),
        "milp.export_s": (total(export), "s"),
        "milp.highs_lp_calls": (len(lp), "count"),
        "milp.highs_lp_s": (total(lp), "s"),
        "milp.lp_iters": (counter(lp, "nit"), "count"),
        "milp.highs_mip_calls": (len(mip), "count"),
        "milp.highs_mip_s": (total(mip), "s"),
        "milp.mip_nodes": (counter(mip, "nodes"), "count"),
        "milp.limit_hits": (
            sum(spans[i].counters.get("status") == 1 for i in lp + mip), "count"
        ),
        "encoding.calls": (len(enc), "count"),
        "encoding.s": (total(enc), "s"),
        "encoding.rows": (counter(enc, "rows"), "count"),
        "encoding.binaries": (counter(enc, "binaries"), "count"),
        "bounds.calls": (len(bnd), "count"),
        "bounds.rows": (counter(bnd, "rows"), "count"),
        "bounds.s": (total(bnd), "s"),
        "certify.alg1_s": (total(alg1_runs), "s"),
        "certify.alg1_self_s": (sum(own[i] for i in alg1_runs), "s"),
    }
    for layer in ALG1_LAYERS:
        idx = [i for i in layers if spans[i].counters.get("layer") == layer]
        raw[f"certify.alg1_layer{layer}_s"] = (total(idx), "s")
    raw.update({
        "certify.refine_s": (total(pick("certify.refine")), "s"),
        "certify.presolve_s": (total(pre), "s"),
        "certify.split_s": (total(split), "s"),
        "certify.split_domains": (domains, "count"),
        "certify.split_leaves": (counter(split, "leaves"), "count"),
    })
    out = {k: (v / passes, unit) for k, (v, unit) in raw.items()}
    # Ratios are per query, not per pass.
    out["certify.presolve_decided_frac"] = (
        counter(pre, "decided") / pre_queries if pre_queries else 0.0, "frac"
    )
    out["certify.split_bound_proved_frac"] = (
        counter(split, "proved_by_bounds") / domains if domains else 0.0, "frac"
    )
    return out


def runtime_metrics(records) -> dict[str, tuple[float, str]]:
    """Batch-engine metrics from the results of pooled (untraced) passes.

    Bulk-presolve answers carry their group's per-query share of the
    batched pass and no retry ``detail``; dispatched answers carry the
    worker's own wall time.  ``dispatch_s`` is the dispatch wall not
    covered by worker compute: pool start-up, pickling, queueing and
    workers idling at the end of a batch.
    """
    run_s = bulk_s = busy_s = dispatch_s = 0.0
    screened = answered = retries = degraded = 0
    for rec in records:
        for unit in rec.units:
            if unit.error is not None:
                continue
            out = unit.output
            bulk = [r for r in out.results if r.detail is None]
            dispatched = [r for r in out.results if r.detail is not None]
            group = bulk[0].elapsed * out.presolve_stats["queries"] if bulk else 0.0
            work = sum(r.elapsed for r in dispatched)
            wall = max(unit.wall - group, 0.0)
            run_s += unit.wall
            bulk_s += group
            busy_s += work / out.workers
            dispatch_s += max(wall - work / out.workers, 0.0)
            screened += out.presolve_stats["queries"]
            answered += out.presolve_stats["answered"]
            retries += out.fault_stats["retries"]
            degraded += out.fault_stats["degraded"]
    passes = max(len(records), 1)
    dispatch_wall = run_s - bulk_s
    return {
        "runtime.run_s": (run_s / passes, "s"),
        "runtime.bulk_presolve_s": (bulk_s / passes, "s"),
        "runtime.bulk_answered_frac": (answered / screened if screened else 0.0, "frac"),
        "runtime.worker_busy_frac": (
            busy_s / dispatch_wall if dispatch_wall > 0 else 0.0, "frac"
        ),
        "runtime.dispatch_s": (dispatch_s / passes, "s"),
        "runtime.retries": (retries / passes, "count"),
        "runtime.degraded": (degraded / passes, "count"),
    }
