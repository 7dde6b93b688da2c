"""The batch certification engine: queries, results, process fan-out.

Everything submitted to a worker must be picklable; queries therefore
carry the *normal-form* network (a list of
:class:`~repro.nn.affine.AffineLayer`, plain arrays) and primitive
parameters instead of live solver objects.  Certification functions are
imported lazily inside the worker, so the package has no circular
imports and each worker process pays the import cost once: pool workers
are forked once per process and pool key and then serve every later
:func:`fan_out` call (see :func:`_pool_key`).
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

#: Exceptions meaning "the process pool itself is unusable" (cannot
#: fork/spawn, or a worker died mid-task) — distinct from a task
#: failure, which workers capture per task.
_POOL_FAILURES = (OSError, BrokenProcessPool)

import numpy as np

from repro import _faults, _sanitize
from repro.bounds.interval import Box
from repro.bounds.propagator import IBPPropagator
from repro.bounds.symbolic import SymbolicPropagator
from repro.nn.affine import AffineLayer
from repro.runtime.retry import RetryPolicy

#: Query kinds understood by :func:`_execute_query`.
QUERY_KINDS = ("local-exact", "local-nd", "local-lpr", "global", "global-exact")

#: Default per-MILP time limit (seconds) for global queries — matches
#: ``CertifierConfig.milp_time_limit`` and the CLI.  A timed-out solve
#: still contributes its sound dual bound, so the safeguard never costs
#: soundness, only tightness.
DEFAULT_GLOBAL_TIME_LIMIT = 30.0

#: Progress callback signature: ``(completed_count, total, result)``.
ProgressFn = Callable[[int, int, "BatchResult"], None]

#: Zero state of :attr:`BatchCertifier.fault_stats`.
_FAULT_STATS_ZERO = {
    "retries": 0,
    "degraded": 0,
    "timeouts": 0,
    "workers_killed": 0,
    "pool_rebuilds": 0,
}


@dataclass
class CertificationQuery:
    """One independent certification problem, described declaratively.

    Attributes:
        kind: One of :data:`QUERY_KINDS`.  ``local-*`` kinds certify
            robustness around ``center``; ``global`` runs Algorithm 1
            over ``domain``; ``global-exact`` the exact twin MILP.
        layers: Normal-form network (picklable plain arrays).
        delta: L∞ perturbation bound δ.
        center: The sample for local kinds (ignored for global kinds).
        domain: Input domain; required for global kinds, optional clip
            for local kinds.
        window: ND window ``W`` (``local-nd`` / ``global``); at least 1.
        refine_count: Neurons refined per sub-network (``global`` only);
            at least 0.
        time_limit: Per-MILP time limit in seconds.  For global kinds
            ``None`` means "use the engine default"
            (:data:`DEFAULT_GLOBAL_TIME_LIMIT`, 30 s) — it does NOT
            disable the safeguard.  Pass ``math.inf`` for an explicitly
            unlimited solve; non-positive values are rejected.  Split
            queries differ: there it is the *shared whole-run* deadline
            and ``None`` stays unlimited, matching the monolithic exact
            certifiers whose verdicts the split tier must reproduce.
            Local kinds follow the split convention too: ``None`` stays
            unlimited (exact-verdict parity), a set limit caps each
            objective solve.
        epsilon: Optional target variation bound.  When set, the
            presolve tier runs first: if symbolic bounds prove (or the
            attack gap refutes) ``ε ≤ epsilon``, the query is answered
            with a ``method="presolve"`` certificate and no MILP is
            built.  Undecided queries fall through to the usual solver
            path, whose certificates are bit-identical to a run without
            presolve.  :class:`BatchCertifier` screens groups of such
            queries with one batched presolve pass in the submitting
            process; the rest run the tier inside their worker.
        presolve: Disable the presolve tier (``False``) even when an
            ``epsilon`` target is present.
        split: Replace the monolithic MILP tier with the input-splitting
            branch-and-bound tier (:mod:`repro.certify.splitting`) for
            queries the presolve tier leaves undecided.  Requires an
            ``epsilon`` target and kind ``local-exact`` or
            ``global-exact``.  For split queries ``time_limit`` is the
            *shared* deadline of the whole query (bounding + leaf MILPs)
            rather than a per-MILP limit, and ``None`` stays unlimited.
        max_domains: Split tier: budget on evaluated subdomains, at
            least 1 (``None`` = the
            :class:`~repro.certify.splitting.SplitConfig` default).
        split_depth: Split tier: bisection depth at which subdomains
            drop to MILP leaves, at least 0 (``None`` = config default).
        split_workers: Split tier: process count for solving leaf MILPs
            concurrently.  Leave ``None``: the engine grants its own
            worker budget when the split query runs inline (a batch of
            one), and keeps leaves serial when many queries already fan
            out across the pool.
        tag: Caller label echoed on the result (e.g. a sample id).
    """

    kind: str
    layers: list[AffineLayer]
    delta: float
    center: np.ndarray | None = None
    domain: Box | None = None
    window: int = 2
    refine_count: int = 0
    time_limit: float | None = None
    epsilon: float | None = None
    presolve: bool = True
    split: bool = False
    max_domains: int | None = None
    split_depth: int | None = None
    split_workers: int | None = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {self.kind!r}; expected one of {QUERY_KINDS}"
            )
        # Knob ranges fail here, not per worker.
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.refine_count < 0:
            raise ValueError("refine_count must be >= 0")
        if self.max_domains is not None and self.max_domains < 1:
            raise ValueError("max_domains must be >= 1")
        if self.split_depth is not None and self.split_depth < 0:
            raise ValueError("split_depth must be >= 0")
        if self.time_limit is not None and not self.time_limit > 0:
            # `not > 0` (rather than `<= 0`) also rejects NaN, which
            # would otherwise reach the solver and silently disable the
            # MILP safeguard.
            raise ValueError(
                "time_limit must be positive seconds (None = engine default, "
                "math.inf = unlimited)"
            )
        if self.epsilon is not None and not self.epsilon > 0:
            # Same NaN-proof comparison as time_limit.
            raise ValueError("epsilon must be a positive variation target")
        if not 0.0 <= self.delta < math.inf:
            # Same NaN-proof comparison: a negative, NaN or infinite
            # delta would only fail later, inside the batch run.
            raise ValueError("delta must be a finite non-negative radius")
        if self.center is not None:
            self.center = np.asarray(self.center, dtype=float).reshape(-1)
        if self.kind.startswith("local") and self.center is None:
            raise ValueError(f"{self.kind!r} query needs a center sample")
        if self.kind.startswith("global") and self.domain is None:
            raise ValueError(f"{self.kind!r} query needs an input domain")
        if self.split:
            if self.epsilon is None:
                raise ValueError(
                    "split queries need an epsilon target to decide"
                )
            if self.kind not in ("local-exact", "global-exact"):
                raise ValueError(
                    "split tier replaces the exact MILP tier only "
                    f"(kind 'local-exact' or 'global-exact', got {self.kind!r})"
                )

    def presolve_input_box(self) -> Box:
        """The input box the presolve tier propagates bounds over."""
        if self.kind.startswith("local"):
            from repro.certify.presolve import perturbation_ball

            return perturbation_ball(self.center, self.delta, self.domain)
        return self.domain

    def wants_presolve(self) -> bool:
        """Whether the presolve tier applies to this query."""
        return self.epsilon is not None and self.presolve

    def effective_time_limit(self) -> float | None:
        """The per-MILP limit actually applied to a global query.

        ``None`` on the query resolves to the 30 s engine default (the
        MILP safeguard must not silently disappear just because the
        caller didn't pick a number); ``math.inf`` resolves to ``None``
        for the solver, i.e. genuinely unlimited.
        """
        if self.time_limit is None:
            return DEFAULT_GLOBAL_TIME_LIMIT
        if math.isinf(self.time_limit):
            return None
        return float(self.time_limit)


@dataclass
class BatchResult:
    """Outcome of one query: a certificate or a captured failure.

    Attributes:
        index: Position of the query in the submitted sequence (results
            are returned sorted by this, regardless of completion order).
        tag: The query's caller label.
        certificate: The certificate object on success, else ``None``.
        error: Formatted traceback on failure, else ``None``.
        detail: Structured extras.  On a *permanent* failure: the record
            of what the worker's broad exception handler swallowed —
            ``error_type`` (qualified exception class), ``error_message``
            (``str(exc)``) and ``traceback`` (the formatted stack).  The
            retrying execution paths add ``attempts`` (total attempts
            made); a degraded answer adds ``degraded=True`` and the
            ``reason`` the compute was abandoned.  ``None`` for results
            answered without the retry engine (e.g. bulk presolve).
        elapsed: Wall-clock seconds spent inside the worker.
    """

    index: int
    tag: str = ""
    certificate: object | None = None
    error: str | None = None
    detail: "dict[str, object] | None" = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the query produced a certificate."""
        return self.error is None

    @property
    def degraded(self) -> bool:
        """True for a sound bounds-only fallback answer (see ``detail``).

        Degraded results are *successes* (``ok`` is true): the
        certificate carries finite sound bounds and
        ``verdict="undecided"`` — never an error, never an unsound
        verdict — but the solver tier never finished for this query.
        """
        return bool(self.detail and self.detail.get("degraded"))


def _try_presolve(query: CertificationQuery):
    """Run the bounds-only tier; a certificate, or None to fall through."""
    from repro.certify.presolve import presolve_global, presolve_local

    if query.kind.startswith("local"):
        return presolve_local(
            query.layers, query.center, query.delta, query.epsilon,
            domain=query.domain,
        )
    return presolve_global(query.layers, query.domain, query.delta, query.epsilon)


def _exact_parity_limit(query: CertificationQuery) -> float | None:
    """``time_limit`` for the split tier and the local kinds.

    ``None`` stays unlimited — parity with the exact certifiers whose
    verdicts they reproduce — as does ``inf``; a set limit is the split
    tier's shared whole-run deadline, or a local kind's per-solve cap.
    """
    limit = query.time_limit
    return None if limit is not None and math.isinf(limit) else limit


def _run_split(query: CertificationQuery):
    """Run the input-splitting tier for an undecided ε-query."""
    from repro.certify import SplitConfig, certify_global_split, certify_local_split

    knobs: dict[str, Any] = {}
    if query.max_domains is not None:
        knobs["max_domains"] = query.max_domains
    if query.split_depth is not None:
        knobs["max_depth"] = query.split_depth
    config = SplitConfig(
        time_limit=_exact_parity_limit(query),
        leaf_workers=query.split_workers,
        **knobs,
    )
    if query.kind == "local-exact":
        return certify_local_split(
            query.layers, query.center, query.delta, query.epsilon,
            domain=query.domain, config=config,
        )
    return certify_global_split(
        query.layers, query.domain, query.delta, query.epsilon, config=config
    )


def _execute_query(query: CertificationQuery):
    """Dispatch one query: presolve tier first, then the solver tier."""
    from repro.certify import (
        CertifierConfig,
        GlobalRobustnessCertifier,
        certify_exact_global,
        certify_local_exact,
        certify_local_lpr,
        certify_local_nd,
    )

    if _faults.ENABLED:
        _faults.fault_point("batch.worker")
    if query.wants_presolve():
        cert = _try_presolve(query)
        if cert is not None:
            return cert

    if query.split:
        return _run_split(query)

    if query.kind.startswith("local"):
        certify, extra = {
            "local-exact": (certify_local_exact, {}),
            "local-nd": (certify_local_nd, {"window": query.window}),
            "local-lpr": (certify_local_lpr, {}),
        }[query.kind]
        return certify(
            query.layers, query.center, query.delta, domain=query.domain,
            time_limit=_exact_parity_limit(query), **extra,
        )
    if query.kind == "global":
        # The CLI's algorithm-1 knobs (window, refine, limit)
        # plumb through 1:1; time_limit=None keeps the 30 s safeguard.
        config = CertifierConfig(
            window=query.window,
            refine_count=query.refine_count,
            milp_time_limit=query.effective_time_limit(),
        )
        return GlobalRobustnessCertifier(query.layers, config).certify(
            query.domain, query.delta
        )
    # "global-exact" — validated in CertificationQuery.__post_init__.
    return certify_exact_global(
        query.layers, query.domain, query.delta,
        time_limit=query.effective_time_limit(),
    )


# -- graceful degradation -----------------------------------------------------


def _degraded_certificate(
    query: CertificationQuery, engine: IBPPropagator | SymbolicPropagator
):
    """A sound bounds-only certificate for a query whose solve was lost.

    One bound propagation over the query's own input box — exactly the
    presolve tier's proving side, so the bounds are finite and sound
    over-approximations whatever the solver tier would have returned.
    The verdict is always ``"undecided"``: even when the bounds would
    decide the ε target, degradation never claims a decision the
    (possibly tighter) solver tier was asked for.
    """
    from repro.certify.presolve import variation_from_reference
    from repro.certify.results import GlobalCertificate, LocalCertificate
    from repro.nn.affine import affine_chain_forward

    t0 = time.perf_counter()
    local = query.kind.startswith("local")
    box = query.presolve_input_box()
    delta = None if local else query.delta
    layer_bounds = engine.propagate(query.layers, box, delta)
    detail = {
        "verdict": "undecided",
        "degraded": True,
        "bounds": layer_bounds.method,
    }
    if query.epsilon is not None:
        detail["epsilon"] = float(query.epsilon)
    if local:
        out = layer_bounds.output
        base = affine_chain_forward(query.layers, query.center)
        return LocalCertificate(
            center=query.center,
            delta=float(query.delta),
            epsilons=variation_from_reference(out.lo, out.hi, base),
            output_lo=out.lo.copy(),
            output_hi=out.hi.copy(),
            method="degraded",
            exact=False,
            solve_time=time.perf_counter() - t0,
            detail=detail,
        )
    return GlobalCertificate(
        delta=float(query.delta),
        epsilons=layer_bounds.output_variation_bounds(),
        method="degraded",
        exact=False,
        solve_time=time.perf_counter() - t0,
        detail=detail,
    )


def _degraded_result(
    index: int, query: CertificationQuery, reason: str, attempts: int
) -> BatchResult:
    """Resolve an abandoned query to a sound ``degraded`` answer.

    Tries the symbolic propagator first (tight), plain IBP second
    (simpler, nearly unbreakable).  Only if *both* bound engines fail —
    which means the query itself is broken, not the compute — does the
    query surface as an ordinary error result.
    """
    t0 = time.perf_counter()
    error = None
    for engine in (SymbolicPropagator(), IBPPropagator()):
        try:
            cert = _degraded_certificate(query, engine)
        # repro-lint: ignore[RPR005] — degradation is the last resort: any bound-propagation failure falls through to the looser engine, and the final failure is surfaced verbatim as a normal error result below
        except Exception as exc:
            cls = type(exc)
            error = (f"{cls.__module__}.{cls.__qualname__}", traceback.format_exc())
            continue
        return BatchResult(
            index=index, tag=query.tag, certificate=cert,
            detail={"degraded": True, "reason": reason, "attempts": attempts},
            elapsed=time.perf_counter() - t0,
        )
    error_type, stack = error
    return BatchResult(
        index=index, tag=query.tag, error=stack,
        detail={
            "error_type": error_type,
            "error_message": f"degradation failed after: {reason}",
            "traceback": stack,
            "attempts": attempts,
        },
        elapsed=time.perf_counter() - t0,
    )


class BatchCertifier:
    """Fan independent certification queries across worker processes.

    Results come back in *submission order* whatever the completion
    order, failures are captured per query (``BatchResult.error``), and
    an optional progress callback fires in the parent process as each
    query completes.

    Example::

        engine = BatchCertifier(max_workers=4)
        queries = local_queries(net, samples, delta=0.01, method="exact")
        results = engine.run(queries, progress=lambda k, n, r:
                             print(f"{k}/{n} {r.tag}"))
        eps = [r.certificate.epsilon for r in results if r.ok]

    Args:
        max_workers: Process count; defaults to ``os.cpu_count()``
            (capped by the batch size).  ``1`` executes inline — same
            semantics, no processes — which is also the automatic
            fallback when the platform cannot fork worker processes.
            Worker processes outlive :meth:`run`: they are forked once
            per process and pool key and serve every later batch (see
            :func:`fan_out`), so they see the submitting process's state
            as of that fork.
        bulk_presolve: Screen the whole submission with one batched
            presolve pass per query group *before* any worker dispatch
            (default on).  Queries the pass decides never reach the
            pool; undecided ones skip the (now redundant) scalar
            presolve in their worker.  Per-query certificates are
            bit-identical to the scalar presolve tier's, so turning
            this off changes scheduling only, never results.
        retry: :class:`~repro.runtime.retry.RetryPolicy` for transient
            per-query failures (worker deaths, broken pools, injected
            chaos faults).  ``None`` uses the default policy.  A query
            that exhausts its attempts (or the batch's retry budget)
            resolves to a sound *degraded* answer — finite bounds,
            ``verdict="undecided"``, ``detail["degraded"]=True`` —
            never an error.  Permanent failures (bad inputs, real
            bugs) are never retried and surface as error results
            exactly as before.
        query_timeout: Optional *hard* per-query wall-clock limit in
            seconds, enforced by a parent-side watchdog that SIGKILLs
            the worker running an overdue query and rebuilds the pool.
            Unlike ``CertificationQuery.time_limit`` (a cooperative
            solver budget), this bounds the query even when a native
            solve wedges.  Timed-out queries degrade (or retry, with
            ``RetryPolicy(retry_timeouts=True)``).  Pool mode only:
            inline execution (``max_workers=1``) has no process to
            kill.

    Attributes:
        presolve_stats: After :meth:`run`, the bulk-presolve prefilter
            stats: ``{"groups": batched presolve calls made,
            "queries": queries screened by them, "answered": queries
            they decided (certified or refuted) without any dispatch}``.
        fault_stats: After :meth:`run`, that batch's fault-tolerance
            counters: ``retries`` (re-dispatched attempts),
            ``degraded`` (queries resolved by graceful degradation),
            ``timeouts`` (hard-timeout expirations), ``workers_killed``
            (stuck workers SIGKILLed by the watchdog) and
            ``pool_rebuilds`` (broken pools replaced mid-batch).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        bulk_presolve: bool = True,
        retry: RetryPolicy | None = None,
        query_timeout: float | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if query_timeout is not None and not query_timeout > 0:
            # `not > 0` also rejects NaN (same idiom as CertificationQuery).
            raise ValueError("query_timeout must be positive seconds or None")
        self.max_workers = max_workers
        self.bulk_presolve = bulk_presolve
        self.retry = RetryPolicy() if retry is None else retry
        self.query_timeout = query_timeout
        self.presolve_stats: dict[str, int] = {
            "groups": 0, "queries": 0, "answered": 0,
        }
        self.fault_stats: dict[str, int] = dict(_FAULT_STATS_ZERO)

    def _bulk_presolve(
        self, queries: list[CertificationQuery]
    ) -> tuple[dict[int, BatchResult], set[int]]:
        """Screen the submission with one batched presolve pass per group.

        Presolve-eligible queries sharing a network object, kind family
        (local / global) and domain form a *group*; every group of two
        or more is decided in the submitting process by
        :func:`~repro.certify.presolve.presolve_many` — one batched
        bound propagation plus one corner-vectorized attack over the
        whole group, per-query bit-identical to the scalar presolve the
        workers would have run.  Singleton groups stay with the workers
        (batching one query buys nothing and would serialize
        otherwise-parallel propagation here).

        Returns the answered queries as ``{index: BatchResult}`` (each
        carries its group's per-query share of the batched pass time)
        and the indices of every screened query: the tier already ran
        for those, so a worker re-run could only reproduce the same
        ``None``.  The queries themselves are left untouched.
        """
        from repro.certify.presolve import presolve_many

        self.presolve_stats = {"groups": 0, "queries": 0, "answered": 0}
        answered: dict[int, BatchResult] = {}
        screened: set[int] = set()
        if not self.bulk_presolve:
            return answered, screened
        groups: dict[tuple, list[int]] = {}
        for i, query in enumerate(queries):
            if not query.wants_presolve():
                continue
            family = "local" if query.kind.startswith("local") else "global"
            domain = query.domain
            domain_key = (
                None if domain is None
                else (domain.lo.tobytes(), domain.hi.tobytes())
            )
            key = (family, id(query.layers), domain_key)
            groups.setdefault(key, []).append(i)

        for (family, _, _), members in groups.items():
            if len(members) < 2:
                continue
            first = queries[members[0]]
            deltas = np.array([queries[i].delta for i in members], dtype=float)
            epsilons = np.array(
                [queries[i].epsilon for i in members], dtype=float
            )
            t0 = time.perf_counter()
            try:
                centers = (
                    np.stack([queries[i].center for i in members])
                    if family == "local" else None
                )
                certs = presolve_many(
                    first.layers, family, centers=centers,
                    domain=first.domain, deltas=deltas, epsilons=epsilons,
                )
            # repro-lint: ignore[RPR005] — a failing batched pass must not sink the submission; the group silently falls back to per-query scalar presolve in the workers, whose per-query error capture reports whatever is actually wrong
            except Exception:
                continue
            share = (time.perf_counter() - t0) / len(members)
            self.presolve_stats["groups"] += 1
            self.presolve_stats["queries"] += len(members)
            screened.update(members)
            for i, cert in zip(members, certs):
                if cert is not None:
                    answered[i] = BatchResult(
                        index=i, tag=queries[i].tag, certificate=cert,
                        elapsed=share,
                    )
                    self.presolve_stats["answered"] += 1
        return answered, screened

    def run(
        self,
        queries: Sequence[CertificationQuery],
        progress: ProgressFn | None = None,
    ) -> list[BatchResult]:
        """Execute all queries; return one :class:`BatchResult` each.

        The bulk-presolve prefilter runs first (see ``bulk_presolve``);
        only the queries it leaves unanswered are dispatched to worker
        processes, as copies that skip the presolve tier.  The caller's
        query objects are never modified, so the same queries can be
        run again with the same results.

        Args:
            queries: Independent queries; order defines result order.
            progress: Optional ``(done, total, result)`` callback invoked
                in the submitting process after each completion.
        """
        queries = list(queries)
        total = len(queries)
        self.fault_stats = dict(_FAULT_STATS_ZERO)
        if total == 0:
            return []
        results: list[BatchResult | None] = [None] * total
        done = 0

        def finish(index: int, result: BatchResult) -> None:
            nonlocal done
            results[index] = result
            done += 1
            if progress is not None:
                progress(done, total, result)

        answered, screened = self._bulk_presolve(queries)
        for index, result in sorted(answered.items()):
            finish(index, result)
        pending = [
            (i, replace(q, presolve=False) if i in screened else q)
            for i, q in enumerate(queries)
            if results[i] is None
        ]
        workers = self.max_workers or os.cpu_count() or 1
        workers = min(workers, len(pending))
        if (
            workers == 1
            and len(pending) == 1
            and pending[0][1].split
            and pending[0][1].split_workers is None
        ):
            # A batch of one split query runs inline; hand the engine's
            # process budget to its leaf MILPs instead so the pool still
            # does the parallel work.
            index, query = pending[0]
            pending = [(index, replace(
                query, split_workers=self.max_workers or os.cpu_count() or 1
            ))]
        fan_out(
            _execute_query, [query for _, query in pending], workers,
            self.retry, self.query_timeout, stats=self.fault_stats,
            on_done=lambda k, outcome: finish(
                pending[k][0], self._result(*pending[k], outcome)
            ),
            dispatch_point="batch.dispatch",
        )
        return [r for r in results if r is not None]  # every slot filled

    def _result(
        self, index: int, query: CertificationQuery, outcome: Outcome
    ) -> BatchResult:
        """A query's :class:`BatchResult`; a lost query degrades soundly."""
        if outcome.lost is not None:
            self.fault_stats["degraded"] += 1
            return _degraded_result(index, query, outcome.lost, outcome.attempts)
        error = outcome.error or {}
        return BatchResult(
            index=index, tag=query.tag, certificate=outcome.value,
            error=error.get("traceback"), elapsed=outcome.elapsed,
            detail={**error, "attempts": outcome.attempts},
        )


# -- process fan-out ----------------------------------------------------------


@dataclass
class Outcome:
    """How one :func:`fan_out` task resolved: exactly one of a ``value``;
    a permanent failure (``exc`` to re-raise, and ``error``: its
    ``error_type``, ``error_message`` and worker ``traceback``); or
    ``lost``, why it was given up (transient attempts or the retry
    budget ran out, or the watchdog reaped it).
    """

    value: object = None
    exc: BaseException | None = None
    error: dict[str, str] | None = None
    lost: str | None = None
    attempts: int = 0
    elapsed: float = 0.0


#: Longest a fresh pool's first tasks wait for each other to start.
_START_SECONDS = 1.0

#: Installed by :func:`_pool_init` in pool workers: the sink of the
#: ``(task index, pid)`` start markers the parent's watchdog reads, and
#: the barrier a worker's first task waits at (``None`` once passed).
_START_SINK = None
_START_GATE = None

#: The process-wide pool :func:`fan_out` calls reuse: ``(key, pool,
#: start-marker sink)`` of the last healthy pool, or ``None``.  Closed by
#: :func:`_shutdown_pool`.
_POOL: tuple | None = None
_POOL_LOCK = threading.Lock()  # callers may fan out from several threads


def _pool_key(workers: int) -> tuple | None:
    """What a cached pool of ``workers`` must match to serve a call.

    Workers are forked once and see the parent's state as of that fork;
    the key holds what they depend on that can change: the creating
    process, the worker count and the sanitizer switch.  ``None`` means
    "never cache": under an active fault plan every call gets fresh
    workers that replay the plan from hit 1, and inside a pool worker a
    cached pool would outlive the task that made it.
    """
    if _faults.active_plan() is not None or _faults.in_worker_process():
        return None
    return (os.getpid(), workers, _sanitize.ENABLED)


def _close_pool(pool, sink) -> None:
    pool.shutdown(wait=True, cancel_futures=True)
    sink.close()


def _healthy(pool) -> bool:
    """Whether an idle pool can take work: not marked broken, and no
    worker died since its last call (killed from outside, OOM)."""
    return not pool._broken and all(
        process.is_alive() for process in pool._processes.values()
    )


def _take_pool(key: tuple | None) -> tuple | None:
    """The cached ``(pool, sink)`` if it matches ``key`` and is healthy,
    taken out of the cache; any other one is shut down (or, when
    inherited across a fork, just forgotten: its workers belong to the
    parent), so the caller forks a fresh pool without charging a rebuild.
    """
    global _POOL
    with _POOL_LOCK:
        cached, _POOL = _POOL, None
    if cached is None:
        return None
    cached_key, pool, sink = cached
    if cached_key[0] != os.getpid():
        return None
    if cached_key == key and _healthy(pool):
        # The last call's start markers: every one was written before
        # its task's result, so all are in the pipe by now.
        while not sink.empty():
            sink.get()
        return pool, sink
    _close_pool(pool, sink)
    return None


def _keep_pool(key: tuple | None, pool, sink) -> bool:
    """Cache a healthy idle pool for the next call; False if it cannot be."""
    global _POOL
    with _POOL_LOCK:
        if key is None or _POOL is not None:
            return False
        _POOL = (key, pool, sink)
    return True


def _shutdown_pool() -> None:
    """Shut the cached pool down and join its workers.

    Interpreter exit needs no call: ``concurrent.futures`` joins every
    live pool's workers then.  Tests call it to start without a pool.
    """
    _take_pool(None)


def _pool_init(sink, plan, gate) -> None:
    """Worker initializer: start-marker sink, first-task gate, a watch on
    the parent, and a *fresh* copy of the parent's fault plan, so every
    worker replays its own fault schedule from hit 1 whatever the start
    method (fork would otherwise inherit the parent's hit counters).
    """
    global _START_SINK, _START_GATE
    _START_SINK, _START_GATE = sink, gate
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    if plan is not None:
        _faults.install(plan.fresh())


def _exit_with_parent() -> None:
    """End this worker once its parent is gone.

    Idle workers block on the task queue forever; a parent killed before
    it could shut its cached pool down would otherwise leave them behind.
    """
    multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _start_together() -> None:
    """Hold a worker's first task until the pool's first round started.

    The first round's tasks then go one per worker, so which task a
    per-worker fault schedule hits never depends on start-up timing.
    """
    global _START_GATE
    gate, _START_GATE = _START_GATE, None
    if gate is None:
        return
    try:
        gate.wait(timeout=_START_SECONDS)
        gate.abort()  # a sibling whose first task comes later won't wait
    except threading.BrokenBarrierError:
        pass  # released already, or a sibling never started


def _failure(exc: BaseException) -> Outcome:
    """The failure record of ``exc``; call inside its handler."""
    cls = type(exc)
    return Outcome(exc=exc, error={
        "error_type": f"{cls.__module__}.{cls.__qualname__}",
        "error_message": str(exc),
        "traceback": traceback.format_exc(),
    })


def _attempt(fn: Callable[[object], object], payload: object) -> Outcome:
    """One attempt at one task; never raises, captures the failure."""
    t0 = time.perf_counter()
    try:
        outcome = Outcome(value=fn(payload))
    # repro-lint: ignore[RPR005] — swallows *any* task failure (bad dims, solver errors, encoding bugs, injected faults) so one bad task cannot sink the fan-out; the parent triages it with RetryPolicy.classify and surfaces (or re-raises) every permanent one verbatim
    except Exception as exc:
        outcome = _failure(exc)
    outcome.elapsed = time.perf_counter() - t0
    return outcome


def _pool_task(task: tuple) -> Outcome:
    """Worker entry point: start marker, one attempt, a shippable outcome."""
    fn, index, payload = task
    _start_together()
    # Before any work (and any fault point): a crash after this marker
    # is attributable to this task, and the watchdog clock for it
    # starts at parent receipt time.
    _START_SINK.put((index, os.getpid()))
    outcome = _attempt(fn, payload)
    if outcome.error is not None:
        try:
            pickle.loads(pickle.dumps(outcome.exc))
        # repro-lint: ignore[RPR005] — an exception the parent could not rebuild would break the whole pool there; it ships as a stand-in carrying its type name and message, beside its unchanged record
        except Exception:
            outcome.exc = RuntimeError(
                f"{outcome.error['error_type']}: {outcome.error['error_message']}"
            )
    return outcome


def fan_out(
    fn: Callable[[object], object],
    payloads: Sequence[object],
    workers: int,
    policy: RetryPolicy,
    timeout: float | None = None,
    **options,
) -> list[Outcome]:
    """Run ``fn`` on every payload; one :class:`Outcome` each, in order.

    The runtime's one process fan-out: batch queries, Algorithm 1's
    objective chunks and the split tier's leaf MILPs all go through it.
    ``workers == 1`` runs inline, with no pool, queue or thread.  The
    submitting process triages each failed attempt with
    :meth:`~repro.runtime.retry.RetryPolicy.classify`: a transient one
    retries with backoff while ``policy.max_attempts`` and its
    ``batch_budget`` last, then the task is lost; a permanent one
    resolves at once.  In pool mode a broken pool's completed futures
    are salvaged and only unfinished tasks re-dispatched (uncharged if
    their worker never started them) on a rebuilt pool, up to
    ``policy.max_pool_rebuilds`` times, after which the rest run inline.
    ``timeout`` (seconds per task) and the ``deadline`` option (a
    ``time.perf_counter()`` instant) are *hard* limits: workers report
    ``(task, pid)`` start markers and a watchdog SIGKILLs the worker of
    an overdue task, which is lost (retried with ``retry_timeouts``).

    Pool workers are forked once per process and key (the creating
    process, the worker count and the sanitizer switch) and are reused
    by every later call with that key, so they see this process's state
    as of their fork, not as of the call.  A broken pool is shut down
    and rebuilt; an idle healthy one is kept until a call with another
    key replaces it or the interpreter exits, and one that lost a worker
    while idle is replaced uncharged.  Workers exit on their own if this
    process dies without shutting them down.  Under an active fault
    plan, or inside a pool worker, each call forks its own pool.

    Other keyword options: ``stats``, a counter dict to add ``retries``,
    ``timeouts``, ``workers_killed`` and ``pool_rebuilds`` to;
    ``on_done(index, outcome)``, fired in the submitting process once
    per task as it resolves; ``dispatch_point``, a fault point fired
    before each pool submit.
    """
    supervisor = _PoolSupervisor(fn, payloads, workers, policy, timeout, **options)
    return supervisor.run_inline() if workers <= 1 else supervisor.run()


@dataclass
class _PoolSupervisor:
    """One :func:`fan_out` call's task lifecycle, pooled or inline."""

    fn: Callable[[object], object]
    payloads: Sequence[object]
    workers: int
    policy: RetryPolicy
    timeout: float | None = None
    deadline: float | None = None
    stats: dict[str, int] = field(default_factory=lambda: dict(_FAULT_STATS_ZERO))
    on_done: Callable[[int, Outcome], None] | None = None
    dispatch_point: str | None = None

    #: Event-loop tick: bounds watchdog latency and backoff sleep.
    _POLL_SECONDS = 0.05

    def __post_init__(self) -> None:
        self.budget = self.policy.batch_budget(len(self.payloads))
        self.key: tuple | None = None
        self.pool = None
        self.sink = None
        self.broken = False
        self.rebuilds = 0
        self.attempts = [0] * len(self.payloads)
        # index -> earliest dispatch stamp; every task starts waiting
        self.waiting = dict.fromkeys(range(len(self.payloads)), 0.0)
        self.futures: dict = {}              # Future -> index
        self.running: dict[int, tuple[int, float]] = {}  # index -> (pid, since)
        self.reaped: dict[int, str] = {}     # index -> why the watchdog killed it
        self.finals: dict[int, Outcome] = {}

    def run_inline(self) -> list[Outcome]:
        """Resolve every task in this process; outcomes in payload order."""
        self._run_waiting_inline()
        return [self.finals[i] for i in range(len(self.payloads))]

    def run(self) -> list[Outcome]:
        """Resolve every task through the pool; outcomes in payload order.

        Once no pool can be (re)built, whatever is left runs inline;
        completed pool results are kept.
        """
        try:
            while len(self.finals) < len(self.payloads):
                if not self._step():
                    self._run_waiting_inline()
                    break
        finally:
            self._teardown_pool()
        return [self.finals[i] for i in range(len(self.payloads))]

    def _step(self) -> bool:
        """One event-loop tick; False when no pool can be (re)built."""
        now = time.perf_counter()
        ready = sorted(i for i, stamp in self.waiting.items() if stamp <= now)
        if ready and not self.broken:
            if not self._ensure_pool(len(ready)):
                return False
            for index in ready:
                if self.broken:
                    break  # pool died at submit; rebuild next tick
                self._dispatch(index)
        self._wait_events()
        self._drain_starts()
        self._collect_done()
        self._watchdog()
        if self.broken and not self.futures:
            # Every in-flight future has resolved against the broken
            # pool (salvaged or requeued); safe to replace it now.
            self._teardown_pool()
        return True

    def _ensure_pool(self, first_round: int) -> bool:
        if self.pool is not None:
            return True
        if self.rebuilds > self.policy.max_pool_rebuilds:
            return False
        self.key = _pool_key(self.workers)
        cached = _take_pool(self.key)
        if cached is not None:
            self.pool, self.sink = cached
            return True
        try:
            self.sink = multiprocessing.SimpleQueue()
            self.pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_init,
                initargs=(
                    self.sink, _faults.active_plan(),
                    multiprocessing.Barrier(min(self.workers, first_round)),
                ),
            )
        except _POOL_FAILURES:
            # Sandboxes without fork support and similar: stay correct,
            # run inline (the caller falls back to the inline loop).
            self.pool = None
            return False
        return True

    def _dispatch(self, index: int) -> None:
        self.attempts[index] += 1
        del self.waiting[index]
        try:
            if self.dispatch_point is not None and _faults.ENABLED:
                _faults.fault_point(self.dispatch_point)
            future = self.pool.submit(
                _pool_task, (self.fn, index, self.payloads[index])
            )
        except _POOL_FAILURES:
            # The pool was already unusable; the task never ran, so
            # requeue it uncharged.
            self.broken = True
            self.attempts[index] -= 1
            self.waiting[index] = 0.0
        # repro-lint: ignore[RPR005] — a failed dispatch (an injected dispatch fault, ...) is triaged like any failed attempt: transient ones retry, permanent ones resolve with their record
        except Exception as exc:
            self._resolve(index, _failure(exc))
        else:
            self.futures[future] = index

    def _wait_events(self) -> None:
        if self.futures:
            wait(
                list(self.futures),
                timeout=self._POLL_SECONDS,
                return_when=FIRST_COMPLETED,
            )
        elif self.waiting and not self.broken:
            # Nothing in flight: sleep toward the earliest backoff wake.
            pause = min(self.waiting.values()) - time.perf_counter()
            if pause > 0:
                time.sleep(min(pause, self._POLL_SECONDS))

    def _drain_starts(self) -> None:
        sink = self.sink
        if sink is None:
            return
        inflight = set(self.futures.values())
        try:
            while not sink.empty():
                index, pid = sink.get()
                if index in inflight:
                    # Stamped with parent receipt time: one clock for
                    # the watchdog, no cross-process skew.
                    self.running[index] = (pid, time.perf_counter())
        except (OSError, EOFError):
            pass  # sink pipe died with its pool; markers just go stale

    def _collect_done(self) -> None:
        for future in [f for f in self.futures if f.done()]:
            index = self.futures.pop(future)
            started = self.running.pop(index, None)
            reaped = self.reaped.pop(index, None)
            try:
                outcome = future.result()
            except _POOL_FAILURES:
                self.broken = True
                if reaped is not None:
                    self._timeout(index, reaped)
                elif started is None:
                    # Never reached a worker — an innocent victim of
                    # whatever broke the pool.  Requeue uncharged.
                    self.attempts[index] -= 1
                    self.waiting[index] = 0.0
                else:
                    self._transient(index, "worker process died mid-task")
                continue
            self._resolve(index, outcome)

    def _watchdog(self) -> None:
        now = time.perf_counter()
        for index, (pid, since) in self.running.items():
            if index in self.reaped:
                continue
            if self.timeout is not None and now - since > self.timeout:
                reason = f"hard timeout: no result within {self.timeout:.6g}s"
            elif self.deadline is not None and now > self.deadline:
                reason = "hard deadline passed"
            else:
                continue
            # SIGKILL is deliberate: a wedged native solve ignores
            # cooperative signals.  The kill breaks the pool; the
            # normal salvage/rebuild path cleans up after it.
            self.reaped[index] = reason
            self.stats["workers_killed"] += 1
            self.broken = True
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass  # worker already gone; the broken pool surfaces it

    def _resolve(self, index: int, outcome: Outcome) -> None:
        """Retry a transient failure; finalize anything else."""
        if (
            outcome.error is not None
            and self.policy.classify(outcome.exc) == "transient"
        ):
            self._transient(index, outcome.error["error_type"])
        else:
            self._finalize(index, outcome)

    def _transient(self, index: int, reason: str) -> None:
        """Schedule a retry of a transiently failed task, or lose it."""
        attempt = self.attempts[index]
        if attempt < self.policy.max_attempts and self.budget > 0:
            self.budget -= 1
            self.stats["retries"] += 1
            self.waiting[index] = (
                time.perf_counter() + self.policy.delay(attempt, index)
            )
        else:
            self._finalize(index, Outcome(lost=reason))

    def _timeout(self, index: int, reason: str) -> None:
        """Resolve a task whose worker the watchdog had to kill."""
        self.stats["timeouts"] += 1
        if self.policy.retry_timeouts:
            self._transient(index, "hard timeout")
        else:
            self._finalize(index, Outcome(lost=reason))

    def _run_waiting_inline(self) -> None:
        """Resolve every waiting task in this process, lowest index first.

        A task that fails transiently is waiting again, so it retries
        (after its backoff) before the next task starts.
        """
        while self.waiting:
            index = min(self.waiting)
            pause = self.waiting.pop(index) - time.perf_counter()
            if pause > 0:
                time.sleep(pause)  # the task's retry backoff
            self.attempts[index] += 1
            self._resolve(index, _attempt(self.fn, self.payloads[index]))

    def _finalize(self, index: int, outcome: Outcome) -> None:
        outcome.attempts = self.attempts[index]
        self.finals[index] = outcome
        if self.on_done is not None:
            self.on_done(index, outcome)

    def _teardown_pool(self) -> None:
        """Release the pool: a healthy idle one stays cached for the next
        call (when its key allows), anything else is shut down."""
        pool, self.pool = self.pool, None
        sink, self.sink = self.sink, None
        if pool is not None:
            if self.broken or self.futures or not _keep_pool(self.key, pool, sink):
                _close_pool(pool, sink)
        elif sink is not None:
            sink.close()
        self.running.clear()
        if self.broken:
            self.broken = False
            self.rebuilds += 1
            self.stats["pool_rebuilds"] += 1


# -- query builders ----------------------------------------------------------


def _normal_form(network) -> list[AffineLayer]:
    from repro.nn.network import as_affine_chain

    return as_affine_chain(network)


def local_queries(
    network,
    centers: np.ndarray | Sequence[np.ndarray],
    delta: float,
    method: str = "exact",
    domain: Box | None = None,
    window: int = 1,
    epsilon: float | None = None,
    presolve: bool = True,
    split: bool = False,
    max_domains: int | None = None,
    split_depth: int | None = None,
    time_limit: float | None = None,
    tag_prefix: str = "sample",
) -> list[CertificationQuery]:
    """Per-sample local certification queries (one per row of ``centers``).

    Args:
        network: A :class:`~repro.nn.network.Network` or affine chain.
        centers: Samples, shape ``(k, input_dim)`` (or an iterable of
            flat samples).
        delta: Perturbation radius.
        method: ``"exact"``, ``"nd"`` or ``"lpr"``.
        domain: Optional domain box intersected with each δ-ball.
        window: ND window (``method="nd"`` only).
        epsilon: Optional variation target enabling the presolve tier.
        presolve: Allow the presolve tier when ``epsilon`` is set.
        split: Use the input-splitting tier instead of the monolithic
            MILP for presolve-undecided queries (``method="exact"``
            only; needs ``epsilon``).
        max_domains / split_depth: Split-tier knobs (``None`` = config
            defaults).
        time_limit: Per-query time limit; for split queries the shared
            deadline of the whole branch-and-bound run.
        tag_prefix: Result tags become ``f"{tag_prefix}[{i}]"``.
    """
    if method not in ("exact", "nd", "lpr"):
        raise ValueError(f"unknown local method {method!r}")
    if split and method != "exact":
        raise ValueError("split applies to method='exact' queries only")
    layers = _normal_form(network)
    return [
        CertificationQuery(
            kind=f"local-{method}",
            layers=layers,
            delta=float(delta),
            center=np.asarray(center, dtype=float).reshape(-1),
            domain=domain,
            window=window,
            epsilon=epsilon,
            presolve=presolve,
            split=split,
            max_domains=max_domains,
            split_depth=split_depth,
            time_limit=time_limit,
            tag=f"{tag_prefix}[{i}]",
        )
        for i, center in enumerate(np.atleast_2d(np.asarray(centers, dtype=float)))
    ]


def global_query(
    network,
    domain: Box,
    delta: float,
    window: int = 2,
    refine_count: int = 0,
    time_limit: float | None = None,
    exact: bool = False,
    epsilon: float | None = None,
    presolve: bool = True,
    split: bool = False,
    max_domains: int | None = None,
    split_depth: int | None = None,
    tag: str = "global",
) -> CertificationQuery:
    """One global certification query (Algorithm 1, or the exact MILP).

    ``time_limit=None`` (the default) applies the engine's 30 s per-MILP
    safeguard; pass ``math.inf`` to disable it explicitly.  An
    ``epsilon`` target enables the bounds-only presolve tier;
    ``split=True`` (requires ``exact=True`` and ``epsilon``) decides
    undecided queries with the input-splitting tier, for which
    ``time_limit`` is the shared deadline of the whole run.
    """
    if split and not exact:
        raise ValueError("split applies to exact global queries only")
    return CertificationQuery(
        kind="global-exact" if exact else "global",
        layers=_normal_form(network),
        delta=float(delta),
        domain=domain,
        window=window,
        refine_count=refine_count,
        time_limit=time_limit,
        epsilon=epsilon,
        presolve=presolve,
        split=split,
        max_domains=max_domains,
        split_depth=split_depth,
        tag=tag,
    )


# -- objective-level fan-out --------------------------------------------------


def _solve_chunk(payload):
    """Worker: solve a contiguous chunk of objectives on a shared model."""
    model, objectives, time_limit = payload
    if _faults.ENABLED:
        _faults.fault_point("solve.chunk")
    return model.solve_many(objectives, time_limit=time_limit)


#: A chunk gets one pooled attempt: the parent re-solves whatever the
#: pool loses, so a retry in the pool would only add latency.
_CHUNK_POLICY = RetryPolicy(max_attempts=1)


def parallel_solve_many(
    model,
    objectives,
    time_limit: float | None = None,
    max_workers: int | None = None,
):
    """``Model.solve_many`` fanned across processes, order-preserving.

    The objective list is split into one contiguous chunk per worker;
    each worker pickles the model once and runs the export-once
    ``Model.solve_many`` on its chunk.  Chunk boundaries fall on the
    serial path's stack boundaries (both are sized by
    :func:`~repro.milp.session.objectives_per_stack`), so
    every block-diagonal LP a worker solves is the one the serial path
    solves.  The parent never exports the model: it takes the stack
    size from the model's nonzero count, and with one worker it runs
    ``Model.solve_many`` inline.  Each chunk gets one :func:`fan_out`
    attempt and no hard time limit; a chunk the pool loses is re-solved
    inline, and a chunk's permanent failure is re-raised.  This is the
    engine behind ``CertifierConfig.workers``.

    Args:
        model: The shared :class:`~repro.milp.model.Model`.
        objectives: Pairs ``(expression, "min"|"max")``.
        time_limit: Per-solve time limit in seconds.
        max_workers: Process count; ``None`` uses ``os.cpu_count()``.

    Returns:
        One :class:`~repro.milp.solution.SolveResult` per objective, in
        input order — bit-identical to the serial ``solve_many``.
    """
    from repro.milp.session import objectives_per_stack

    objectives = list(objectives)
    per_stack = objectives_per_stack(model)
    stacks = math.ceil(len(objectives) / per_stack)
    workers = min(max_workers or os.cpu_count() or 1, stacks)
    if workers <= 1:
        return model.solve_many(objectives, time_limit=time_limit)
    chunk = math.ceil(stacks / workers) * per_stack
    chunks = [objectives[k : k + chunk] for k in range(0, len(objectives), chunk)]
    outcomes = fan_out(
        _solve_chunk,
        [(model, part, time_limit) for part in chunks],
        len(chunks),
        _CHUNK_POLICY,
    )
    results = []
    for part, outcome in zip(chunks, outcomes):
        if outcome.exc is not None:
            raise outcome.exc
        if outcome.lost is not None:
            # Salvage: every other chunk's pool result is kept.
            outcome.value = model.solve_many(part, time_limit=time_limit)
        results.extend(outcome.value)
    return results
