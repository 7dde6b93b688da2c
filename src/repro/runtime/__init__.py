"""Runtime engine: parallel batch execution of certification queries.

Certification workloads decompose into many *independent* solver-bound
queries — one local certificate per data sample, one global certificate
per model, four small LP/MILPs per neuron inside Algorithm 1's ND loop.
This package fans those queries across worker processes:

* :func:`~repro.runtime.batch.fan_out` — the one supervised process
  fan-out (retry, pool salvage and rebuild, hard-limit watchdog) that
  every pool in the package goes through.
* :class:`~repro.runtime.batch.BatchCertifier` — executes a list of
  declarative :class:`~repro.runtime.batch.CertificationQuery` objects
  through the fan-out with deterministic result ordering, progress
  callbacks and per-query failure capture.
* :func:`~repro.runtime.batch.parallel_solve_many` — the objective
  fan-out used by :class:`~repro.certify.global_cert.GlobalRobustnessCertifier`
  when ``CertifierConfig.workers > 1``: chunks a model's objective list
  across processes (export-once semantics are preserved inside each
  worker, which runs ``Model.solve_many`` on its chunk).  The split
  tier's leaf MILPs (``SplitConfig.leaf_workers``) fan out the same way.
* :mod:`~repro.runtime.retry` / :mod:`~repro.runtime.faults` — the
  fault-tolerance substrate: :class:`~repro.runtime.retry.RetryPolicy`
  (transient-vs-permanent triage, deterministic backoff, per-batch
  retry budget) and the deterministic fault-injection subsystem
  (seeded :class:`~repro.runtime.faults.FaultPlan` schedules /
  ``REPRO_FAULTS``) that chaos-tests the whole tier pipeline.
"""

from repro.runtime.batch import (
    DEFAULT_GLOBAL_TIME_LIMIT,
    BatchCertifier,
    BatchResult,
    CertificationQuery,
    global_query,
    local_queries,
    parallel_solve_many,
)
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedFault
from repro.runtime.retry import RetryPolicy

__all__ = [
    "DEFAULT_GLOBAL_TIME_LIMIT",
    "BatchCertifier",
    "BatchResult",
    "CertificationQuery",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "global_query",
    "local_queries",
    "parallel_solve_many",
]
