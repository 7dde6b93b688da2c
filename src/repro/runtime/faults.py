"""Public fault-injection API — see :mod:`repro._faults` for the engine.

The implementation lives at the package root so the mypy-strict solver
modules (``repro.milp.*``) can weave in fault points without importing
the runtime package; this facade is the import users and tests should
reach for::

    from repro.runtime import faults

    with faults.injected(faults.FaultPlan.parse("batch.worker:raise@2")):
        results = BatchCertifier().run(queries)

One sharp edge: the zero-overhead fast-path flag ``ENABLED`` is module
state on :mod:`repro._faults`.  Hook sites must read it off that module
object (``_faults.ENABLED``); re-exporting the bare name here would
freeze its value at import time, so it is deliberately *not* in
``__all__``.

Fault-point catalog (all per-process, all zero-cost when disabled):

========================  ===================================================
point                     hook site
========================  ===================================================
``batch.dispatch``        ``BatchCertifier``'s fan-out, before each submit
``batch.worker``          ``runtime.batch._execute_query``, per attempt
``solve.chunk``           ``runtime.batch._solve_chunk`` objective chunks
``session.solve``         ``milp.session.SolverSession.solve``
``scipy.solve``           ``milp.scipy_backend.ScipyBackend`` standard solve
``split.leaf``            ``certify.splitting._leaf_worker`` leaf MILPs
========================  ===================================================
"""

from repro._faults import (
    CRASH_EXIT_CODE,
    DEFAULT_HANG_SECONDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    clear,
    fault_point,
    in_worker_process,
    injected,
    install,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "DEFAULT_HANG_SECONDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "clear",
    "fault_point",
    "in_worker_process",
    "injected",
    "install",
]
