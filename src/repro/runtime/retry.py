"""Retry policy: transient-vs-permanent triage and deterministic backoff.

A certification batch meets two very different kinds of failure.  A
*permanent* one — bad center dimensions, a domain of the wrong width,
a genuine encoding bug — will fail identically on every attempt;
retrying only burns the batch's time, so those surface immediately as
error results.
A *transient* one — a worker killed by the OS, a broken pool, an
injected chaos fault, a timeout — is expected to succeed on a clean
re-dispatch, so the engine retries it under this module's policy:
capped exponential backoff with deterministic jitter (same seed, same
schedule — chaos runs replay bit-identically) and a per-batch retry
budget that bounds the total extra work whatever the failure pattern.

Classification works on live exception *instances* in the submitting
process: :func:`~repro.runtime.batch.fan_out` ships a worker's failure
back whole, so one type table is the only definition of "transient".
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro._faults import InjectedFault

__all__ = ["RetryPolicy", "TRANSIENT_ERROR_TYPES"]

#: Exception types treated as transient.  OSError and its subclasses
#: (TimeoutError, BrokenPipeError, ConnectionError, ...) cover worker
#: and IPC deaths; MemoryError is transient because a re-dispatch lands
#: on a fresh worker with a clean heap.
TRANSIENT_ERROR_TYPES = (
    OSError,
    EOFError,
    MemoryError,
    BrokenProcessPool,
    InjectedFault,
)

_MASK64 = (1 << 64) - 1


def _unit(seed: int, key: int, attempt: int) -> float:
    """Deterministic hash of ``(seed, key, attempt)`` into ``[0, 1)``.

    A splitmix64-style finalizer: cheap, stateless, and stable across
    processes and Python versions (unlike ``hash()``), so a retry
    schedule replays exactly from its seed.
    """
    x = (
        seed * 0x9E3779B97F4A7C15
        + key * 0xBF58476D1CE4E5B9
        + (attempt + 1) * 0x94D049BB133111EB
    ) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x / 2.0**64


@dataclass(frozen=True)
class RetryPolicy:
    """How the batch engine retries transient per-query failures.

    Attributes:
        max_attempts: Total attempts per query (first try included).
        budget: Batch-wide cap on retries; ``None`` resolves to
            ``max(8, 2 * batch_size)`` via :meth:`batch_budget`.  When
            the budget is exhausted, further transient failures degrade
            immediately instead of retrying.
        base_delay: Backoff before the second attempt (seconds).
        max_delay: Cap on any single backoff delay.
        multiplier: Exponential growth factor per attempt.
        jitter: Fraction of the delay randomized away (``0.5`` draws
            uniformly from ``[0.5 * d, d]``); deterministic in
            ``(seed, query index, attempt)``.
        seed: Jitter seed.
        retry_timeouts: Whether a hard-timeout kill counts as transient
            (retry) rather than final (degrade).  Off by default: a
            query that once blew its wall-clock budget usually will
            again, and the degraded answer is already sound.
        max_pool_rebuilds: How many times one ``run()`` may replace a
            broken process pool before falling back to in-process
            execution for whatever is still unfinished.
    """

    max_attempts: int = 3
    budget: int | None = None
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    retry_timeouts: bool = False
    max_pool_rebuilds: int = 8

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be >= 0 (None = engine default)")
        if not self.base_delay >= 0 or not self.max_delay >= 0:
            raise ValueError("backoff delays must be >= 0 seconds")
        if not self.multiplier >= 1:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be >= 0")

    def classify(self, exc: BaseException) -> str:
        """``"transient"`` or ``"permanent"`` for a live exception."""
        return (
            "transient"
            if isinstance(exc, TRANSIENT_ERROR_TYPES)
            else "permanent"
        )

    def delay(self, attempt: int, key: int = 0) -> float:
        """Backoff (seconds) before attempt ``attempt + 1`` of query ``key``.

        Capped exponential in the number of attempts already made, with
        deterministic jitter pulling each delay into
        ``[(1 - jitter) * d, d]`` so a thundering herd of retried
        queries de-synchronizes the same way on every run.
        """
        base = min(
            self.max_delay,
            self.base_delay * self.multiplier ** max(0, attempt - 1),
        )
        if self.jitter <= 0:
            return base
        return base * (1.0 - self.jitter * _unit(self.seed, key, attempt))

    def batch_budget(self, batch_size: int) -> int:
        """The retry budget for a batch of ``batch_size`` queries."""
        if self.budget is not None:
            return self.budget
        return max(8, 2 * batch_size)
