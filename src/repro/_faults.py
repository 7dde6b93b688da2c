"""Deterministic fault injection — the chaos-testing substrate.

The fault-tolerance layer (retry engine, pool supervisor, graceful
degradation) is only trustworthy if failures can be *reproduced on
demand*.  This module provides named **fault points** woven into the
runtime and solver stack; an installed :class:`FaultPlan` decides, per
point and per hit, whether to

* ``raise`` an :class:`InjectedFault` (a transient error),
* ``crash`` the worker process (``os._exit``; downgraded to ``raise``
  in the submitting process so a chaos run never kills the test
  runner or CLI), or
* ``hang`` — stall for a configured number of seconds, modelling a
  stuck native solve that only a hard-timeout watchdog can clear.

Plans are either built programmatically (:meth:`FaultPlan.random` for
seeded chaos schedules, explicit :class:`FaultSpec` lists for
regression tests) or parsed from the ``REPRO_FAULTS`` environment
variable at import time::

    REPRO_FAULTS="batch.worker:raise@2;scipy.solve:hang=5@3x2"

Grammar (specs separated by ``;``)::

    point ":" action ["=" seconds] ["@" nth] ["x" count]

``point`` is a dotted name, a trailing-glob prefix (``batch.*``) or
``*``; ``action`` is ``raise`` / ``crash`` / ``hang``; ``seconds``
(hang only) defaults to :data:`DEFAULT_HANG_SECONDS`; ``nth`` is the
1-based hit at which the spec starts firing (default 1); ``count`` is
how many consecutive hits fire (default 1, ``*`` = forever).  Hit
counters are per *process*: a freshly forked worker starts its own
schedule.

Hook sites guard the call with the module-level flag so a disabled
build costs one attribute load and one branch, nothing else::

    from repro import _faults
    ...
    if _faults.ENABLED:
        _faults.fault_point("scipy.solve")

This implementation module lives at the package root (like
:mod:`repro._sanitize`) so soundness-critical solver modules
(``repro.milp.*``) can hook in without importing the runtime engine
package; user-facing code should import the re-exporting facade
:mod:`repro.runtime.faults` instead.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import random
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = [
    "CRASH_EXIT_CODE",
    "DEFAULT_HANG_SECONDS",
    "ENABLED",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "clear",
    "fault_point",
    "injected",
    "install",
]

#: Default stall duration (seconds) for ``hang`` specs that give no
#: explicit ``=seconds`` argument — long enough that only a watchdog
#: resolves it, matching the "stuck native solve" failure it models.
DEFAULT_HANG_SECONDS = 1800.0

#: Exit status of a ``crash`` action, distinguishable from a normal
#: worker death in process-table forensics.
CRASH_EXIT_CODE = 86

_ACTIONS = ("raise", "crash", "hang")


class InjectedFault(RuntimeError):
    """Raised by an armed fault point (and by parent-side ``crash``).

    Transient by construction: the retry engine classifies it like a
    worker death, so chaos schedules exercise exactly the recovery
    paths a real intermittent failure would.
    """

    def __init__(self, point: str, hit: int) -> None:
        super().__init__(f"injected fault at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit

    def __reduce__(self) -> tuple[type[InjectedFault], tuple[str, int]]:
        # Rebuilds from its fields when a pool worker ships it back.
        return (type(self), (self.point, self.hit))


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic schedule entry: fire ``action`` at ``point``.

    Attributes:
        point: Fault-point name, a ``prefix.*`` glob, or ``"*"``.
        action: ``"raise"``, ``"crash"`` or ``"hang"``.
        nth: First hit (1-based, per process) at which the spec fires.
        count: Consecutive firing hits from ``nth`` on; ``math.inf``
            means every hit from ``nth``.
        seconds: Stall duration for ``action="hang"``.
    """

    point: str
    action: str
    nth: int = 1
    count: float = 1.0
    seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {_ACTIONS}"
            )
        if not self.point:
            raise ValueError("fault point name must be non-empty")
        if self.nth < 1:
            raise ValueError("nth is 1-based: the first hit is @1")
        if not self.count >= 1:  # also rejects NaN
            raise ValueError("count must be >= 1 (math.inf = forever)")
        if not self.seconds >= 0:
            raise ValueError("hang seconds must be >= 0")

    def matches(self, point: str) -> bool:
        """Whether this spec applies to fault point ``point``."""
        if self.point == "*" or self.point == point:
            return True
        if self.point.endswith(".*"):
            return point.startswith(self.point[:-1])
        return False

    def armed(self, hit: int) -> bool:
        """Whether the spec fires on the ``hit``-th hit (1-based)."""
        return self.nth <= hit < self.nth + self.count


def _parse_spec(text: str) -> FaultSpec:
    """Parse one ``point:action[=seconds][@nth][x count]`` spec."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(
            f"bad fault spec {text!r}: expected 'point:action[=s][@n][x c]'"
        )
    point = head.strip()
    count: float = 1.0
    nth = 1
    if "x" in rest:
        rest, _, count_text = rest.rpartition("x")
        count_text = count_text.strip()
        count = math.inf if count_text in ("*", "inf") else float(int(count_text))
    if "@" in rest:
        rest, _, nth_text = rest.partition("@")
        nth = int(nth_text.strip())
    action, _, seconds_text = rest.partition("=")
    seconds = DEFAULT_HANG_SECONDS
    if seconds_text.strip():
        seconds = float(seconds_text.strip())
    return FaultSpec(
        point=point, action=action.strip(), nth=nth, count=count, seconds=seconds
    )


@dataclass
class _Chaos:
    """Seeded random firing config for :meth:`FaultPlan.random` plans."""

    rate: float
    actions: tuple[str, ...]
    seconds: float
    points: tuple[str, ...] | None  # None = every point


@dataclass
class FaultPlan:
    """A process-local fault schedule: explicit specs plus chaos noise.

    The plan keeps per-point hit counters as *instance* state, so two
    plans (or one plan re-installed via :meth:`fresh`) never interfere
    and every worker process replays its own deterministic schedule
    from hit 1.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    chaos: _Chaos | None = None
    _hits: dict[str, int] = field(default_factory=dict, repr=False)
    _rngs: dict[str, random.Random] = field(default_factory=dict, repr=False)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from ``REPRO_FAULTS`` grammar (see module doc)."""
        specs = tuple(
            _parse_spec(part)
            for part in text.split(";")
            if part.strip()
        )
        if not specs:
            raise ValueError(f"empty fault schedule {text!r}")
        return cls(specs=specs, seed=seed)

    @classmethod
    def random(
        cls,
        seed: int,
        rate: float,
        points: Sequence[str] | None = None,
        actions: Sequence[str] = _ACTIONS,
        hang_seconds: float = 0.25,
        specs: Sequence[FaultSpec] = (),
    ) -> "FaultPlan":
        """A seeded chaos plan: each hit fires with probability ``rate``.

        The per-point decision streams are deterministic functions of
        ``(seed, point)``, so a chaos test that fails replays
        identically from its seed.  ``hang_seconds`` deliberately
        defaults small: randomized schedules must terminate even
        without a watchdog.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be a probability in [0, 1]")
        bad = [a for a in actions if a not in _ACTIONS]
        if bad:
            raise ValueError(f"unknown fault actions {bad!r}")
        chaos = _Chaos(
            rate=rate,
            actions=tuple(actions),
            seconds=hang_seconds,
            points=None if points is None else tuple(points),
        )
        return cls(specs=tuple(specs), seed=seed, chaos=chaos)

    def fresh(self) -> "FaultPlan":
        """The same schedule with all hit counters and streams reset."""
        return FaultPlan(specs=self.specs, seed=self.seed, chaos=self.chaos)

    def hits(self, point: str) -> int:
        """Hits recorded so far at ``point`` (in this process)."""
        return self._hits.get(point, 0)

    def _rng(self, point: str) -> random.Random:
        rng = self._rngs.get(point)
        if rng is None:
            rng = random.Random(self.seed * 0x9E3779B1 + zlib.crc32(point.encode()))
            self._rngs[point] = rng
        return rng

    def poke(self, point: str) -> FaultSpec | None:
        """Record a hit at ``point``; return the spec to fire, if any.

        Explicit specs win over chaos noise; the first matching armed
        spec (in schedule order) fires.
        """
        hit = self._hits.get(point, 0) + 1
        self._hits[point] = hit
        for spec in self.specs:
            if spec.matches(point) and spec.armed(hit):
                return spec
        chaos = self.chaos
        if chaos is not None and (
            chaos.points is None or point in chaos.points
        ):
            rng = self._rng(point)
            draw = rng.random()
            choice = rng.randrange(len(chaos.actions))
            if draw < chaos.rate:
                return FaultSpec(
                    point=point,
                    action=chaos.actions[choice],
                    nth=hit,
                    seconds=chaos.seconds,
                )
        return None


#: Fast-path flag: hook sites check this before calling
#: :func:`fault_point`, so a disabled build pays one attribute load and
#: one branch per hook.  Always read it off the module
#: (``_faults.ENABLED``) — a ``from``-import freezes the value.
ENABLED: bool = False

_PLAN: FaultPlan | None = None


def install(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-wide (``None`` disables injection)."""
    global _PLAN, ENABLED
    _PLAN = plan
    ENABLED = plan is not None


def clear() -> None:
    """Disable fault injection in this process."""
    install(None)


def active_plan() -> FaultPlan | None:
    """The currently installed plan (for shipping to worker pools)."""
    return _PLAN


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Context manager installing ``plan`` and restoring the old state."""
    previous = _PLAN
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def in_worker_process() -> bool:
    """Whether this process was spawned/forked by a parent process."""
    return multiprocessing.parent_process() is not None


def fault_point(name: str) -> None:
    """The injection hook: a no-op unless an installed plan fires here.

    ``crash`` terminates worker processes with :data:`CRASH_EXIT_CODE`
    but downgrades to ``raise`` in the submitting process — chaos runs
    must never take down the test runner or CLI.  ``hang`` stalls
    cooperatively and then returns, modelling a slow (not failed)
    call; pair it with a watchdog timeout to model a permanently stuck
    one.
    """
    plan = _PLAN
    if plan is None:
        return
    spec = plan.poke(name)
    if spec is None:
        return
    if spec.action == "crash" and in_worker_process():
        os._exit(CRASH_EXIT_CODE)
    if spec.action == "hang":
        time.sleep(spec.seconds)
        return
    raise InjectedFault(name, plan.hits(name))


def _install_from_env() -> None:
    text = os.environ.get("REPRO_FAULTS", "").strip()
    if text:
        install(FaultPlan.parse(text))


_install_from_env()
