"""Runtime contract checks — the ``REPRO_SANITIZE=1`` sanitizer mode.

Analogous to compiling with ASan: hook points at soundness-critical
seams re-verify invariants the static analysis cannot prove and the test
suite can only sample.  The mode costs nothing when off — every hook
site guards with ``if _sanitize.ENABLED:`` (a module-attribute bool
check) before touching any array.

Contracts wired in today:

* **bounds containment** — every symbolic box is contained in its IBP
  box after the tightest-wins intersect
  (:mod:`repro.bounds.symbolic`);
* **finite standard forms** — every coefficient/rhs exported by
  :meth:`repro.milp.model.Model.to_standard_form` is finite (variable
  *bounds* may be infinite by design);
* **split-tier tiling** — the terminal subdomains of a non-refuted
  branch-and-bound run exactly tile the root box
  (:mod:`repro.certify.splitting`);
* **batched row agreement** — a batched ``propagate_many`` result
  agrees with the row-sliced scalar propagation on a sampled query row
  (:mod:`repro.bounds.propagator`), and a split-tier wave attack agrees
  with the one-start witness and scalar gradient on a sampled
  ``(box, start)`` (:mod:`repro.certify.splitting`);
* **split lockstep** — one seeded query of every group of split runs
  driven in lockstep, re-run alone, reaches the same verdict, ε bytes,
  domain and bisection counts (:mod:`repro.certify.splitting`);
* **stacked LP solves** — every block of a block-diagonal multi-objective
  LP satisfies the unstacked system, and one seeded objective re-solved
  alone agrees with its stacked value
  (:meth:`repro.milp.session.SolverSession.solve_objectives`);
* **Algorithm-1 shortcuts** — for one seeded neuron per layer, the
  closed-form depth-1 bounds and the first-copy ``y`` bounds agree with,
  and contain, the optimum of the same objective over the full ITNE
  model (:mod:`repro.certify.global_cert`).

Violations raise :class:`SanitizerError` (an ``AssertionError``
subclass: a sanitizer failure is a bug in this codebase, never a user
error).  Enable via the environment (``REPRO_SANITIZE=1 pytest ...``)
or per-test with the :func:`sanitizing` context manager.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

import numpy as np


class SanitizerError(AssertionError):
    """A runtime contract was violated while the sanitizer was active."""


def _env_enabled() -> bool:
    return os.environ.get("REPRO_SANITIZE", "").strip() not in {"", "0", "false"}


#: Master switch, read once from ``REPRO_SANITIZE`` at import.  Hook
#: sites check this attribute directly so the off-mode cost is one
#: attribute load and a branch.
ENABLED: bool = _env_enabled()


@contextmanager
def sanitizing(on: bool = True) -> Iterator[None]:
    """Temporarily force the sanitizer on (or off) — for tests."""
    global ENABLED
    previous = ENABLED
    ENABLED = on
    try:
        yield
    finally:
        ENABLED = previous


def _fail(contract: str, message: str) -> None:
    raise SanitizerError(f"sanitizer[{contract}]: {message}")


# -- contracts ---------------------------------------------------------------


def check_containment(
    inner_lo: np.ndarray,
    inner_hi: np.ndarray,
    outer_lo: np.ndarray,
    outer_hi: np.ndarray,
    what: str,
    tol: float = 1e-9,
) -> None:
    """``[inner_lo, inner_hi] ⊆ [outer_lo, outer_hi]`` element-wise.

    Guards the tightest-wins guarantee: an engine claiming containment
    in IBP (so downstream relaxations may shrink) must actually deliver
    it, or every big-M constant seeded from it is unsound.
    """
    below = np.asarray(inner_lo) < np.asarray(outer_lo) - tol
    above = np.asarray(inner_hi) > np.asarray(outer_hi) + tol
    if bool(np.any(below) or np.any(above)):
        bad = np.flatnonzero(below | above)[:5]
        _fail(
            "containment",
            f"{what}: inner box escapes outer box at indices {bad.tolist()}",
        )


def check_finite(what: str, **arrays: Any) -> None:
    """Every value in every named array must be finite.

    Used on exported standard forms: a NaN/inf coefficient silently
    poisons HiGHS presolve and pivoting alike.
    """
    for name, array in arrays.items():
        if array is None:
            continue
        values = np.asarray(array, dtype=float)
        if values.size and not np.isfinite(values).all():
            bad = np.flatnonzero(~np.isfinite(values).reshape(-1))[:5]
            _fail(
                "finite",
                f"{what}: non-finite entries in {name} at flat indices "
                f"{bad.tolist()}",
            )


def check_tiling(
    root_lo: np.ndarray,
    root_hi: np.ndarray,
    boxes: Iterable[tuple[np.ndarray, np.ndarray]],
    what: str,
    rel_tol: float = 1e-9,
) -> None:
    """Terminal boxes must exactly tile the root box.

    Bisection guarantees (a) every terminal box is contained in the
    root and (b) total volume equals root volume (no gap — a gapped
    tiling under-covers the domain, so a "certified" verdict would be
    unsound).  Widths are measured relative to the root so degenerate
    (zero-width) roots do not divide by zero.
    """
    root_lo = np.asarray(root_lo, dtype=float)
    root_hi = np.asarray(root_hi, dtype=float)
    width = root_hi - root_lo
    scale = np.where(width > 0.0, width, 1.0)
    total = 0.0
    count = 0
    for lo, hi in boxes:
        count += 1
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        tol = rel_tol * scale
        if bool(np.any(lo < root_lo - tol) or np.any(hi > root_hi + tol)):
            _fail(
                "tiling",
                f"{what}: terminal box #{count - 1} escapes the root box",
            )
        # Normalized volume: product of per-dim width fractions (1.0 for
        # degenerate dims), so the full tiling sums to 1.0 exactly.
        frac = np.where(width > 0.0, (hi - lo) / scale, 1.0)
        total += float(np.prod(frac))
    if count == 0:
        _fail("tiling", f"{what}: no terminal boxes recorded")
    if abs(total - 1.0) > 1e-6 * max(1.0, count):
        _fail(
            "tiling",
            f"{what}: terminal boxes cover {total:.9f} of the root volume "
            f"(expected 1.0 over {count} boxes)",
        )


def check_batch_row(
    batched: np.ndarray,
    scalar: np.ndarray,
    what: str,
    tol: float = 1e-9,
) -> None:
    """A batched propagation row must agree with its scalar twin.

    The batched kernels promise per-row results matching the per-query
    scalar path (the :mod:`repro.bounds.batched` bit-identity contract);
    a silent divergence would let a vectorization bug certify with
    bounds nobody ever cross-checked.  Comparison is tolerance-based so
    near-miss third-party engines fail loudly with the offending
    indices rather than on the last ulp.
    """
    left = np.asarray(batched, dtype=float)
    right = np.asarray(scalar, dtype=float)
    if left.shape != right.shape:
        _fail(
            "batch-row",
            f"{what}: batched row shape {left.shape} != scalar {right.shape}",
        )
    # Exact matches (including ±inf and NaN-vs-NaN) pass outright; the
    # tolerance only applies to genuinely differing finite entries.
    same = (left == right) | (np.isnan(left) & np.isnan(right))
    if bool(np.all(same)):
        return
    diff = np.where(same, 0.0, np.abs(left - right))
    scale = np.maximum(1.0, np.maximum(np.abs(left), np.abs(right)))
    bad = diff > tol * np.where(np.isfinite(scale), scale, 1.0)
    if bool(np.any(bad)):
        worst = np.flatnonzero(bad.reshape(-1))[:5]
        _fail(
            "batch-row",
            f"{what}: batched row diverges from scalar propagation at "
            f"flat indices {worst.tolist()}",
        )


def check_same_run(
    lockstep: dict[str, Any], alone: dict[str, Any], what: str
) -> None:
    """A split run driven in lockstep must match the same run alone.

    Lockstep rounds answer many runs' requests from shared batched
    calls; each run's summary fields (verdict, counts, and arrays byte
    for byte) must equal its solo run's exactly, or some run was handed
    rows that are not its own.
    """
    for name, value in lockstep.items():
        other = alone[name]
        if isinstance(value, np.ndarray):
            same = value.shape == other.shape and value.tobytes() == other.tobytes()
        else:
            same = value == other
        if not same:
            _fail(
                "split-lockstep",
                f"{what}: {name} {value!r} in lockstep but {other!r} alone",
            )


def check_lp_feasible(
    x: np.ndarray,
    a_ub: Any,
    b_ub: np.ndarray,
    a_eq: Any,
    b_eq: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    what: str,
    tol: float = 1e-6,
) -> None:
    """``x`` must satisfy ``a_ub x <= b_ub``, ``a_eq x == b_eq``, ``lo <= x <= hi``.

    Guards the stacked multi-objective LP: a block read back at the wrong
    offset, or from a wrongly tiled system, is a point of some *other*
    polytope, and its objective is then no bound of the certified one.
    Residuals are measured relative to ``1 + |rhs|``.
    """
    x = np.asarray(x, dtype=float)
    checks = (
        ("a_ub x <= b_ub", np.asarray(a_ub @ x) - b_ub, b_ub),
        ("a_eq x == b_eq", np.abs(np.asarray(a_eq @ x) - b_eq), b_eq),
        ("x >= lo", lo - x, lo),
        ("x <= hi", x - hi, hi),
    )
    for name, excess, rhs in checks:
        scale = 1.0 + np.abs(np.where(np.isfinite(rhs), rhs, 0.0))
        bad = excess > tol * scale
        if bool(np.any(bad)):
            _fail(
                "lp-stack",
                f"{what}: violates {name} at indices "
                f"{np.flatnonzero(bad)[:5].tolist()}",
            )


def check_stack_agreement(
    stacked_status: str,
    stacked: float,
    alone_status: str,
    alone: float,
    what: str,
    rel_tol: float = 1e-7,
) -> None:
    """A stacked LP result must match the same objective solved alone.

    Only proven outcomes are compared: a re-solve stopped by its time
    limit says nothing about the stacked optimum.
    """
    proven = {"optimal", "infeasible"}
    if alone_status not in proven:
        return
    if stacked_status != alone_status:
        _fail(
            "lp-stack",
            f"{what}: stacked status {stacked_status} != alone {alone_status}",
        )
    if alone_status == "optimal" and abs(stacked - alone) > rel_tol * max(
        1.0, abs(alone)
    ):
        _fail(
            "lp-stack",
            f"{what}: stacked objective {stacked!r} != alone {alone!r}",
        )


def check_shortcut_bound(
    bound: float | None,
    sense: str,
    reference_status: str,
    reference: float,
    what: str,
    rel_tol: float = 1e-7,
    slack: float = 0.0,
) -> None:
    """A shortcut Algorithm-1 bound must contain and match the ITNE optimum.

    ``bound`` is a closed-form or first-copy bound (``sense`` ``"min"``:
    a lower bound) and ``reference`` the optimum of the same objective
    over the full ITNE model.  The reference is attained by a feasible
    point, so a sound bound never passes it (beyond ``rel_tol``); and the
    shortcut is exact, so it may trail the reference by no more than
    ``rel_tol`` plus ``slack`` (the MIP gaps of the two solves).  Only a
    proven-optimal reference is compared, and a missing bound (the
    interval value then stands) has nothing to check.
    """
    if bound is None or reference_status != "optimal":
        return
    tol = rel_tol * max(1.0, abs(reference))
    tighter = bound - reference if sense == "min" else reference - bound
    if tighter > tol:
        _fail(
            "alg1-shortcut",
            f"{what}: bound {bound!r} cuts off the ITNE optimum {reference!r}",
        )
    if -tighter > tol + slack:
        _fail(
            "alg1-shortcut",
            f"{what}: bound {bound!r} is looser than the ITNE optimum "
            f"{reference!r}",
        )
