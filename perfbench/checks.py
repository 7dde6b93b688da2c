"""Correctness checks on the certifier's outputs (run outside the timed region).

Each check returns a list of failure messages; an empty list means the
outputs are correct.  The benchmark fails the run on any message.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.certify.presolve import variation_from_reference
from repro.nn.affine import affine_chain_forward

#: Absolute slack for comparing sampled outputs against certified bounds
#: (float64 forward passes of the same network, different op order).
_TOL = 1e-9
#: Relative slack against an exact MILP optimum: HiGHS stops within its
#: default relative MIP gap of the true optimum.
_MIP_GAP = 1e-4


def identical_across_passes(keys_per_pass: Sequence[Sequence[object]], what: str) -> list[str]:
    """Every pass must produce exactly the first pass's outcome keys."""
    first = list(keys_per_pass[0])
    failures = []
    for p, keys in enumerate(keys_per_pass[1:], start=2):
        keys = list(keys)
        if len(keys) != len(first):
            failures.append(f"{what}: pass {p} has {len(keys)} outcomes, pass 1 {len(first)}")
            continue
        diff = [i for i, (a, b) in enumerate(zip(first, keys)) if a != b]
        if diff:
            failures.append(
                f"{what}: pass {p} differs from pass 1 at {len(diff)} outcome(s), "
                f"first at #{diff[0]}"
            )
    return failures


def sampled_global_gap(
    layers: list, delta: float, lo: np.ndarray, hi: np.ndarray,
    rng: np.random.Generator, pairs: int = 4096,
) -> np.ndarray:
    """Largest per-output ``|F(x) − F(x')|`` over random δ-pairs in ``[lo, hi]``.

    ``x'`` is a random corner of ``x``'s δ-box, clipped to the domain:
    a concrete lower bound on the global robustness ε.
    """
    x = rng.uniform(lo, hi, size=(pairs, lo.size))
    signs = rng.choice((-1.0, 1.0), size=x.shape)
    xp = np.clip(x + delta * signs, lo, hi)
    gap = np.abs(affine_chain_forward(layers, x) - affine_chain_forward(layers, xp))
    return gap.max(axis=0)


def alg1_certificate(label: str, epsilons: np.ndarray, sampled_gap: np.ndarray) -> list[str]:
    """ε̄ is finite and no smaller than a concrete δ-pair gap."""
    eps = np.asarray(epsilons, dtype=float)
    if not np.all(np.isfinite(eps)):
        return [f"{label}: non-finite ε̄ {eps}"]
    if np.any(eps + _TOL < sampled_gap):
        return [f"{label}: ε̄ {eps} below the sampled gap {sampled_gap} (unsound)"]
    return []


def local_verdict(
    label: str, layers: list, cert, epsilon: float, ball_lo: np.ndarray,
    ball_hi: np.ndarray, rng: np.random.Generator, samples: int = 64,
) -> list[str]:
    """A local ε-query's verdict agrees with concrete evaluations.

    ``certified``: no sampled point of the δ-ball (uniform points and
    random corners) varies by more than ε.  ``refuted``: the witness,
    re-evaluated, exceeds ε and lies in the ball.  A refutation without a
    witness point reports an attack lower bound as its ε̄: it must lie
    above ε and below the certificate's own sound output bounds (the
    runner also checks a sample of them with :func:`exact_refutation`).
    """
    verdict = cert.detail.get("verdict")
    center = cert.center
    base = affine_chain_forward(layers, center)
    if verdict == "certified":
        if float(np.max(cert.epsilons)) > epsilon:
            return [f"{label}: certified with ε̄ {np.max(cert.epsilons)} > ε {epsilon}"]
        pts = rng.uniform(ball_lo, ball_hi, size=(samples, center.size))
        corners = rng.integers(0, 2, size=(samples, center.size)).astype(bool)
        pts = np.vstack([pts, np.where(corners, ball_hi, ball_lo)])
        worst = float(np.abs(affine_chain_forward(layers, pts) - base).max())
        if worst > epsilon * (1 + _TOL) + _TOL:
            return [f"{label}: certified at ε {epsilon} but a sample varies {worst}"]
        return []
    if verdict == "refuted":
        witness = cert.detail.get("witness")
        if witness is None:
            eps_lb = np.asarray(cert.epsilons, dtype=float)
            if not float(np.max(eps_lb)) > epsilon:
                return [f"{label}: refuted without a lower bound above ε {epsilon}"]
            eps_ub = variation_from_reference(cert.output_lo, cert.output_hi, base)
            if np.any(eps_lb > eps_ub + _TOL):
                return [f"{label}: refuting lower bound {eps_lb} above its own "
                        f"sound bound {eps_ub}"]
            return []
        w = np.asarray(witness, dtype=float)
        if np.any(w < ball_lo - _TOL) or np.any(w > ball_hi + _TOL):
            return [f"{label}: refuting witness lies outside the δ-ball"]
        gap = float(np.abs(affine_chain_forward(layers, w) - base).max())
        if not gap > epsilon:
            return [f"{label}: refuting witness varies {gap} <= ε {epsilon}"]
        return []
    return [f"{label}: undecided ε-query (verdict {verdict!r})"]


def exact_refutation(label: str, eps_lb: np.ndarray, exact) -> list[str]:
    """A witness-less refutation's lower bound holds against the exact ε.

    ``exact`` is an unlimited exact local certificate of the same query:
    its per-output ε is the true largest variation (up to the MILP gap),
    which no attack lower bound may exceed.
    """
    eps_lb = np.asarray(eps_lb, dtype=float)
    scale = np.maximum(np.abs(exact.output_lo), np.abs(exact.output_hi))
    if np.any(eps_lb > exact.epsilons + _MIP_GAP * np.maximum(scale, 1.0) + _TOL):
        return [f"{label}: refuting lower bound {eps_lb} above the exact ε "
                f"{exact.epsilons}"]
    return []
