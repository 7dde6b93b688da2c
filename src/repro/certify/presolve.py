"""Bounds-only presolve tier: decide ε-targeted queries without a solve.

Given a target ``ε`` ("is the output variation at most ε?"), a query can
often be answered from bound propagation alone:

* **prove** — if the (symbolic) interval bound on the output variation
  is already ≤ ε, the property holds and a certificate with
  ``method="presolve"`` is returned without building any MILP;
* **refute** — if a cheap gradient-guided attack (the
  under-approximation side) exhibits a concrete witness pair with
  variation > ε, the property is false and a ``method="presolve"``
  certificate with ``detail["verdict"] == "refuted"`` is returned, its
  ``epsilons`` being the attack's *lower* bounds;
* **undecided** — ``None`` is returned and the caller falls through to
  the MILP tier (whose result is bit-identical to a run without
  presolve, since presolve never touches the encoding).

The batch engine (:mod:`repro.runtime.batch`) runs this tier first for
every query carrying an ``epsilon`` target: one :func:`presolve_many`
call per group of queries sharing a network and domain, in the
submitting process, and the scalar functions inside the workers for
queries submitted alone.

**Batched presolve.**  :func:`presolve_local_many`,
:func:`presolve_global_many` and the :func:`presolve_many` dispatcher
answer a whole array of ε-queries in one pass: one batched bound
propagation (:func:`~repro.bounds.propagator.propagate_many`) proves,
and one corner-vectorized gradient attack refutes, every query at once.
Their per-query verdicts and certificate arrays are **bit-identical**
to calling :func:`presolve_local` / :func:`presolve_global` in a loop —
the batched kernels keep every matmul in the scalar 2-D slice shape
(the :mod:`repro.bounds.batched` contract) and the scalar functions'
RNG discipline (a fresh ``default_rng(seed)`` per query) makes the
random attack starts shareable across the batch.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from repro.bounds.batched import BatchedBox, as_batched_box
from repro.bounds.interval import Box
from repro.bounds.propagator import propagate_many
from repro.bounds.symbolic import SymbolicPropagator
from repro.certify.results import GlobalCertificate, LocalCertificate
from repro.nn.affine import AffineLayer, affine_chain_forward
from repro.nn.network import Network, as_affine_chain

#: Soft cap on the corner-stack element count per attack chunk — bounds
#: the ``(rows, outputs, dim)`` scratch arrays without changing any
#: per-row arithmetic (chunking is over whole query rows).
_ATTACK_CHUNK_ELEMS = 4_000_000


def perturbation_ball(
    center: np.ndarray, delta: float, domain: Box | None
) -> Box:
    """The δ-ball around ``center``, clipped to ``domain`` when given."""
    ball = Box.from_center(np.asarray(center, dtype=float).reshape(-1), float(delta))
    return ball.intersect(domain) if domain is not None else ball


def variation_from_reference(
    out_lo: np.ndarray, out_hi: np.ndarray, reference: np.ndarray
) -> np.ndarray:
    """Per-output bound ``max(|hi − ref|, |ref − lo|)``.

    The one definition of "output variation around a reference point"
    shared by the presolve tier, the local certifiers and the bounds
    benchmark — their ε values must stay definitionally identical.
    """
    return np.maximum(np.abs(out_hi - reference), np.abs(reference - out_lo))


def _output_gradient(layers: list[AffineLayer], x: np.ndarray, j: int) -> np.ndarray:
    """Gradient of output ``j`` w.r.t. the input at ``x`` (ReLU subgradient)."""
    pre_acts = []
    cur = np.asarray(x, dtype=float)
    for layer in layers:
        y = layer.pre_activation(cur)
        pre_acts.append(y)
        cur = np.maximum(y, 0.0) if layer.relu else y
    grad = np.zeros(layers[-1].out_dim)
    grad[j] = 1.0
    for layer, y in zip(reversed(layers), reversed(pre_acts)):
        if layer.relu:
            grad = grad * (y > 0.0)
        grad = layer.weight.T @ grad
    return grad


def _forward_many(layers: list[AffineLayer], x: np.ndarray) -> np.ndarray:
    """Forward pass over a stack of inputs, shape ``(..., n) → (..., m)``.

    Each row's result is **bit-identical** to the 1-D
    :func:`~repro.nn.affine.affine_chain_forward` on that row: the
    matmul keeps the scalar 2-D slice shape (``(..., 1, n) @ (n, m)``)
    instead of collapsing the stack into one gemm, so BLAS cannot
    re-associate the reductions (the :mod:`repro.bounds.batched`
    bit-identity contract).
    """
    cur = np.asarray(x, dtype=float)
    for layer in layers:
        y = (cur[..., None, :] @ layer.weight.T)[..., 0, :] + layer.bias
        cur = np.maximum(y, 0.0) if layer.relu else y
    return cur


def _output_jacobian_many(
    layers: list[AffineLayer], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outputs and output gradients at a stack of inputs: ``(F(x), J)``.

    ``F(x)`` ``(..., m)`` is bit-identical to :func:`_forward_many`, and
    row ``J[..., j, :]`` of ``(..., m, n)`` is bit-identical to
    ``_output_gradient(layers, row, j)`` — the backward substitution
    runs per stacked row (``W.T @ grad[..., None]``) rather than as one
    fused gemm, for the same reason as :func:`_forward_many`.
    """
    cur = np.asarray(x, dtype=float)
    pre_acts = []
    for layer in layers:
        y = (cur[..., None, :] @ layer.weight.T)[..., 0, :] + layer.bias
        pre_acts.append(y)
        cur = np.maximum(y, 0.0) if layer.relu else y
    out_dim = layers[-1].out_dim
    grad = np.broadcast_to(
        np.eye(out_dim), cur.shape[:-1] + (out_dim, out_dim)
    ).copy()
    for layer, y in zip(reversed(layers), reversed(pre_acts)):
        if layer.relu:
            grad = grad * (y > 0.0)[..., None, :]
        grad = (layer.weight.T @ grad[..., None])[..., 0]
    return cur, grad


def _corner_witness(
    layers: list[AffineLayer],
    jac: np.ndarray,
    ball_lo: np.ndarray,
    ball_hi: np.ndarray,
    base: np.ndarray,
) -> np.ndarray:
    """Corner-attack variations from precomputed gradients, ``(..., m)``.

    ``jac`` has shape ``(..., m, n)`` and ``ball_lo`` / ``ball_hi`` /
    ``base`` broadcast against its leading dims, so callers can share
    one Jacobian across many balls (the global presolve reuses each
    start's gradients for every query's δ-ball).  Per row and output
    the result equals the scalar two-corner scan:
    ``max(|F(corner⁺)_j − base_j|, |F(corner⁻)_j − base_j|)``.
    """
    hi = np.asarray(ball_hi, dtype=float)[..., None, :]
    lo = np.asarray(ball_lo, dtype=float)[..., None, :]
    corner_up = np.where(jac >= 0.0, hi, lo)
    corner_dn = np.where(-jac >= 0.0, hi, lo)
    j_idx = np.arange(layers[-1].out_dim)
    val_up = _forward_many(layers, corner_up)[..., j_idx, j_idx]
    val_dn = _forward_many(layers, corner_dn)[..., j_idx, j_idx]
    base = np.asarray(base, dtype=float)
    return np.maximum(np.abs(val_up - base), np.abs(val_dn - base))


def perturbation_balls(
    starts: np.ndarray, delta: "float | np.ndarray", domain: Box
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked :func:`perturbation_ball` ``clip(x ± δ, domain)``: ``(lo, hi)``."""
    lo = np.maximum(starts - delta, domain.lo)
    hi = np.minimum(starts + delta, domain.hi)
    return np.minimum(lo, hi, out=lo), hi


def _variation_witness_many(
    layers: list[AffineLayer],
    x: np.ndarray,
    ball_lo: np.ndarray,
    ball_hi: np.ndarray,
    base: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-corner attack from a stack of starts ``x``: ``(J, witness)``.

    The one attack kernel of the presolve and split tiers: one Jacobian
    stack, one corner stack and two forward stacks over *all* starts at
    once.  For each output the gradient at a start picks the ball corner
    that maximizes / minimizes it; every corner is a feasible input, so
    the witnesses ``(..., m)`` are certified *lower* bounds on
    ``|F(·) − base|``.  ``base`` defaults to each start's own ``F(x)``
    (global pairs); local queries pass ``F(x0)``.  The Jacobians
    ``(..., m, n)`` come back too: the split tier bisects along them.
    """
    out, jac = _output_jacobian_many(layers, x)
    return jac, _corner_witness(
        layers, jac, ball_lo, ball_hi, out if base is None else base
    )


def _replay_attack(witness: np.ndarray, epsilon: float) -> np.ndarray | None:
    """Replay one query's sequential attack over its ``(starts, m)`` witnesses.

    The attack's verdict rule: a running per-output max over the starts
    in order, stopping at the *first* start whose max exceeds ε — so a
    refuted certificate carries the (possibly partial) ``epsilons``
    array of that prefix, however many starts were computed at once.
    ``None`` when no prefix exceeds ε (undecided).
    """
    running = np.maximum.accumulate(witness, axis=0)
    hits = np.flatnonzero(running.max(axis=-1) > epsilon)
    return running[hits[0]] if hits.size else None


def presolve_local(
    network: Network | list[AffineLayer],
    center: np.ndarray,
    delta: float,
    epsilon: float,
    domain: Box | None = None,
    attack_samples: int = 4,
    seed: int = 0,
) -> LocalCertificate | None:
    """Decide a local ε-robustness query from bounds alone, if possible.

    Args:
        network: Model or affine chain.
        center: The sample ``x0``.
        delta: L∞ perturbation radius.
        epsilon: Target variation bound to prove or refute.
        domain: Optional domain box intersected with the δ-ball.
        attack_samples: Extra random starts for the refuting attack.
        seed: RNG seed for the random starts.

    Returns:
        A ``method="presolve"`` :class:`LocalCertificate` with
        ``detail["verdict"]`` ``"certified"`` or ``"refuted"``, or
        ``None`` when bounds and attack leave the query undecided.  On
        ``"refuted"`` the ``epsilons`` are the attack's *lower* bounds.
    """
    t0 = time.perf_counter()
    layers = as_affine_chain(network)
    center = np.asarray(center, dtype=float).reshape(-1)
    ball = perturbation_ball(center, delta, domain)
    layer_bounds = SymbolicPropagator().propagate(layers, ball)
    out = layer_bounds.output
    base = affine_chain_forward(layers, center)
    eps_ub = variation_from_reference(out.lo, out.hi, base)

    def certificate(epsilons, verdict):
        return LocalCertificate(
            center=center,
            delta=float(delta),
            epsilons=epsilons,
            output_lo=out.lo.copy(),
            output_hi=out.hi.copy(),
            method="presolve",
            exact=False,
            solve_time=time.perf_counter() - t0,
            detail={
                "verdict": verdict,
                "epsilon": float(epsilon),
            },
        )

    if eps_ub.max() <= epsilon:
        return certificate(eps_ub, "certified")

    samples = ball.sample(np.random.default_rng(seed), attack_samples)
    starts = np.concatenate([center[None, :], samples])
    _, witness = _variation_witness_many(layers, starts, ball.lo, ball.hi, base)
    eps_lb = _replay_attack(witness, float(epsilon))
    return None if eps_lb is None else certificate(eps_lb, "refuted")


def presolve_global(
    network: Network | list[AffineLayer],
    domain: Box,
    delta: float,
    epsilon: float,
    attack_samples: int = 8,
    seed: int = 0,
) -> GlobalCertificate | None:
    """Decide a global ε-robustness query from bounds alone, if possible.

    The proving side uses the twin propagation's output-distance box;
    the refuting side launches gradient-corner attacks in the δ-ball
    around random domain samples (every witness pair is feasible, so its
    variation is a certified lower bound on the true global ε).

    Returns:
        A ``method="presolve"`` :class:`GlobalCertificate` (see
        :func:`presolve_local` for verdict semantics), or ``None``.
    """
    t0 = time.perf_counter()
    layers = as_affine_chain(network)
    layer_bounds = SymbolicPropagator().propagate(layers, domain, delta)
    eps_ub = layer_bounds.output_variation_bounds()

    def certificate(epsilons, verdict):
        return GlobalCertificate(
            delta=float(delta),
            epsilons=epsilons,
            method="presolve",
            exact=False,
            solve_time=time.perf_counter() - t0,
            detail={
                "verdict": verdict,
                "epsilon": float(epsilon),
            },
        )

    if eps_ub.max() <= epsilon:
        return certificate(eps_ub, "certified")

    starts = domain.sample(np.random.default_rng(seed), attack_samples)
    _, witness = _variation_witness_many(
        layers, starts, *perturbation_balls(starts, delta, domain)
    )
    eps_lb = _replay_attack(witness, float(epsilon))
    return None if eps_lb is None else certificate(eps_lb, "refuted")


# -- batched presolve ---------------------------------------------------------


def _as_query_array(values, queries: int, what: str) -> np.ndarray:
    """Broadcast a scalar or per-query vector to shape ``(queries,)``."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 1:
        return np.full(queries, float(arr[0]))
    if arr.size != queries:
        raise ValueError(
            f"{what} has {arr.size} entries for {queries} queries"
        )
    return arr.copy()


def _decide_rows(
    eps_ub: np.ndarray,
    epsilons: np.ndarray,
    per_row: int,
    attack: Callable[[np.ndarray], np.ndarray],
) -> "list[tuple[str, np.ndarray] | None]":
    """Prove each query row from its bound, else refute it by attack.

    ``attack(sel)`` returns the selected rows' ``(len(sel), starts, m)``
    witnesses; it runs over chunks of ``_ATTACK_CHUNK_ELEMS // per_row``
    rows (a scratch-memory cap).  ``None`` marks an undecided row.
    """
    verdicts: list[tuple[str, np.ndarray] | None] = [
        ("certified", eps_ub[q].copy())
        if float(eps_ub[q].max()) <= epsilons[q] else None
        for q in range(len(epsilons))
    ]
    rows = [q for q, verdict in enumerate(verdicts) if verdict is None]
    chunk = max(1, int(_ATTACK_CHUNK_ELEMS // max(per_row, 1)))
    for k in range(0, len(rows), chunk):
        sel = np.asarray(rows[k : k + chunk])
        for q, witness in zip(sel, attack(sel)):
            eps_lb = _replay_attack(witness, float(epsilons[q]))
            if eps_lb is not None:
                verdicts[q] = ("refuted", eps_lb)
    return verdicts


def presolve_local_many(
    network: Network | list[AffineLayer],
    centers: np.ndarray,
    deltas: "float | np.ndarray",
    epsilons: "float | np.ndarray",
    domain: Box | None = None,
    attack_samples: int = 4,
    seed: int = 0,
) -> "list[LocalCertificate | None]":
    """Decide many local ε-queries in one batched pass.

    One batched bound propagation over all δ-balls proves, and one
    corner-vectorized gradient attack refutes, the whole stack at once.
    Entry ``q`` of the returned list is **bit-identical** (verdict,
    ``epsilons``, output box) to
    ``presolve_local(network, centers[q], deltas[q], epsilons[q], ...)``
    — including the ``None`` fallthrough for undecided queries.  The
    scalar path's fresh ``default_rng(seed)`` per query means all
    queries share the same uniform draws, so the batch samples them
    once.

    Args:
        network: Model or affine chain (shared by every query).
        centers: Stacked samples, shape ``(queries, n)``.
        deltas: Scalar or per-query L∞ radii.
        epsilons: Scalar or per-query variation targets.
        domain: Optional domain box intersected with every δ-ball.
        attack_samples: Extra random starts per query (scalar default).
        seed: RNG seed for the shared random starts.
    """
    t0 = time.perf_counter()
    layers = as_affine_chain(network)
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    queries, dim = centers.shape
    deltas = _as_query_array(deltas, queries, "deltas")
    epsilons = _as_query_array(epsilons, queries, "epsilons")
    out_dim = layers[-1].out_dim

    ball_lo = centers - deltas[:, None]
    ball_hi = centers + deltas[:, None]
    if domain is not None:
        ball_lo = np.maximum(ball_lo, domain.lo)
        ball_hi = np.minimum(ball_hi, domain.hi)
    balls = BatchedBox(ball_lo, ball_hi)
    layer_bounds = propagate_many("symbolic", layers, balls)
    out = layer_bounds.output
    base = _forward_many(layers, centers)
    eps_ub = variation_from_reference(out.lo, out.hi, base)

    u = np.random.default_rng(seed).random((attack_samples, dim))

    def attack(sel: np.ndarray) -> np.ndarray:
        lo, hi = balls.lo[sel], balls.hi[sel]
        samples = lo[:, None, :] + u[None, :, :] * (hi - lo)[:, None, :]
        starts = np.concatenate([centers[sel][:, None, :], samples], axis=1)
        return _variation_witness_many(
            layers, starts, lo[:, None, :], hi[:, None, :], base[sel][:, None, :]
        )[1]

    verdicts = _decide_rows(
        eps_ub, epsilons, (attack_samples + 1) * out_dim * dim, attack
    )

    share = (time.perf_counter() - t0) / queries
    results: list[LocalCertificate | None] = [None] * queries
    for q, verdict in enumerate(verdicts):
        if verdict is None:
            continue
        name, eps = verdict
        results[q] = LocalCertificate(
            center=centers[q].copy(),
            delta=float(deltas[q]),
            epsilons=eps,
            output_lo=out.lo[q].copy(),
            output_hi=out.hi[q].copy(),
            method="presolve",
            exact=False,
            solve_time=share,
            detail={
                "verdict": name,
                "epsilon": float(epsilons[q]),
            },
        )
    return results


def presolve_global_many(
    network: Network | list[AffineLayer],
    domain: Box,
    deltas: "float | np.ndarray",
    epsilons: "float | np.ndarray",
    attack_samples: int = 8,
    seed: int = 0,
) -> "list[GlobalCertificate | None]":
    """Decide many global ε-queries (shared domain) in one batched pass.

    The twin propagation runs once over a stack of ``queries`` copies of
    ``domain`` with per-query δ radii; the refuting attack computes each
    start's Jacobian **once** and reuses it for every query's δ-ball
    corners.  Entry ``q`` is bit-identical to
    ``presolve_global(network, domain, deltas[q], epsilons[q], ...)``
    (see :func:`presolve_local_many` for the RNG-sharing argument —
    here even the domain samples coincide across queries).
    """
    t0 = time.perf_counter()
    layers = as_affine_chain(network)
    dim = domain.dim
    deltas = np.asarray(deltas, dtype=float).reshape(-1)
    epsilons = np.asarray(epsilons, dtype=float).reshape(-1)
    queries = max(deltas.size, epsilons.size)
    deltas = _as_query_array(deltas, queries, "deltas")
    epsilons = _as_query_array(epsilons, queries, "epsilons")
    out_dim = layers[-1].out_dim

    stack = as_batched_box([domain] * queries)
    layer_bounds = propagate_many("symbolic", layers, stack, deltas)
    eps_ub = layer_bounds.output_variation_bounds()

    starts = domain.sample(np.random.default_rng(seed), attack_samples)
    base, jac = _output_jacobian_many(layers, starts)

    def attack(sel: np.ndarray) -> np.ndarray:
        lo, hi = perturbation_balls(
            starts[None, :, :], deltas[sel][:, None, None], domain
        )
        return _corner_witness(layers, jac, lo, hi, base)

    verdicts = _decide_rows(
        eps_ub, epsilons, attack_samples * out_dim * dim, attack
    )

    share = (time.perf_counter() - t0) / queries
    results: list[GlobalCertificate | None] = [None] * queries
    for q, verdict in enumerate(verdicts):
        if verdict is None:
            continue
        name, eps = verdict
        results[q] = GlobalCertificate(
            delta=float(deltas[q]),
            epsilons=eps,
            method="presolve",
            exact=False,
            solve_time=share,
            detail={
                "verdict": name,
                "epsilon": float(epsilons[q]),
            },
        )
    return results


def presolve_many(
    network: Network | list[AffineLayer],
    kind: str,
    *,
    centers: np.ndarray | None = None,
    domain: Box | None = None,
    deltas: "float | np.ndarray",
    epsilons: "float | np.ndarray",
    attack_samples: int | None = None,
    seed: int = 0,
):
    """Batched presolve dispatcher: one call per query *family*.

    ``kind="local"`` requires ``centers`` and forwards to
    :func:`presolve_local_many`; ``kind="global"`` requires ``domain``
    and forwards to :func:`presolve_global_many`.  ``attack_samples``
    defaults to each family's scalar default (4 local, 8 global).
    """
    if kind == "local":
        if centers is None:
            raise ValueError("kind='local' needs stacked centers")
        return presolve_local_many(
            network, centers, deltas, epsilons, domain=domain,
            attack_samples=4 if attack_samples is None else attack_samples,
            seed=seed,
        )
    if kind == "global":
        if domain is None:
            raise ValueError("kind='global' needs an input domain")
        return presolve_global_many(
            network, domain, deltas, epsilons,
            attack_samples=8 if attack_samples is None else attack_samples,
            seed=seed,
        )
    raise ValueError(f"unknown presolve kind {kind!r} (expected 'local'/'global')")
