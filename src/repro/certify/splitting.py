"""Input-splitting branch-and-bound certification tier.

The monolithic MILP tier answers an ε-query with one big-M encoding
over the *whole* perturbation ball, where loose bounds mean many
unstable ReLUs and many binaries.  This tier instead runs complete
branch-and-bound over the **input space** (the ReluVal / α,β-CROWN
family of input splitting):

* a priority work-queue holds input subdomains ordered by how far their
  symbolic variation bound exceeds the target ε (worst first);
* each subdomain is first attacked with the presolve tier's machinery —
  symbolic bounds prove it, a gradient-corner attack refutes the whole
  query (any concrete witness > ε short-circuits everything);
* undecided subdomains are bisected on a gradient-weighted widest input
  dimension, so cheap bound propagation decides most of the volume;
* below a configurable depth / width / domain-budget threshold a
  subdomain drops to a **MILP leaf** whose encoding inherits the much
  tighter per-subdomain :class:`~repro.bounds.propagator.LayerBounds`
  (more stable neurons → fewer binaries, handed to the encoders through
  their ``pre_act_bounds=`` / ``ranges=`` arguments).

A wave of up to ``frontier_batch`` subdomains is one batched attack
(whose center Jacobians also pick the split dimensions) plus one batched
bound of the bisected children, bit-identical to one box at a time.
Rows of the batched bounds are built only for MILP leaves (whole
``LayerBounds``) and proved subdomains (their output box).

The query is *certified* when every terminal subdomain's bound is ≤ ε
and the terminal subdomains exactly tile the root box (bisection keeps
this invariant by construction); it is *refuted* the moment any
feasible witness exceeds ε.  A shared deadline keeps the tier sound
under ``time_limit``: interrupted runs report ``exact=False`` with
verdict ``"undecided"`` and a finite sound interval bound (never a
claimed decision), exactly like the PR-3 time-limited MILP semantics.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro import _faults, _sanitize
from repro.bounds.interval import Box
from repro.bounds.propagator import (
    BatchedLayerBounds,
    LayerBounds,
    propagate_many,
)
from repro.certify.presolve import (
    _output_gradient,
    _replay_attack,
    _variation_witness_many,
    perturbation_ball,
    perturbation_balls,
    variation_from_reference,
)
from repro.certify.minmax import limited_ranges, min_max_objectives
from repro.certify.results import GlobalCertificate, LocalCertificate
from repro.encoding.itne import encode_itne
from repro.encoding.single import encode_single_network
from repro.nn.affine import AffineLayer, affine_chain_forward
from repro.nn.network import Network, as_affine_chain
from repro.runtime.batch import Outcome, fan_out
from repro.runtime.retry import RetryPolicy

__all__ = ["SplitConfig", "certify_local_split", "certify_global_split"]


@dataclass
class SplitConfig:
    """Knobs of the input-splitting tier.

    Attributes:
        max_domains: Budget on evaluated subdomains.  Once this many
            boxes have had bounds propagated, bisection stops and every
            remaining queue entry becomes a MILP leaf.
        max_depth: Subdomains at this bisection depth become MILP
            leaves instead of splitting further.
        min_width: Subdomains whose widest side is at most this become
            MILP leaves (guards against splitting a near-point box).
        attack_samples: Extra random gradient-corner attack starts per
            subdomain (the subdomain center is always attacked).
        frontier_batch: Subdomains popped from the work-queue per
            branch-and-bound round.  The popped boxes are attacked in
            one batched call, and all children bisected in a round are
            bounded in **one** batched
            :func:`~repro.bounds.propagator.propagate_many` call instead
            of one propagation per child.  Batched rows are
            bit-identical to scalar propagation, so ``1`` reproduces the
            sequential tier's exploration exactly; larger waves keep the
            same soundness but may explore the tree in a different
            order near the domain budget.
        time_limit: Shared wall-clock deadline in seconds for the whole
            query (bounding, attacks and leaf MILPs together).  ``None``
            = unlimited.  When the deadline interrupts the run, the
            verdict is ``"undecided"`` and ``exact=False``; a pooled
            leaf still running past it (plus slack) is killed.
        leaf_workers: Process count for solving leaf MILPs concurrently
            (``None`` = serial; the batch engine grants its worker
            budget here when a split query runs inline).
        record_boxes: Record every terminal subdomain's ``(lo, hi)`` in
            ``detail["leaf_boxes"]`` — the tiling-invariant audit trail
            used by the property tests.
        seed: RNG seed for the attack sample starts.
    """

    max_domains: int = 128
    max_depth: int = 12
    min_width: float = 1e-6
    attack_samples: int = 1
    frontier_batch: int = 8
    time_limit: float | None = None
    leaf_workers: int | None = None
    record_boxes: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_domains < 1:
            raise ValueError("max_domains must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if self.frontier_batch < 1:
            raise ValueError("frontier_batch must be >= 1")
        if self.time_limit is not None and not self.time_limit > 0:
            # `not > 0` also rejects NaN (same contract as the batch
            # engine's CertificationQuery.time_limit).
            raise ValueError("time_limit must be positive seconds or None")


@dataclass(order=True)
class _QueueItem:
    """A pending subdomain, ordered worst-excess-first.

    ``priority = ε − ε̄(box)`` is negative while the subdomain's bound
    exceeds the target, so the min-heap pops the most-violating box.
    The bounds stay row ``row`` of its wave's batched record; only a
    leaf (its whole row) or a proved subdomain (its output box) ever
    slices them out.
    """

    priority: float
    seq: int
    depth: int = field(compare=False)
    box: Box = field(compare=False)
    bounds: BatchedLayerBounds = field(compare=False)
    row: int = field(compare=False)
    eps_ub: np.ndarray = field(compare=False)

    def output(self) -> Box:
        """The subdomain's output box (all a proved subdomain keeps)."""
        return self.bounds.output.row(self.row)

    def leaf(self) -> _Leaf:
        """The subdomain as a MILP leaf, with its whole bounds row."""
        return _Leaf(self.box, self.bounds.row(self.row), self.eps_ub, self.depth)


@dataclass
class _Leaf:
    """One subdomain that dropped to the MILP tier (picklable)."""

    box: Box
    bounds: LayerBounds
    eps_ub: np.ndarray
    depth: int


@dataclass
class _LeafOutcome:
    """Sound per-leaf result of a MILP leaf solve.

    ``eps`` is always a sound per-output upper bound on the variation
    over the leaf (exact when ``exact``); ``witness_eps`` is the best
    concrete per-output variation found (a certified lower bound) and
    ``witness`` the input (or input pair) achieving it.
    """

    eps: np.ndarray
    out_lo: np.ndarray | None
    out_hi: np.ndarray | None
    exact: bool
    limit_hits: int
    witness_eps: np.ndarray | None = None
    witness: np.ndarray | None = None


def _bisect(box: Box, dim: int) -> tuple[Box, Box]:
    """Split ``box`` at the midpoint of coordinate ``dim``.

    The two halves share the cut hyperplane and nothing else, so a
    bisection tree's leaves always tile the root exactly (no gap, no
    interior overlap) — the soundness invariant of the tier.
    """
    mid = 0.5 * (float(box.lo[dim]) + float(box.hi[dim]))
    lo_half_hi = box.hi.copy()
    lo_half_hi[dim] = mid
    hi_half_lo = box.lo.copy()
    hi_half_lo[dim] = mid
    return Box(box.lo.copy(), lo_half_hi), Box(hi_half_lo, box.hi.copy())


def _split_dimension(width: np.ndarray, grad: np.ndarray) -> int:
    """Gradient-weighted widest dimension: argmax ``|∂F_j/∂x_d| · w_d``.

    ``grad`` is taken at the box center for the output whose bound
    currently violates ε the most; dimensions the network is flat in
    are never split on while an influential one is available.
    """
    score = width * np.abs(grad)
    if float(score.max()) <= 0.0:
        return int(np.argmax(width))
    return int(np.argmax(score))


# -- leaf MILP solving --------------------------------------------------------

#: Floor on one leaf solve's time limit (see :func:`_per_solve_limit`).
_MIN_SOLVE_SECONDS = 0.05

#: The pool attempts each leaf once; a leaf it loses re-solves in the
#: submitting process, which retries a transient failure once.
_POOLED_LEAF = RetryPolicy(max_attempts=1)
_INLINE_LEAF = RetryPolicy(max_attempts=2, base_delay=0.0)


def _per_solve_limit(leaf_budget: float | None, n_solves: int) -> float | None:
    """Split a leaf's remaining wall-clock budget across its solves.

    ``Model.solve_many`` applies a *per-solve* limit; handing it the
    whole remaining budget would let one leaf overshoot the shared
    deadline by a factor of ``n_solves``.  A small floor keeps a solve
    from being strangled into a useless instant timeout — overshooting
    the deadline slightly only delays the (sound) undecided fallback.
    """
    if leaf_budget is None:
        return None
    return max(leaf_budget / max(n_solves, 1), _MIN_SOLVE_SECONDS)


def _leaf_outcome(
    layers: list[AffineLayer],
    leaf: _Leaf,
    results,
    enc,
    base: np.ndarray | None = None,
) -> _LeafOutcome:
    """Assemble a leaf's outcome from its (min, max)-per-output solves.

    A local leaf (``base`` given) ranges the outputs over its box; a
    global one ranges the twin output distance, and its witnesses are
    input pairs.
    """
    local = base is not None
    interval = leaf.bounds.output if local else leaf.bounds.output_distance
    lo, hi, limit_hits = limited_ranges(
        results[0::2], results[1::2], interval, "split leaf solve"
    )
    witness = None
    witness_eps = None
    # Track the extremal feasible input (pair) as a concrete witness.
    for r in results:
        if not r.is_optimal:
            continue
        x = np.array([r[v] for v in enc.input_vars])
        if local:
            point, eps = x, np.abs(affine_chain_forward(layers, x) - base)
        else:
            xh = x + np.array([r[v] for v in enc.input_dist_vars])
            point = np.stack([x, xh])
            eps = np.abs(
                affine_chain_forward(layers, xh) - affine_chain_forward(layers, x)
            )
        if witness_eps is None or eps.max() > witness_eps.max():
            witness_eps, witness = eps, point
    return _LeafOutcome(
        eps=(
            variation_from_reference(lo, hi, base) if local
            else np.maximum(np.abs(lo), np.abs(hi))
        ),
        out_lo=lo if local else None,
        out_hi=hi if local else None,
        exact=limit_hits == 0,
        limit_hits=limit_hits,
        witness_eps=witness_eps,
        witness=witness,
    )


def _solve_local_leaf(
    layers: list[AffineLayer],
    leaf: _Leaf,
    base: np.ndarray,
    time_limit: float | None,
) -> _LeafOutcome:
    """Exact min/max of every output over one leaf box (single copy).

    The encoding inherits the leaf's per-subdomain pre-activation
    bounds, so stable neurons encode without binaries.  A time-limited
    solve soundly falls back to its dual bound intersected with the
    leaf's interval bound (never a limited incumbent).
    """
    enc = encode_single_network(
        layers, leaf.box, pre_act_bounds=leaf.bounds.y
    )
    objectives = min_max_objectives(enc.output)
    results = enc.model.solve_many(
        objectives,
        time_limit=_per_solve_limit(time_limit, len(objectives)),
    )
    return _leaf_outcome(layers, leaf, results, enc, base)


def _solve_global_leaf(
    layers: list[AffineLayer],
    leaf: _Leaf,
    delta: float,
    domain: Box,
    time_limit: float | None,
) -> _LeafOutcome:
    """Exact output-distance extrema over one leaf (twin ITNE MILP).

    The first copy's input ranges over the leaf box; the perturbed copy
    is clipped to the *full* domain (not the leaf!) so the union over a
    tiling of the domain is exactly the monolithic Problem 1 — clipping
    the twin to the leaf would unsoundly shrink the feasible pairs.
    """
    table = leaf.bounds.to_range_table()
    enc = encode_itne(
        layers, leaf.box, delta, ranges=table, clip_second_input=False
    )
    for k, (x0, d0) in enumerate(zip(enc.input_vars, enc.input_dist_vars)):
        second = x0 + d0
        enc.model.add_constr(second >= float(domain.lo[k]))
        enc.model.add_constr(second <= float(domain.hi[k]))
    objectives = min_max_objectives(enc.output_distance)
    results = enc.model.solve_many(
        objectives,
        time_limit=_per_solve_limit(time_limit, len(objectives)),
    )
    return _leaf_outcome(layers, leaf, results, enc)


def _leaf_worker(payload) -> _LeafOutcome | None:
    """Solve one leaf MILP on what the shared deadline leaves it.

    The budget is read as the leaf starts; past the deadline it returns
    ``None`` unsolved, and the leaf stays undecided (sound).
    """
    kind, layers, leaf, extra, deadline = payload
    budget = None if deadline is None else deadline - time.perf_counter()
    if budget is not None and budget <= 0:
        return None
    if _faults.ENABLED:
        _faults.fault_point("split.leaf")
    if kind == "local":
        return _solve_local_leaf(layers, leaf, extra, budget)
    delta, domain = extra
    return _solve_global_leaf(layers, leaf, delta, domain, budget)


def _solve_leaves(
    kind: str,
    layers: list[AffineLayer],
    leaves: list[_Leaf],
    extra,
    config: SplitConfig,
    deadline: float | None,
) -> list[_LeafOutcome | None]:
    """Solve every leaf MILP, worst-excess first, optionally in parallel.

    Returns one outcome per leaf (input order); ``None`` marks a leaf
    left unsolved by the deadline or by two transient failures.  Pooled
    leaves (``leaf_workers > 1``) run once each; every leaf the pool
    loses (or reaps past the deadline) re-solves here, and a leaf's
    permanent failure is re-raised.
    """
    if not leaves:
        return []
    order = sorted(
        range(len(leaves)), key=lambda i: -float(leaves[i].eps_ub.max())
    )
    payloads = [
        (kind, layers, leaves[i], extra, deadline) for i in order
    ]
    workers = min(config.leaf_workers or 1, len(leaves))
    outcomes: list[Outcome | None] = [None] * len(payloads)
    if workers > 1:
        # A leaf that starts just before the deadline still gets the
        # per-solve floor for each of its min/max solves; the kill
        # comes no earlier than that.
        slack = _MIN_SOLVE_SECONDS * 2 * layers[-1].out_dim
        outcomes = fan_out(
            _leaf_worker, payloads, workers, _POOLED_LEAF,
            deadline=None if deadline is None else deadline + slack,
        )
    redo = [k for k, o in enumerate(outcomes) if o is None or o.lost is not None]
    inline = fan_out(_leaf_worker, [payloads[k] for k in redo], 1, _INLINE_LEAF)
    for k, outcome in zip(redo, inline):
        outcomes[k] = outcome
    solved: list[_LeafOutcome | None] = [None] * len(leaves)
    for i, outcome in zip(order, outcomes):
        if outcome.exc is not None:
            raise outcome.exc
        solved[i] = outcome.value  # None when lost or out of time
    return solved


# -- the branch-and-bound driver ----------------------------------------------


class _SplitRun:
    """State of one branch-and-bound certification run (local or global).

    The local and global variants share the whole queue discipline and
    differ only in how a box is bounded, attacked and leaf-solved; the
    ``kind`` switch keeps that delta in one place instead of two nearly
    identical drivers.
    """

    def __init__(
        self,
        kind: str,
        layers: list[AffineLayer],
        root: Box,
        epsilon: float,
        config: SplitConfig,
        base: np.ndarray | None = None,
        delta: float | None = None,
        domain: Box | None = None,
    ) -> None:
        self.kind = kind
        self.layers = layers
        self.root = root
        self.epsilon = float(epsilon)
        self.config = config
        self.base = base
        self.delta = delta
        self.domain = domain
        self.rng = np.random.default_rng(config.seed)
        self.t0 = time.perf_counter()
        self.deadline = (
            None if config.time_limit is None else self.t0 + config.time_limit
        )
        self.seq = itertools.count()
        self.domains = 0
        self.bisections = 0
        self.proved: list[tuple[Box, np.ndarray, Box]] = []
        self.undecided: list[tuple[Box, np.ndarray]] = []
        self.milp_leaves: list[_Leaf] = []
        self.milp_limit_hits = 0
        self.proved_by_bounds = 0
        self.root_output: Box | None = None

    # -- per-wave primitives -------------------------------------------------

    def evaluate_many(self, boxes: list[Box], depths: list[int]) -> list[_QueueItem]:
        """Bound a whole frontier wave in one batched propagation.

        Batched rows are bit-identical to scalar propagation, so the
        wave size only changes *when* boxes are bounded, never what
        their bounds are.  Each entry points at its row, uncopied.
        """
        self.domains += len(boxes)
        deltas = None if self.kind == "local" else self.delta
        batched = propagate_many("symbolic", self.layers, boxes, deltas)
        if self.kind == "local":
            out = batched.output
            eps_ub = variation_from_reference(out.lo, out.hi, self.base)
        else:
            eps_ub = batched.output_variation_bounds()
        return [
            _QueueItem(
                priority=self.epsilon - float(eps_ub[q].max()),
                seq=next(self.seq),
                depth=depths[q],
                box=boxes[q],
                bounds=batched,
                row=q,
                eps_ub=eps_ub[q].copy(),
            )
            for q in range(len(boxes))
        ]

    def attack(self, boxes: list[Box]) -> tuple[list[np.ndarray | None], np.ndarray]:
        """One batched gradient-corner attack over a wave of boxes.

        Each box is attacked from its center and ``attack_samples``
        random starts drawn in pop order.  Returns each box's refuting
        witness (``None`` if no start exceeds ε) and the ``(W, m, n)``
        output Jacobians at the box centers.
        """
        lo = np.stack([box.lo for box in boxes])
        hi = np.stack([box.hi for box in boxes])
        u = self.rng.random((len(boxes), self.config.attack_samples, lo.shape[1]))
        center = 0.5 * (lo + hi)
        samples = lo[:, None, :] + u * (hi - lo)[:, None, :]
        starts = np.concatenate([center[:, None, :], samples], axis=1)
        if self.kind == "local":
            # Corners of the subdomain are feasible perturbations of the
            # original ball (the subdomain is a subset of it).
            ball_lo, ball_hi = lo[:, None, :], hi[:, None, :]
        else:
            ball_lo, ball_hi = perturbation_balls(starts, self.delta, self.domain)
        jac, witness = _variation_witness_many(
            self.layers, starts, ball_lo, ball_hi, self.base
        )
        if _sanitize.ENABLED:
            self._check_attack(boxes, starts, jac, witness)
        return [_replay_attack(row, self.epsilon) for row in witness], jac[:, 0]

    def _check_attack(
        self, boxes: list[Box], starts: np.ndarray, jac: np.ndarray, witness: np.ndarray
    ) -> None:
        """Sanitizer: one seeded ``(box, start)`` of a wave attack, re-run alone.

        The start must lie in its box, and its witness and Jacobian must
        match a batch-of-one attack over the scalar ball and baseline and
        the scalar gradients: a wrong ball, baseline or row would refute
        (or split) on numbers never checked.
        """
        wave, per_box = starts.shape[:2]
        rng = np.random.default_rng(wave * 1000003 + per_box)
        w, s = divmod(int(rng.integers(wave * per_box)), per_box)
        box, x = boxes[w], starts[w, s]
        what = f"split wave attack box {w}/{wave} start {s}"
        _sanitize.check_containment(x, x, box.lo, box.hi, f"{what} start")
        if self.kind == "local":
            ball, base = box, self.base
        else:
            ball = perturbation_ball(x, self.delta, self.domain)
            base = affine_chain_forward(self.layers, x)
        _, alone = _variation_witness_many(
            self.layers, x[None], ball.lo[None], ball.hi[None], base[None]
        )
        _sanitize.check_batch_row(witness[w, s], alone[0], f"{what} witness")
        for j in range(self.layers[-1].out_dim):
            _sanitize.check_batch_row(
                jac[w, s, j], _output_gradient(self.layers, x, j),
                f"{what} gradient of output {j}",
            )

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.perf_counter() > self.deadline

    # -- the main loop -------------------------------------------------------

    def run(self) -> dict:
        """Drive the queue to a verdict; returns the result summary."""
        refuted_eps: np.ndarray | None = None
        root_item = self.evaluate_many([self.root], [0])[0]
        self.root_output = root_item.output()
        heap: list[_QueueItem] = []
        if float(root_item.eps_ub.max()) <= self.epsilon:
            self.proved.append((root_item.box, root_item.eps_ub, self.root_output))
            self.proved_by_bounds += 1
        else:
            heap.append(root_item)

        while heap and refuted_eps is None:
            if self.out_of_time():
                self.undecided.extend((i.box, i.eps_ub) for i in heap)
                heap.clear()
                break
            # One round: pop a wave of the worst subdomains, attack them
            # all in one batched call, classify them in pop order, then
            # bound every bisected child in one batched propagation.
            wave: list[_QueueItem] = []
            while heap and len(wave) < self.config.frontier_batch:
                wave.append(heapq.heappop(heap))
            refutations, center_jac = self.attack([item.box for item in wave])
            splits: list[tuple[_QueueItem, int]] = []
            for w, item in enumerate(wave):
                if refutations[w] is not None:
                    refuted_eps = refutations[w]
                    # Wave members not yet resolved (and scheduled
                    # splits whose children never got bounded) rejoin
                    # the heap so the post-loop bookkeeping records
                    # them as undecided — one witness refutes them all.
                    for leftover in wave[w + 1 :] + [i for i, _ in splits]:
                        heapq.heappush(heap, leftover)
                    break
                width = item.box.width()
                at_leaf = (
                    item.depth >= self.config.max_depth
                    or float(width.max()) <= self.config.min_width
                    # Children already scheduled this round count toward
                    # the budget, exactly as sequential processing
                    # would have evaluated them before this pop.
                    or self.domains + 2 * len(splits) >= self.config.max_domains
                )
                if at_leaf:
                    self.milp_leaves.append(item.leaf())
                    continue
                worst = int(np.argmax(item.eps_ub))
                self.bisections += 1
                splits.append((item, _split_dimension(width, center_jac[w, worst])))
            if refuted_eps is not None or not splits:
                continue
            children: list[Box] = []
            depths: list[int] = []
            for item, dim in splits:
                children.extend(_bisect(item.box, dim))
                depths.extend([item.depth + 1, item.depth + 1])
            for child_item in self.evaluate_many(children, depths):
                if float(child_item.eps_ub.max()) <= self.epsilon:
                    self.proved.append(
                        (child_item.box, child_item.eps_ub, child_item.output())
                    )
                    self.proved_by_bounds += 1
                else:
                    heapq.heappush(heap, child_item)

        witness = None
        if refuted_eps is not None:
            # Whatever is still queued never got decided; that is fine —
            # one concrete witness refutes the whole query.
            self.undecided.extend((i.box, i.eps_ub) for i in heap)
        else:
            extra = (
                self.base if self.kind == "local" else (self.delta, self.domain)
            )
            outcomes = _solve_leaves(
                self.kind, self.layers, self.milp_leaves, extra,
                self.config, self.deadline,
            )
            for leaf, outcome in zip(self.milp_leaves, outcomes):
                if outcome is None:
                    self.undecided.append((leaf.box, leaf.eps_ub))
                    continue
                self.milp_limit_hits += outcome.limit_hits
                # The leaf's interval bound stays valid; intersect.
                eps = np.minimum(outcome.eps, leaf.eps_ub)
                if (
                    outcome.witness_eps is not None
                    and float(outcome.witness_eps.max()) > self.epsilon
                ):
                    witness = outcome.witness
                    refuted_eps = outcome.witness_eps
                    break
                if float(eps.max()) <= self.epsilon:
                    self.proved.append((leaf.box, eps, leaf.bounds.output))
                else:
                    # A sound bound above ε that no witness confirms:
                    # only possible for a resource-limited leaf solve
                    # (an exact solve above ε yields a witness).
                    self.undecided.append((leaf.box, eps))

        if refuted_eps is not None:
            verdict, epsilons = "refuted", refuted_eps
        else:
            verdict = "undecided" if self.undecided else "certified"
            epsilons = self._sound_upper_bound()
        if _sanitize.ENABLED and refuted_eps is None:
            # A refuting witness short-circuits leaf processing, so only
            # non-refuted verdicts promise a complete tiling — and for
            # those it is the soundness argument: a gap would be an
            # unexplored part of the domain under a "certified" stamp.
            _sanitize.check_tiling(
                self.root.lo, self.root.hi,
                ((box.lo, box.hi) for box in self._terminal_boxes()),
                f"split-tier terminal subdomains ({verdict})",
            )
        return {
            "verdict": verdict,
            "epsilons": np.asarray(epsilons, dtype=float),
            "witness": witness,
            "solve_time": time.perf_counter() - self.t0,
        }

    def _terminal_boxes(self) -> list[Box]:
        return [box for box, _, _ in self.proved] + [box for box, _ in self.undecided]

    def _sound_upper_bound(self) -> np.ndarray:
        """Per-output max over all terminal subdomains' sound bounds."""
        parts = [eps for _, eps, _ in self.proved]
        parts += [eps for _, eps in self.undecided]
        return np.max(np.stack(parts), axis=0)

    def detail(self, verdict: str) -> dict:
        info = {
            "verdict": verdict,
            "epsilon": self.epsilon,
            "domains": self.domains,
            "bisections": self.bisections,
            "frontier_batch": self.config.frontier_batch,
            "proved_by_bounds": self.proved_by_bounds,
            "milp_leaves": len(self.milp_leaves),
            "milp_limit_hits": self.milp_limit_hits,
            "undecided": len(self.undecided),
        }
        if self.config.record_boxes:
            info["leaf_boxes"] = [
                (box.lo.copy(), box.hi.copy()) for box in self._terminal_boxes()
            ]
        return info


def certify_local_split(
    network: Network | list[AffineLayer],
    center: np.ndarray,
    delta: float,
    epsilon: float,
    domain: Box | None = None,
    config: SplitConfig | None = None,
) -> LocalCertificate:
    """Decide a local ε-robustness query by input-splitting B&B.

    Branch-and-bound over sub-boxes of the δ-ball around ``center``:
    symbolic bounds prove subdomains, gradient-corner attacks refute the
    query, undecided subdomains bisect until they drop to binary-sparse
    MILP leaves.  Verdict semantics match :func:`presolve_local` —
    ``detail["verdict"]`` is ``"certified"``, ``"refuted"`` or (only
    when the deadline interrupts) ``"undecided"``.

    Returns:
        A ``method="split"`` :class:`LocalCertificate`.  ``exact`` is
        True iff the verdict is decided (not ``"undecided"``); on
        ``"refuted"`` the ``epsilons`` are concrete witness *lower*
        bounds, otherwise sound upper bounds over the whole ball.
    """
    config = config or SplitConfig()
    layers = as_affine_chain(network)
    center = np.asarray(center, dtype=float).reshape(-1)
    ball = perturbation_ball(center, delta, domain)
    base = affine_chain_forward(layers, center)
    run = _SplitRun(
        "local", layers, ball, epsilon, config, base=base
    )
    result = run.run()
    detail = run.detail(result["verdict"])
    if result["witness"] is not None:
        detail["witness"] = result["witness"]
    if result["verdict"] == "certified":
        # Every terminal subdomain was proved and the subdomains tile
        # the ball, so the hull of their output boxes encloses F(ball).
        out_lo = np.min([out.lo for _, _, out in run.proved], axis=0)
        out_hi = np.max([out.hi for _, _, out in run.proved], axis=0)
    else:
        # Refuted / undecided runs have terminal subdomains whose output
        # was never enclosed (or only lower-bounded); the only sound
        # range is the root propagation's output box.
        out_lo = run.root_output.lo.copy()
        out_hi = run.root_output.hi.copy()
    return LocalCertificate(
        center=center,
        delta=float(delta),
        epsilons=result["epsilons"],
        output_lo=out_lo,
        output_hi=out_hi,
        method="split",
        exact=result["verdict"] != "undecided",
        solve_time=result["solve_time"],
        detail=detail,
    )


def certify_global_split(
    network: Network | list[AffineLayer],
    domain: Box,
    delta: float,
    epsilon: float,
    config: SplitConfig | None = None,
) -> GlobalCertificate:
    """Decide a global ε-robustness query by input-splitting B&B.

    The first copy's input domain is tiled; each subdomain re-runs the
    twin symbolic propagation (distance bounds) and the gradient-corner
    pair attack; MILP leaves encode ITNE over the sub-box with the
    perturbed copy clipped to the *full* domain, so the union over the
    tiling is exactly the monolithic Problem 1.

    Returns:
        A ``method="split"`` :class:`GlobalCertificate` (see
        :func:`certify_local_split` for verdict / ``exact`` semantics).
    """
    config = config or SplitConfig()
    layers = as_affine_chain(network)
    run = _SplitRun(
        "global", layers, domain, epsilon, config, delta=float(delta),
        domain=domain,
    )
    result = run.run()
    detail = run.detail(result["verdict"])
    if result["witness"] is not None:
        detail["witness"] = result["witness"]
    return GlobalCertificate(
        delta=float(delta),
        epsilons=result["epsilons"],
        method="split",
        exact=result["verdict"] != "undecided",
        solve_time=result["solve_time"],
        milp_count=2 * len(run.milp_leaves) * layers[-1].out_dim,
        detail=detail,
    )
