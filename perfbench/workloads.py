"""The benchmark's workloads, driven through the certifier's public API.

* ``alg1-lp`` — Algorithm 1 (window 2, no refinement) on Table-1
  DNN-3/4/5 over X = [0, 1]^7 at δ = 0.001: the paper's headline method
  in its pure-LP setting.  Hundreds of LPs per certificate, one
  constraint system per layer.
* ``alg1-refine`` — the same certifier with ``refine_count=4`` on DNN-3/4:
  the same layers used differently, dominated by HiGHS branch-and-bound.
* ``local-batch`` — a stream of ``BatchCertifier(max_workers=2)``
  batches of local ε-queries (``split=True``) on DNN-5: bulk presolve,
  pool dispatch, thousands of small symbolic propagations and split-tier
  leaves.

Each workload yields a *pass*: a list of timed units (one certificate,
or one submitted batch).  The runner brackets every unit with
calibration slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.bounds.interval import Box
from repro.bounds.propagator import propagate_many
from repro.certify import CertifierConfig, GlobalRobustnessCertifier
from repro.certify.presolve import perturbation_ball
from repro.data import load_auto_mpg
from repro.nn.affine import affine_chain_forward
from repro.runtime.batch import BatchCertifier, CertificationQuery
from repro.zoo import get_network

#: Training seed of the Table-1 networks (the zoo's default).  It is
#: fixed on purpose: ε̄ of Algorithm 1 moves by about a fifth of its
#: median from one training seed to the next, so a seeded network would
#: bury any tightness change under network-to-network variation.
ZOO_SEED = 0

#: Dataset seed of the ``local-batch`` query population.  Fixed: the
#: cost of one query is heavy-tailed (a few samples per thousand split
#: for seconds), so with samples drawn from ``--seed`` the pass time moved
#: by 0.31 of its median across five seeds.  The seed orders the
#: population instead, which changes every batch's composition.
POPULATION_SEED = 0

#: The paper's certified input domain X = [0, 1]^7 (Auto MPG nets).
INPUT_DIM = 7


def _domain() -> Box:
    return Box.uniform(INPUT_DIM, 0.0, 1.0)


@dataclass
class Unit:
    """One timed call: ``run()`` returns whatever the checks need."""

    label: str
    run: Callable[[], object]


@dataclass
class UnitResult:
    label: str
    wall: float
    output: object = None
    error: str | None = None


@dataclass
class PassRecord:
    """One pass: unit walls interleaved with ``len(units) + 1`` slice walls."""

    units: list[UnitResult]
    slices: list[float] = field(default_factory=list)


class Alg1Workload:
    """Algorithm 1 certificates of fixed Table-1 networks."""

    def __init__(
        self, name: str, dnn_ids: tuple[int, ...], refine_count: int, calib_repeats: int
    ) -> None:
        self.name = name
        self.calib_repeats = calib_repeats
        #: Single-threaded: the run stays on one CPU with its slices.
        self.workers_per_unit = 1
        self.dnn_ids = dnn_ids
        self.refine_count = refine_count
        self.layers: dict[int, list] = {}
        self.delta = 0.0
        self.domain = _domain()

    def setup(self, seed: int, cache_dir: Path) -> None:
        """Train the networks into ``cache_dir``; ``seed`` only feeds the checks."""
        for dnn_id in self.dnn_ids:
            entry = get_network(dnn_id, cache_dir=cache_dir, seed=ZOO_SEED)
            self.layers[dnn_id] = entry.network.to_affine_layers()
            self.delta = entry.delta

    def units(self) -> list[Unit]:
        """One certificate per network, in-process."""

        def certify(dnn_id: int):
            return GlobalRobustnessCertifier(
                self.layers[dnn_id],
                CertifierConfig(window=2, refine_count=self.refine_count),
            ).certify(self.domain, self.delta)

        return [
            Unit(f"dnn{dnn_id}", lambda d=dnn_id: certify(d)) for dnn_id in self.dnn_ids
        ]


@dataclass
class BatchOutput:
    """What one ``BatchCertifier.run`` returned, with the engine's stats."""

    results: list
    presolve_stats: dict
    fault_stats: dict
    workers: int


class LocalBatchWorkload:
    """A stream of fixed-size batches of local ε-queries on DNN-5."""

    name = "local-batch"
    calib_repeats = 4
    workers_per_unit = 2
    dnn_id = 5
    queries = 1000
    batch = 100
    delta = 0.03
    #: ε targets as fractions of each query's root symbolic bound, cycled
    #: over the queries.  Below 1 the bounds alone cannot prove the
    #: target, so the presolve attack refutes the query or it goes to the
    #: split tier; 1.05 is proved by the bulk presolve.  With half the
    #: queries at 1.05 about two thirds are decided by the bulk presolve,
    #: so the median query is a presolve answer and the tail is the split
    #: tier (with a 50/50 mix the median sat on the boundary between the
    #: two and moved by 0.13 between runs).  Fractions at or below 0.7
    #: produce rare queries that split for seconds, which made pass time
    #: a lottery over the seed.
    fractions = (0.85, 1.05, 0.9, 1.05, 0.95, 1.05)

    def __init__(self) -> None:
        self.layers: list = []
        self.domain = _domain()
        self.centers = np.empty((0, INPUT_DIM))
        self.epsilons = np.empty(0)
        self.order = np.empty(0, dtype=int)
        self.tags: list[str] = []

    def setup(self, seed: int, cache_dir: Path) -> None:
        """Train DNN-5, build the query population and order it by ``seed``."""
        entry = get_network(self.dnn_id, cache_dir=cache_dir, seed=ZOO_SEED)
        self.layers = entry.network.to_affine_layers()
        self.centers, _ = load_auto_mpg(self.queries, seed=POPULATION_SEED)
        balls = [perturbation_ball(c, self.delta, self.domain) for c in self.centers]
        out = propagate_many("symbolic", self.layers, balls).output
        base = affine_chain_forward(self.layers, self.centers)
        root = np.maximum(np.abs(out.hi - base), np.abs(base - out.lo)).max(axis=1)
        frac = np.resize(np.asarray(self.fractions), self.queries)
        self.epsilons = frac * root
        self.order = np.random.default_rng(seed).permutation(self.queries)
        self.tags = [f"q{i}" for i in range(self.queries)]

    def make_queries(self, lo: int, hi: int) -> list[CertificationQuery]:
        """Fresh objects for positions ``lo:hi`` of the seeded order.

        Fresh because the engine marks the queries it has presolved.
        """
        return [
            CertificationQuery(
                kind="local-exact",
                layers=self.layers,
                delta=self.delta,
                center=self.centers[i],
                domain=self.domain,
                epsilon=float(self.epsilons[i]),
                split=True,
                tag=self.tags[i],
            )
            for i in self.order[lo:hi]
        ]

    def units(self, workers: int = workers_per_unit) -> list[Unit]:
        def submit(queries: list[CertificationQuery]) -> BatchOutput:
            engine = BatchCertifier(max_workers=workers)
            results = engine.run(queries)
            return BatchOutput(
                results, dict(engine.presolve_stats), dict(engine.fault_stats), workers
            )

        units = []
        for lo in range(0, self.queries, self.batch):
            queries = self.make_queries(lo, min(lo + self.batch, self.queries))
            units.append(Unit(f"batch{lo // self.batch}", lambda q=queries: submit(q)))
        return units


def make(name: str):
    """The named workload.

    ``calib_repeats`` sizes its calibration slices to the units: a slice
    much shorter than the unit beside it samples the host's speed too
    briefly to stand for the whole unit.  ``alg1-refine`` stops at 8
    runs (a twentieth of its units): its slices are taken about twenty
    times a run, and longer ones made it the slowest workload to run.
    """
    if name == "alg1-lp":
        return Alg1Workload(name, (3, 4, 5), refine_count=0, calib_repeats=6)
    if name == "alg1-refine":
        return Alg1Workload(name, (3, 4), refine_count=4, calib_repeats=8)
    if name == "local-batch":
        return LocalBatchWorkload()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("alg1-lp", "alg1-refine", "local-batch")
