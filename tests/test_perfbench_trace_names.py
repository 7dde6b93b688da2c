"""The end-to-end benchmark's traced entry points still exist and are called.

``perfbench`` wraps named functions of the package (``SolverSession.solve``,
``ScipyBackend._solve_std``, the certifier's layer loop, ...) to build its
per-layer breakdown; a renamed or deleted one silently reads 0 there, and
so does one the certifier no longer routes through.
"""

import numpy as np
import pytest

from perfbench.trace import Tracer, installed
from repro.bounds import Box, get_propagator
from repro.certify import (
    CertifierConfig,
    GlobalRobustnessCertifier,
    certify_exact_global,
    certify_local_exact,
)
from repro.certify.presolve import perturbation_ball, variation_from_reference
from repro.nn.affine import AffineLayer, affine_chain_forward
from repro.runtime import BatchCertifier, local_queries


def test_every_traced_name_resolves():
    with installed(Tracer()) as missing:
        assert missing == []


@pytest.fixture(scope="module")
def layers():
    rng = np.random.default_rng(0)
    return [
        AffineLayer(
            0.5 * rng.standard_normal((4, 3)), 0.1 * rng.standard_normal(4), relu=True
        ),
        AffineLayer(
            0.5 * rng.standard_normal((2, 4)), 0.1 * rng.standard_normal(2), relu=False
        ),
    ]


def traced_chains(run) -> set[tuple[str, ...]]:
    """Root-to-span name paths of every span recorded while ``run()`` runs."""
    tracer = Tracer()
    with installed(tracer) as missing:
        assert missing == []
        tracer.active = True
        try:
            run()
        finally:
            tracer.active = False
    chains = set()
    for span in tracer.spans:
        chain = [span.name]
        while span.parent >= 0:
            span = tracer.spans[span.parent]
            chain.append(span.name)
        chains.add(tuple(reversed(chain)))
    return chains


class TestTracedBoundsSpans:
    def test_algorithm1_propagates_through_traced_engines(self, layers):
        box = Box.uniform(3, 0.0, 1.0)
        chains = traced_chains(
            lambda: GlobalRobustnessCertifier(
                layers, CertifierConfig(window=2, bounds="symbolic")
            ).certify(box, 0.01)
        )
        # SymbolicPropagator.propagate runs IBPPropagator.propagate inside.
        assert ("certify.alg1", "bounds.propagate", "bounds.propagate") in chains

    def test_bulk_presolve_batch_nests_propagate_many(self, layers):
        centers = np.random.default_rng(1).random((4, 3))
        chains = traced_chains(
            lambda: BatchCertifier(max_workers=1).run(
                local_queries(layers, centers, 0.01, epsilon=1e6)
            )
        )
        # presolve_many -> propagate_many -> Symbolic -> IBP propagate_many.
        assert (
            "runtime.run", "certify.presolve", "bounds.propagate_many",
            "bounds.propagate_many", "bounds.propagate_many",
        ) in chains

    def test_lone_query_presolves_in_worker_with_scalar_spans(self, layers):
        centers = np.random.default_rng(2).random((1, 3))
        chains = traced_chains(
            lambda: BatchCertifier(max_workers=1).run(
                local_queries(layers, centers, 0.01, epsilon=1e6)
            )
        )
        assert (
            "runtime.run", "certify.presolve", "bounds.propagate",
            "bounds.propagate",
        ) in chains
        assert not any("bounds.propagate_many" in chain for chain in chains)


class TestTracedSolveSpans:
    def test_split_leaves_encode_and_solve_inside_the_run(self):
        # A net/δ/ε setting whose split query reaches 2 MILP leaves at
        # depth 1 (ε between the exact value and the root bound).
        rng = np.random.default_rng(11)
        dims = [3, 5, 5, 2]
        net = [
            AffineLayer(
                1.5 * rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
                0.2 * rng.standard_normal(dims[i + 1]),
                relu=i < 2,
            )
            for i in range(3)
        ]
        domain = Box.uniform(3, 0.0, 1.0)
        center = np.array([0.4, 0.6, 0.5])
        delta = 0.1
        exact = certify_local_exact(net, center, delta, domain=domain)
        ball = perturbation_ball(center, delta, domain)
        root = get_propagator("symbolic").propagate(net, ball).output
        root_ub = float(variation_from_reference(
            root.lo, root.hi, affine_chain_forward(net, center)
        ).max())
        results = []
        chains = traced_chains(
            lambda: results.extend(BatchCertifier(max_workers=1).run(
                local_queries(
                    net, center[None], delta, domain=domain, split=True,
                    split_depth=1, epsilon=0.5 * (exact.epsilon + root_ub),
                )
            ))
        )
        assert results[0].certificate.detail["milp_leaves"] == 2
        for leaf in ("encoding.single", "milp.export", "milp.solve"):
            assert ("runtime.run", "certify.split", leaf) in chains

    def test_exact_global_solves_are_traced(self, layers):
        chains = traced_chains(
            lambda: certify_exact_global(layers, Box.uniform(3, 0.0, 1.0), 0.05)
        )
        assert ("milp.export",) in chains
        assert ("milp.solve",) in chains
