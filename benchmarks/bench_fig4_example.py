"""Experiment E1/E2 — regenerate Fig. 4 (the illustrating example).

Reproduces both halves of the paper's Fig. 4 on the 2-2-1 network of
Fig. 1: local robustness around x0 = [0, 0] (exact / ND / LPR) and
global robustness over X = [-1, 1]^2 (exact, and ND/LPR under both BTNE
and ITNE), with δ = 0.1.
"""

import numpy as np
import pytest

from repro.bounds import Box
from repro.certify import (
    CertifierConfig,
    GlobalRobustnessCertifier,
    certify_exact_global,
    certify_local_exact,
    certify_local_lpr,
    certify_local_nd,
)
from repro.certify.comparisons import certify_global_btne_lpr, certify_global_btne_nd
from repro.nn.affine import AffineLayer
from repro.utils import format_table


@pytest.fixture(scope="module")
def example():
    layers = [
        AffineLayer(np.array([[1.0, 0.5], [-0.5, 1.0]]), np.zeros(2), relu=True),
        AffineLayer(np.array([[1.0, -1.0]]), np.zeros(1), relu=True),
    ]
    return layers, Box.uniform(2, -1.0, 1.0), 0.1


def _rng(lo, hi):
    return f"[{lo:.4g}, {hi:.4g}]"


def test_fig4_local(example, report, json_report, benchmark):
    layers, box, delta = example
    x0 = np.zeros(2)

    exact = certify_local_exact(layers, x0, delta, domain=box)
    nd = certify_local_nd(layers, x0, delta, window=1, domain=box)
    lpr = benchmark(lambda: certify_local_lpr(layers, x0, delta, domain=box))

    json_report(
        "fig4_example",
        {
            "local": {
                cert.method: {
                    "output_lo": float(cert.output_lo[0]),
                    "output_hi": float(cert.output_hi[0]),
                    "solve_time_s": cert.solve_time,
                }
                for cert in (exact, nd, lpr)
            }
        },
    )
    rows = [
        ["Exact (MILP)", _rng(exact.output_lo[0], exact.output_hi[0]), "[0, 0.125]"],
        ["ND", _rng(nd.output_lo[0], nd.output_hi[0]), "[0, 0.15]"],
        ["LPR", _rng(lpr.output_lo[0], lpr.output_hi[0]), "[0, 0.144]"],
    ]
    report(
        format_table(
            ["method", "x̂(2) range (ours)", "paper Fig. 4"],
            rows,
            title="Fig. 4 — LOCAL robustness of the illustrating example "
            "(x0=[0,0], δ=0.1)",
        )
    )
    assert exact.output_hi[0] == pytest.approx(0.125, abs=1e-6)


def test_fig4_global(example, report, json_report, benchmark):
    layers, box, delta = example

    exact = certify_exact_global(layers, box, delta)
    itne_nd = GlobalRobustnessCertifier(
        layers, CertifierConfig(window=1, refine_count=10**6)
    ).certify(box, delta)
    itne_lpr = benchmark(
        lambda: GlobalRobustnessCertifier(
            layers, CertifierConfig(window=2, refine_count=0)
        ).certify(box, delta)
    )
    btne_nd = certify_global_btne_nd(layers, box, delta, window=1)
    btne_lpr = certify_global_btne_lpr(layers, box, delta)

    json_report(
        "fig4_example",
        {
            "global": {
                cert.method: {
                    "epsilon": cert.epsilon,
                    "solve_time_s": cert.solve_time,
                }
                for cert in (exact, itne_nd, itne_lpr, btne_nd, btne_lpr)
            }
        },
    )

    def ratio(eps):
        return f"{eps / exact.epsilon:.2f}x"

    rows = [
        ["Exact (MILP)", f"{exact.epsilon:.4g}", "1.00x", "0.2 (1x)"],
        ["BTNE + ND", f"{btne_nd.epsilon:.4g}", ratio(btne_nd.epsilon), "1.5 (7.5x)"],
        ["BTNE + LPR", f"{btne_lpr.epsilon:.4g}", ratio(btne_lpr.epsilon), "2.85 (10.9x*)"],
        ["ITNE + ND", f"{itne_nd.epsilon:.4g}", ratio(itne_nd.epsilon), "0.3 (1.5x)"],
        ["ITNE + LPR", f"{itne_lpr.epsilon:.4g}", ratio(itne_lpr.epsilon), "0.275 (1.38x)"],
    ]
    report(
        format_table(
            ["method", "ε (ours)", "over-approx", "paper Fig. 4"],
            rows,
            title="Fig. 4 — GLOBAL robustness of the illustrating example "
            "(X=[-1,1]^2, δ=0.1).  (*our BTNE-LPR is tighter than the "
            "paper's because both copies use layer-wise LP bounds; the "
            "BTNE≫ITNE looseness gap is preserved)",
        )
    )
    assert exact.epsilon == pytest.approx(0.2, abs=1e-6)
    # The paper seeds with twin IBP (0.3); the symbolic seed gives 0.25.
    assert itne_nd.epsilon == pytest.approx(0.25, abs=1e-6)
    assert exact.epsilon - 1e-9 <= itne_lpr.epsilon <= 0.275 + 1e-6
    # ITNE must beat BTNE by a wide margin (the paper's core message).
    assert btne_nd.epsilon / itne_nd.epsilon > 3.0
    assert btne_lpr.epsilon / itne_lpr.epsilon > 3.0
