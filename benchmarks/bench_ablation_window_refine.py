"""Experiment E7 (ablation) — window size W and refinement count r.

Algorithm 1 exposes two accuracy/cost knobs the paper fixes per dataset
(W=2 / half refined for Auto MPG; W=3 / 30 per layer for MNIST).  This
ablation quantifies both axes on a Table I network against the exact ε:
larger windows and more refinement must tighten monotonically, with
superlinear cost growth.
"""

import pytest

from repro.bounds import Box
from repro.certify import CertifierConfig, GlobalRobustnessCertifier, certify_exact_global
from repro.utils import format_table
from repro.zoo import get_network


@pytest.fixture(scope="module")
def setup():
    entry = get_network(2)  # 12 hidden neurons: exact still cheap
    box = Box.uniform(entry.network.input_dim, 0.0, 1.0)
    exact = certify_exact_global(entry.network, box, entry.delta)
    return entry, box, exact


def test_ablation_window(setup, report, json_report, benchmark):
    entry, box, exact = setup
    rows = []
    records = []
    eps_by_window = []
    certify_calls = {}
    for window in (1, 2, 3):
        cfg = CertifierConfig(window=window, refine_count=6)
        certify_calls[window] = lambda cfg=cfg: GlobalRobustnessCertifier(
            entry.network, cfg
        ).certify(box, entry.delta)
        cert = certify_calls[window]()
        eps_by_window.append(cert.epsilon)
        records.append(
            {"window": window, "epsilon": cert.epsilon,
             "solve_time_s": cert.solve_time}
        )
        rows.append(
            [
                window,
                f"{cert.epsilon:.5f}",
                f"{cert.epsilon / exact.epsilon:.2f}x",
                f"{cert.solve_time:.2f}s",
            ]
        )
    json_report(
        "ablation_window_refine",
        {"eps_exact": exact.epsilon, "window": records},
    )
    report(
        format_table(
            ["window W", "ε̄", "vs exact", "time"],
            rows,
            title=f"Ablation — window size (DNN-2, r=6, exact ε="
            f"{exact.epsilon:.5f}).  Deeper windows see past more "
            "decomposition boundaries and tighten the bound.",
        )
    )
    assert eps_by_window[2] <= eps_by_window[0] + 1e-9
    benchmark(certify_calls[1])


def test_ablation_refinement(setup, report, json_report, benchmark):
    entry, box, exact = setup
    rows = []
    records = []
    eps_by_refine = []
    for refine in (0, 2, 6, 12):
        cfg = CertifierConfig(window=2, refine_count=refine)
        cert = GlobalRobustnessCertifier(entry.network, cfg).certify(box, entry.delta)
        eps_by_refine.append(cert.epsilon)
        records.append(
            {"refine_count": refine, "epsilon": cert.epsilon,
             "solve_time_s": cert.solve_time,
             "solves": cert.lp_count + cert.milp_count}
        )
        rows.append(
            [
                refine,
                f"{cert.epsilon:.5f}",
                f"{cert.epsilon / exact.epsilon:.2f}x",
                f"{cert.solve_time:.2f}s",
                cert.lp_count + cert.milp_count,
            ]
        )
    json_report("ablation_window_refine", {"refinement": records})
    report(
        format_table(
            ["refined r", "ε̄", "vs exact", "time", "solves"],
            rows,
            title="Ablation — selective refinement (DNN-2, W=2).  "
            "Refinement trades binaries for tightness; r=0 is the pure "
            "LP pipeline.",
        )
    )
    assert eps_by_refine == sorted(eps_by_refine, reverse=True) or all(
        a >= b - 1e-9 for a, b in zip(eps_by_refine, eps_by_refine[1:])
    )

    benchmark(
        lambda: GlobalRobustnessCertifier(
            entry.network, CertifierConfig(window=2, refine_count=0)
        ).certify(box, entry.delta)
    )


def test_ablation_coupling(setup, report, json_report, benchmark):
    """The second-copy coupling constraints (an ITNE-enabled tightening)."""
    entry, box, exact = setup
    rows = []
    eps = {}
    records = []
    for coupled in (True, False):
        cfg = CertifierConfig(window=2, refine_count=0, couple_second_copy=coupled)
        cert = GlobalRobustnessCertifier(entry.network, cfg).certify(box, entry.delta)
        eps[coupled] = cert.epsilon
        records.append(
            {"coupled": coupled, "epsilon": cert.epsilon,
             "solve_time_s": cert.solve_time}
        )
        rows.append(
            ["on" if coupled else "off", f"{cert.epsilon:.5f}",
             f"{cert.epsilon / exact.epsilon:.2f}x", f"{cert.solve_time:.2f}s"]
        )
    json_report("ablation_window_refine", {"coupling": records})
    report(
        format_table(
            ["second-copy triangle", "ε̄", "vs exact", "time"],
            rows,
            title="Ablation — coupling the implicit second copy (DNN-2, "
            "W=2, r=0).",
        )
    )
    assert eps[True] <= eps[False] + 1e-9
    benchmark(
        lambda: GlobalRobustnessCertifier(
            entry.network,
            CertifierConfig(window=2, refine_count=0, couple_second_copy=False),
        ).certify(box, entry.delta)
    )
