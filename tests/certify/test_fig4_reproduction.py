"""Integration test: reproduce the paper's Fig. 4 illustrating example.

The 2-2-1 network of Fig. 1, input domain X = [-1, 1]^2, δ = 0.1,
local center x0 = [0, 0].  Expected values are read straight off Fig. 4;
entries where our pipeline is provably tighter than the figure assert
the sound ordering (exact ≤ ours ≤ paper's figure) instead of equality.
The paper seeds its encodings with twin IBP; the certifiers here start
from the (never looser) symbolic bounds, so where the two differ the
figure's number is reproduced by handing the encoder an explicit
twin-IBP range table.
"""

import numpy as np
import pytest

from repro.bounds import Box, IBPPropagator
from repro.certify import (
    CertifierConfig,
    GlobalRobustnessCertifier,
    ReluplexStyleSolver,
    certify_exact_global,
    certify_local_exact,
    certify_local_lpr,
    certify_local_nd,
)
from repro.certify.comparisons import certify_global_btne_lpr, certify_global_btne_nd
from repro.encoding import encode_itne
from repro.nn.affine import AffineLayer


@pytest.fixture(scope="module")
def example():
    layers = [
        AffineLayer(np.array([[1.0, 0.5], [-0.5, 1.0]]), np.zeros(2), relu=True),
        AffineLayer(np.array([[1.0, -1.0]]), np.zeros(1), relu=True),
    ]
    return layers, Box.uniform(2, -1.0, 1.0), 0.1


class TestGlobalRows:
    def test_exact_milp(self, example):
        layers, box, delta = example
        cert = certify_exact_global(layers, box, delta)
        assert cert.epsilon == pytest.approx(0.2, abs=1e-6)
        assert cert.exact

    def test_exact_btne_encoding(self, example):
        layers, box, delta = example
        cert = certify_exact_global(layers, box, delta, encoding="btne")
        assert cert.epsilon == pytest.approx(0.2, abs=1e-6)

    def test_reluplex_style(self, example):
        layers, box, delta = example
        cert = ReluplexStyleSolver().certify(layers, box, delta)
        assert cert.epsilon == pytest.approx(0.2, abs=1e-6)
        assert cert.detail["nodes"] > 1  # actually case-split

    def test_itne_nd(self, example):
        """ITNE-ND row: Δx(1) = ±0.15, Δx(2) = ±0.3 (paper) / ±0.25 (ours)."""
        layers, box, delta = example
        cfg = CertifierConfig(window=1, refine_count=10**6)
        cert = GlobalRobustnessCertifier(layers, cfg).certify(box, delta)
        table = cert.detail["range_table"]
        assert table.layer(1).dx.lo == pytest.approx([-0.15, -0.15], abs=1e-6)
        assert table.layer(1).dx.hi == pytest.approx([0.15, 0.15], abs=1e-6)
        # The paper's layer-2 step: the exact depth-1 ITNE over x(1), Δx(1)
        # with twin-IBP ranges.
        x1, dx1 = table.layer(1).x, table.layer(1).dx
        ibp = IBPPropagator().propagate(layers[1:], x1, dx1).to_range_table()
        enc = encode_itne(layers[1:], x1, dx1, ranges=ibp)
        enc.model.set_objective(enc.dx[-1][0], sense="max")
        paper = enc.model.solve().require_optimal().objective
        assert paper == pytest.approx(0.3, abs=1e-6)
        # The symbolic seed already cuts Δx(2) to ±0.25, and Algorithm 1
        # keeps the tighter of the two.
        assert cert.epsilon == pytest.approx(0.25, abs=1e-6)
        assert 0.2 - 1e-9 <= cert.epsilon <= paper + 1e-6

    def test_itne_lpr(self, example):
        """ITNE-LPR: ours is ≤ the paper's 0.275 and ≥ the exact 0.2."""
        layers, box, delta = example
        cfg = CertifierConfig(window=2, refine_count=0)
        cert = GlobalRobustnessCertifier(layers, cfg).certify(box, delta)
        assert 0.2 - 1e-9 <= cert.epsilon <= 0.275 + 1e-6
        # x(2) range also sandwiched: exact 1.25 <= ours <= paper 1.44.
        x2 = cert.detail["range_table"].layer(2).x
        assert 1.25 - 1e-9 <= x2.hi[0] <= 1.44 + 1e-6

    def test_btne_nd_7x_looser(self, example):
        """BTNE-ND loses all distance info: ε = 1.5 (7.5× the exact 0.2)."""
        layers, box, delta = example
        cert = certify_global_btne_nd(layers, box, delta, window=1)
        assert cert.epsilon == pytest.approx(1.5, abs=1e-6)

    def test_btne_lpr_much_looser_than_itne(self, example):
        layers, box, delta = example
        btne = certify_global_btne_lpr(layers, box, delta)
        itne = GlobalRobustnessCertifier(
            layers, CertifierConfig(window=2, refine_count=0)
        ).certify(box, delta)
        # The interleaving distance variables buy at least 3x tightness here.
        assert btne.epsilon > 3.0 * itne.epsilon
        # And both remain sound w.r.t. the exact value.
        assert btne.epsilon >= 0.2 - 1e-9
        assert itne.epsilon >= 0.2 - 1e-9


class TestLocalRows:
    def test_local_exact(self, example):
        layers, box, delta = example
        cert = certify_local_exact(layers, np.zeros(2), delta, domain=box)
        assert cert.output_lo[0] == pytest.approx(0.0, abs=1e-7)
        assert cert.output_hi[0] == pytest.approx(0.125, abs=1e-6)

    def test_local_nd(self, example):
        layers, box, delta = example
        cert = certify_local_nd(layers, np.zeros(2), delta, window=1, domain=box)
        assert cert.output_hi[0] == pytest.approx(0.15, abs=1e-6)

    def test_local_lpr(self, example):
        layers, box, delta = example
        cert = certify_local_lpr(layers, np.zeros(2), delta, domain=box)
        assert cert.output_hi[0] == pytest.approx(0.14375, abs=1e-5)

    def test_local_ordering(self, example):
        """exact <= ND, exact <= LPR (over-approximations are sound)."""
        layers, box, delta = example
        exact = certify_local_exact(layers, np.zeros(2), delta, domain=box)
        nd = certify_local_nd(layers, np.zeros(2), delta, window=1, domain=box)
        lpr = certify_local_lpr(layers, np.zeros(2), delta, domain=box)
        assert exact.output_hi[0] <= nd.output_hi[0] + 1e-9
        assert exact.output_hi[0] <= lpr.output_hi[0] + 1e-9
