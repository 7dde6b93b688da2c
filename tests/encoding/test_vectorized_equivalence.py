"""Vectorized (block) encoders vs the per-neuron reference assembly.

Both paths must produce the *same formulation*: identical variables (in
creation order) and identical constraint coefficients.  Constraint rows
may land in a different order (blocks vs one-at-a-time appends), so the
standard-form matrices are compared after a canonical row sort — the
values themselves must match bit for bit.
"""

import numpy as np
import pytest

from repro.bounds import Box
from repro.bounds.ranges import RangeTable
from repro.encoding import (
    encode_btne,
    encode_first_copy,
    encode_itne,
    encode_single_network,
)
from repro.milp.expr import as_expr
from repro.nn.affine import AffineLayer


def random_chain(rng, depth=3, width=5, in_dim=3, out_dim=2):
    dims = [in_dim] + [width] * (depth - 1) + [out_dim]
    return [
        AffineLayer(
            rng.standard_normal((dims[i + 1], dims[i])),
            0.2 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


def canonical_standard_form(model):
    """Dense standard form with (A|b) rows sorted lexicographically."""
    c, a_ub, b_ub, a_eq, b_eq, bounds, integrality = model.to_standard_form()

    def sort_rows(a, b):
        stacked = np.hstack([a, b[:, None]])
        return stacked[np.lexsort(stacked.T[::-1])]

    return c, sort_rows(a_ub, b_ub), sort_rows(a_eq, b_eq), np.array(bounds), integrality


def assert_same_formulation(model_vec, model_ref):
    assert [v.name for v in model_vec.variables] == [
        v.name for v in model_ref.variables
    ]
    assert [(v.lb, v.ub, v.vtype) for v in model_vec.variables] == [
        (v.lb, v.ub, v.vtype) for v in model_ref.variables
    ]
    got = canonical_standard_form(model_vec)
    want = canonical_standard_form(model_ref)
    for part_got, part_want in zip(got, want):
        assert part_got.shape == part_want.shape
        assert np.array_equal(part_got, part_want)  # bit-identical values


@pytest.fixture(scope="module")
def chain():
    return random_chain(np.random.default_rng(11))


@pytest.fixture(scope="module")
def box():
    return Box.uniform(3, -1.0, 1.0)


class TestMatrixEquivalence:
    def test_single_exact(self, chain, box):
        assert_same_formulation(
            encode_single_network(chain, box, vectorized=True).model,
            encode_single_network(chain, box, vectorized=False).model,
        )

    def test_single_mixed_relaxation(self, chain, box):
        rng = np.random.default_rng(3)
        mask = [rng.random(l.out_dim) < 0.5 for l in chain]
        assert_same_formulation(
            encode_single_network(chain, box, relax_mask=mask, vectorized=True).model,
            encode_single_network(chain, box, relax_mask=mask, vectorized=False).model,
        )

    def test_itne_exact(self, chain, box):
        assert_same_formulation(
            encode_itne(chain, box, 0.05, vectorized=True).model,
            encode_itne(chain, box, 0.05, vectorized=False).model,
        )

    def test_itne_partial_refinement(self, chain, box):
        rng = np.random.default_rng(5)
        mask = [rng.random(l.out_dim) < 0.5 for l in chain]
        assert_same_formulation(
            encode_itne(chain, box, 0.05, refine_mask=mask, vectorized=True).model,
            encode_itne(chain, box, 0.05, refine_mask=mask, vectorized=False).model,
        )

    def test_itne_pure_lp(self, chain, box):
        mask = [np.zeros(l.out_dim, dtype=bool) for l in chain]
        for couple in (True, False):
            assert_same_formulation(
                encode_itne(
                    chain, box, 0.05, refine_mask=mask,
                    couple_second_copy=couple, vectorized=True,
                ).model,
                encode_itne(
                    chain, box, 0.05, refine_mask=mask,
                    couple_second_copy=couple, vectorized=False,
                ).model,
            )

    def test_itne_no_clip(self, chain, box):
        assert_same_formulation(
            encode_itne(chain, box, 0.05, clip_second_input=False, vectorized=True).model,
            encode_itne(chain, box, 0.05, clip_second_input=False, vectorized=False).model,
        )

    def test_first_copy_partial_refinement(self, chain, box):
        rng = np.random.default_rng(7)
        mask = [rng.random(l.out_dim) < 0.5 for l in chain]
        ranges = RangeTable.from_interval_propagation(chain, box, 0.05)
        assert_same_formulation(
            encode_first_copy(chain, box, ranges, refine_mask=mask, vectorized=True).model,
            encode_first_copy(chain, box, ranges, refine_mask=mask, vectorized=False).model,
        )

    def test_first_copy_variables_are_the_itne_first_copy(self, chain, box):
        """Same names, bounds and types as the ITNE model's first copy."""
        rng = np.random.default_rng(9)
        mask = [rng.random(l.out_dim) < 0.5 for l in chain]
        ranges = RangeTable.from_interval_propagation(chain, box, 0.05)
        first = encode_first_copy(chain, box, ranges, refine_mask=mask).model
        itne = encode_itne(chain, box, 0.05, ranges=ranges, refine_mask=mask).model
        twin = {v.name: (v.lb, v.ub, v.vtype) for v in itne.variables}
        assert all(twin[v.name] == (v.lb, v.ub, v.vtype) for v in first.variables)
        assert first.num_binary < itne.num_binary

    def test_btne(self, chain, box):
        assert_same_formulation(
            encode_btne(chain, box, 0.05, vectorized=True).model,
            encode_btne(chain, box, 0.05, vectorized=False).model,
        )

    def test_many_seeds_itne(self, box):
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            chain = random_chain(rng, depth=2 + seed % 2, width=4)
            mask = [rng.random(l.out_dim) < 0.4 for l in chain]
            assert_same_formulation(
                encode_itne(chain, box, 0.03, refine_mask=mask, vectorized=True).model,
                encode_itne(chain, box, 0.03, refine_mask=mask, vectorized=False).model,
            )


class TestSolveEquivalence:
    def test_itne_optima_agree(self, chain, box):
        hi = []
        for vectorized in (True, False):
            enc = encode_itne(chain, box, 0.05, vectorized=vectorized)
            enc.model.set_objective(as_expr(enc.output_distance[0]), sense="max")
            hi.append(enc.model.solve().require_optimal().objective)
        assert hi[0] == pytest.approx(hi[1], abs=1e-7)

    def test_single_optima_agree(self, chain, box):
        vals = []
        for vectorized in (True, False):
            enc = encode_single_network(chain, box, vectorized=vectorized)
            enc.model.set_objective(as_expr(enc.output[0]), sense="min")
            vals.append(enc.model.solve().require_optimal().objective)
        assert vals[0] == pytest.approx(vals[1], abs=1e-7)
