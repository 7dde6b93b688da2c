"""Property-based tests: HiGHS agrees with the exact rational oracle.

The oracle has no tolerance; HiGHS works to a primal feasibility
tolerance of τ = 1e-7.  So HiGHS is held to a sandwich: an LP still
infeasible with every row and bound loosened by τ must be reported
infeasible, an LP still feasible with everything tightened by τ must be
reported optimal, and an optimum must lie (within 1e-6) between the
loosened and the tightened exact optima.
"""

import math
from fractions import Fraction

import numpy as np
from exact_oracle import OPTIMAL, q, solve_exact
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.milp import Model, SolveStatus

#: HiGHS's primal feasibility tolerance.
TAU = Fraction(1, 10**7)


@st.composite
def lp_instances(draw):
    """Random bounded LPs: min c.x s.t. A x <= b, l <= x <= u."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=4))
    fl = st.floats(min_value=-3, max_value=3, allow_nan=False, width=32)
    c = np.array(draw(st.lists(fl, min_size=n, max_size=n)))
    a = np.array(
        draw(st.lists(st.lists(fl, min_size=n, max_size=n), min_size=m, max_size=m))
    ).reshape(m, n)
    b = np.array(draw(st.lists(fl, min_size=m, max_size=m)))
    bounds = []
    for _ in range(n):
        lo = draw(st.floats(min_value=-4, max_value=0, allow_nan=False, width=32))
        hi = draw(st.floats(min_value=0, max_value=4, allow_nan=False, width=32))
        bounds.append((lo, hi))
    return c, a, b, bounds


def exact_shifted(c, a, b, bounds, by):
    """The exact LP with every row and bound loosened by ``by`` (< 0: tightened)."""
    n = len(bounds)
    return solve_exact(
        c, a, [q(v) + by for v in b], np.zeros((0, n)), [],
        [(q(lo) - by, q(hi) + by) for lo, hi in bounds],
    )


# x₁ − x₂ ≤ −1 forces x₂ = 1, which violates 5.96e-8·x₂ ≤ −1.18e-38 by
# 5.96e-8: inside τ, so either answer is admissible.  A float simplex
# once pivoted on the 5.96e-8 and left x₂ = −1 while reporting optimal.
_TINY_PIVOT = (
    np.array([[1.0, -1.0], [0.0, 5.96e-8]]),
    np.array([-1.0, -1.1754943508222875e-38]),
    [(0.0, 0.0), (0.0, 1.0)],
)


@given(lp_instances())
@example((np.array([0.0, 1.0]), *_TINY_PIVOT))
@example((np.array([0.0, 0.0]), *_TINY_PIVOT))
@example((np.array([1.0, -1.0]), *_TINY_PIVOT))
@settings(max_examples=60, deadline=None)
def test_highs_matches_exact(instance):
    c, a, b, bounds = instance
    model = Model()
    xs = model.add_vars_array(
        len(bounds), lb=[lo for lo, _ in bounds], ub=[hi for _, hi in bounds]
    )
    if a.shape[0]:
        model.add_linear_rows(a, "<=", b)
    model.set_objective(sum(float(cj) * x for cj, x in zip(c, xs)))
    highs = model.solve()
    loose = exact_shifted(c, a, b, bounds, TAU)
    tight = exact_shifted(c, a, b, bounds, -TAU)
    if loose.status != OPTIMAL:
        assert highs.status is SolveStatus.INFEASIBLE
    if tight.status == OPTIMAL:
        assert highs.status is SolveStatus.OPTIMAL
    if highs.status is SolveStatus.OPTIMAL:
        assert model.check_feasible(highs.values, tol=float(TAU))
        upper = float(tight.objective) if tight.status == OPTIMAL else math.inf
        assert float(loose.objective) - 1e-6 <= highs.objective <= upper + 1e-6
    else:
        assert highs.status is SolveStatus.INFEASIBLE
