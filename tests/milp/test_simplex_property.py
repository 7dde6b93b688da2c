"""Property-based tests: the dense simplex agrees with HiGHS."""

import math

import numpy as np
import scipy.optimize as sopt
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.milp.simplex import solve_lp


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


@given(lp_instances())
@settings(max_examples=60, deadline=None)
def test_simplex_matches_highs(instance):
    c, a, b, bounds = instance
    n = len(bounds)
    ref = sopt.linprog(
        c,
        A_ub=a if a.shape[0] else None,
        b_ub=b if a.shape[0] else None,
        bounds=bounds,
        method="highs",
    )
    mine = solve_lp(c, a, b, np.zeros((0, n)), np.zeros(0), bounds)
    if ref.status == 0:
        assert mine.status.value == "optimal"
        assert math.isclose(mine.objective, ref.fun, rel_tol=1e-6, abs_tol=1e-6)
    elif ref.status == 2:
        assert mine.status.value == "infeasible"


# Pivoting on the 5.96e-8 coefficient once left a basic variable at -1
# while the solver still reported "optimal" (bound or row 1 violated by 1).
_TINY_PIVOT = (
    np.array([[1.0, -1.0], [0.0, 5.96e-8]]),
    np.array([-1.0, -1.1754943508222875e-38]),
    [(0.0, 0.0), (0.0, 1.0)],
)


@given(lp_instances())
@example((np.array([0.0, 0.0]), *_TINY_PIVOT))
@example((np.array([1.0, -1.0]), *_TINY_PIVOT))
@settings(max_examples=40, deadline=None)
def test_simplex_solution_is_feasible(instance):
    c, a, b, bounds = instance
    n = len(bounds)
    mine = solve_lp(c, a, b, np.zeros((0, n)), np.zeros(0), bounds)
    if mine.status.value != "optimal":
        return
    x = mine.x
    tol = 1e-7
    for j, (lo, hi) in enumerate(bounds):
        assert lo - tol <= x[j] <= hi + tol
    if a.shape[0]:
        assert np.all(a @ x <= b + tol)
