"""Mixed-integer linear programming modeling layer and solvers.

This package is the repository's substitute for Gurobi.  It provides a
small but complete modeling API (:class:`Var`, :class:`LinExpr`,
:class:`Constraint`, :class:`Model`) and one solver,
:mod:`repro.milp.scipy_backend`, which compiles a model to
``scipy.optimize.milp`` / ``scipy.optimize.linprog`` (HiGHS).  There is
no solver switch: ``Model.solve``, ``Model.solve_many`` and
:func:`open_session` all go straight to HiGHS.

Results follow one contract
(:func:`repro.milp.solution.finalize_user_sense`): objectives are
reported in the user's sense — including incumbents of time-limited
solves — and ``SolveResult.bound`` always carries a sound dual bound.
Constraint matrices export sparse (``Model.to_standard_form(sparse=True)``,
CSR from COO triplets); multi-objective batches reuse one export via
``Model.solve_many``.  The test-suite checks HiGHS against an exact
rational LP/MILP oracle.

Typical usage::

    from repro.milp import Model

    m = Model("example")
    x = m.add_var(lb=0.0, ub=10.0, name="x")
    z = m.add_var(vtype="binary", name="z")
    m.add_constr(x + 4 * z <= 8)
    m.set_objective(x + z, sense="max")
    result = m.solve()
    assert result.is_optimal
    print(result[x], result[z])
"""

from __future__ import annotations

from repro.milp.expr import LinExpr, Var, VType, as_expr
from repro.milp.model import Constraint, ConstraintBlock, Model, Sense
from repro.milp.solution import SolveResult, SolveStatus
from repro.milp.session import SolverSession, open_session

__all__ = [
    "Var",
    "VType",
    "LinExpr",
    "as_expr",
    "Constraint",
    "ConstraintBlock",
    "Model",
    "Sense",
    "SolveResult",
    "SolveStatus",
    "SolverSession",
    "open_session",
]
