"""REPRO_SANITIZE contracts: per-contract violation tests + hook wiring."""

import numpy as np
import pytest

from repro import _sanitize
from repro._sanitize import (
    SanitizerError,
    check_containment,
    check_finite,
    check_lp_feasible,
    check_stack_agreement,
    check_tiling,
    sanitizing,
)


class TestSwitch:
    def test_off_by_default_in_tests(self):
        # The tier-1 suite runs without REPRO_SANITIZE; the sanitized CI
        # step flips it.  Either way `sanitizing` must restore the state.
        before = _sanitize.ENABLED
        with sanitizing(True):
            assert _sanitize.ENABLED
        with sanitizing(False):
            assert not _sanitize.ENABLED
        assert _sanitize.ENABLED == before

    def test_restores_on_exception(self):
        before = _sanitize.ENABLED
        with pytest.raises(RuntimeError):
            with sanitizing(not before):
                raise RuntimeError("boom")
        assert _sanitize.ENABLED == before

    def test_error_is_assertion_subclass(self):
        assert issubclass(SanitizerError, AssertionError)


class TestContainment:
    def test_contained_passes(self):
        check_containment(
            np.array([0.1]), np.array([0.9]),
            np.array([0.0]), np.array([1.0]), "ok",
        )

    def test_escape_below_fails(self):
        with pytest.raises(SanitizerError, match="containment"):
            check_containment(
                np.array([-0.5]), np.array([0.9]),
                np.array([0.0]), np.array([1.0]), "below",
            )

    def test_escape_above_fails(self):
        with pytest.raises(SanitizerError, match="escapes"):
            check_containment(
                np.array([0.1]), np.array([2.0]),
                np.array([0.0]), np.array([1.0]), "above",
            )

    def test_tolerance_absorbs_roundoff(self):
        check_containment(
            np.array([-1e-12]), np.array([1.0 + 1e-12]),
            np.array([0.0]), np.array([1.0]), "jitter",
        )


class TestFinite:
    def test_finite_passes(self):
        check_finite("ok", c=np.ones(3), rhs=np.zeros(2), skipped=None)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_fails(self, bad):
        with pytest.raises(SanitizerError, match="finite"):
            check_finite("bad", c=np.array([1.0, bad]))

    def test_named_array_reported(self):
        with pytest.raises(SanitizerError, match="b_ub"):
            check_finite("bad", c=np.ones(2), b_ub=np.array([np.nan]))


class TestTiling:
    ROOT = (np.zeros(2), np.ones(2))

    def test_exact_tiling_passes(self):
        halves = [
            (np.array([0.0, 0.0]), np.array([0.5, 1.0])),
            (np.array([0.5, 0.0]), np.array([1.0, 1.0])),
        ]
        check_tiling(*self.ROOT, halves, "halves")

    def test_gap_fails(self):
        with pytest.raises(SanitizerError, match="cover"):
            check_tiling(
                *self.ROOT,
                [(np.array([0.0, 0.0]), np.array([0.5, 1.0]))],
                "gapped",
            )

    def test_escape_fails(self):
        with pytest.raises(SanitizerError, match="escapes"):
            check_tiling(
                *self.ROOT,
                [(np.array([0.0, 0.0]), np.array([1.5, 1.0]))],
                "escaped",
            )

    def test_empty_fails(self):
        with pytest.raises(SanitizerError, match="no terminal boxes"):
            check_tiling(*self.ROOT, [], "empty")

    def test_degenerate_root_dimension(self):
        root_lo, root_hi = np.array([0.0, 0.5]), np.array([1.0, 0.5])
        halves = [
            (np.array([0.0, 0.5]), np.array([0.5, 0.5])),
            (np.array([0.5, 0.5]), np.array([1.0, 0.5])),
        ]
        check_tiling(root_lo, root_hi, halves, "degenerate")


class TestLpStack:
    A_UB = np.array([[1.0, 1.0]])
    A_EQ = np.zeros((0, 2))

    def check(self, x):
        check_lp_feasible(
            np.asarray(x, dtype=float), self.A_UB, np.array([1.0]),
            self.A_EQ, np.zeros(0), np.zeros(2), np.array([1.0, np.inf]),
            "block",
        )

    def test_feasible_point_passes(self):
        self.check([0.5, 0.5])
        self.check([1.0 + 1e-8, 0.0])  # within the feasibility tolerance

    @pytest.mark.parametrize("x", [[0.8, 0.8], [-0.1, 0.0], [1.5, -0.6]])
    def test_infeasible_point_fails(self, x):
        with pytest.raises(SanitizerError, match="lp-stack"):
            self.check(x)

    def test_equality_rows_checked(self):
        with pytest.raises(SanitizerError, match="a_eq"):
            check_lp_feasible(
                np.array([0.2, 0.2]), np.zeros((0, 2)), np.zeros(0),
                np.array([[1.0, -1.0]]), np.array([0.5]),
                np.zeros(2), np.ones(2), "eq",
            )

    def test_agreement(self):
        check_stack_agreement("optimal", 1.0 + 1e-9, "optimal", 1.0, "ok")
        check_stack_agreement("infeasible", np.nan, "infeasible", np.nan, "ok")
        # A re-solve stopped by its limit proves nothing: skipped.
        check_stack_agreement("optimal", 5.0, "time_limit", np.nan, "skip")
        with pytest.raises(SanitizerError, match="objective"):
            check_stack_agreement("optimal", 1.001, "optimal", 1.0, "off")
        with pytest.raises(SanitizerError, match="status"):
            check_stack_agreement("infeasible", np.nan, "optimal", 1.0, "st")


# -- hook-site integration ----------------------------------------------------


def small_chain(seed=0, depth=3):
    from repro.nn.affine import AffineLayer

    rng = np.random.default_rng(seed)
    dims = [3] + [4] * (depth - 1) + [2]
    return [
        AffineLayer(
            rng.standard_normal((dims[i + 1], dims[i])) / np.sqrt(dims[i]),
            0.2 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


class TestHookSites:
    def test_symbolic_containment_hook_passes_on_sound_engine(self):
        from repro.bounds import Box, SymbolicPropagator

        layers = small_chain()
        with sanitizing():
            bounds = SymbolicPropagator().propagate(
                layers, Box.uniform(3, 0.0, 1.0), 0.05
            )
        assert bounds.method == "symbolic"

    def test_standard_form_finite_hook_catches_poisoned_block(self):
        from repro.milp import Model

        model = Model("poisoned")
        x = model.add_var(lb=0.0, ub=1.0)
        y = model.add_var(lb=0.0, ub=1.0)
        block = model.add_linear_rows(
            np.array([[1.0, 2.0]]), "<=", np.array([1.0])
        )
        # Simulate an encoding bug: corrupt the block *after* ingestion
        # validation (the sanitizer is the last line of defense).
        block.data[0] = np.inf
        model.set_objective(x + y, "min")
        with sanitizing():
            with pytest.raises(SanitizerError, match="finite"):
                model.to_standard_form()
        # Off-mode: no check, the poisoned export goes through.
        with sanitizing(False):
            model.to_standard_form()

    def test_split_tiling_hook_passes_on_real_run(self):
        from repro.bounds import Box
        from repro.certify import SplitConfig, certify_local_split

        layers = small_chain(seed=3)
        with sanitizing():
            cert = certify_local_split(
                layers,
                np.array([0.4, 0.6, 0.5]),
                0.05,
                1e6,
                domain=Box.uniform(3, 0.0, 1.0),
                config=SplitConfig(max_depth=2),
            )
        assert cert.verdict == "certified"

    @staticmethod
    def _stacked_model():
        from repro.milp import Model

        model = Model("stack")
        x = model.add_var(lb=0.0, ub=2.0)
        y = model.add_var(lb=-1.0, ub=2.0)
        model.add_constr(x + y <= 2.0)
        model.add_constr(x - 2.0 * y >= -3.0)
        objectives = [(x, "max"), (y, "min"), (x + y, "max"), (x - y, "min")]
        return model, objectives

    def test_stacked_session_passes_clean_under_sanitizer(self):
        from repro.milp import open_session

        model, objectives = self._stacked_model()
        with sanitizing(), open_session(model) as session:
            assert session.objectives_per_stack() >= len(objectives)
            results = session.solve_objectives(objectives)
        assert [r.objective for r in results] == pytest.approx(
            [2.0, -1.0, 2.0, -1.5]
        )

    @pytest.mark.parametrize(
        "corrupt,contract",
        [
            # a block read back at the wrong offset: not a feasible point
            (lambda r: setattr(r, "values", r.values + 5.0), "violates"),
            # a value that is not the block's own optimum
            (lambda r: setattr(r, "objective", r.objective - 0.5), "objective"),
        ],
    )
    def test_stack_hook_catches_corruption(self, corrupt, contract):
        from unittest import mock

        from repro.milp import open_session
        from repro.milp.scipy_backend import ScipyBackend

        real = ScipyBackend.solve_lp_stack

        def corrupted(backend, *args):
            results = real(backend, *args)
            for result in results:
                corrupt(result)
            return results

        model, objectives = self._stacked_model()
        with open_session(model) as session, mock.patch.object(
            ScipyBackend, "solve_lp_stack", corrupted
        ):
            with sanitizing():
                with pytest.raises(SanitizerError, match=contract):
                    session.solve_objectives(objectives)
            with sanitizing(False):
                session.solve_objectives(objectives)  # off: no check
