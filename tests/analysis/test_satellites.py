"""Satellite fixes: repro.tol, Deadline, defensive copies, failure detail."""

import math
import time

import numpy as np
import pytest

from repro.tol import ATOL, close, near_zero
from repro.utils import Deadline


class TestNearZero:
    def test_scalar(self):
        assert near_zero(0.0)
        assert near_zero(ATOL / 2)
        assert not near_zero(1e-3)
        assert isinstance(near_zero(0.0), bool)

    def test_array(self):
        result = near_zero(np.array([0.0, 1e-12, 1.0]))
        assert result.tolist() == [True, True, False]

    def test_custom_atol(self):
        assert near_zero(0.5, atol=1.0)
        assert not near_zero(0.5, atol=0.1)

    def test_nan_and_inf_are_not_zero(self):
        assert not near_zero(float("nan"))
        assert not near_zero(float("inf"))


class TestClose:
    def test_symmetric_relative_scale(self):
        big = 1e12
        assert close(big, big * (1 + 1e-12))
        assert close(big * (1 + 1e-12), big)  # unlike a one-sided isclose
        assert not close(big, big * (1 + 1e-6))

    def test_infinities(self):
        assert close(math.inf, math.inf)
        assert close(-math.inf, -math.inf)
        assert not close(math.inf, -math.inf)
        assert not close(math.inf, 1e300)

    def test_nan_is_never_close(self):
        assert not close(math.nan, math.nan)
        assert not close(math.nan, 0.0)

    def test_array(self):
        result = close(
            np.array([1.0, math.inf, math.nan]),
            np.array([1.0 + 1e-12, math.inf, math.nan]),
        )
        assert result.tolist() == [True, True, False]


class TestDeadline:
    def test_unlimited(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired()

    def test_counts_down_monotonically(self):
        deadline = Deadline(30.0)
        first = deadline.remaining()
        time.sleep(0.01)
        second = deadline.remaining()
        assert 0 < second < first <= 30.0
        assert not deadline.expired()

    def test_expiry(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0  # clamped, never negative

    def test_at_classmethod(self):
        deadline = Deadline(5.0)
        clone = Deadline.at(deadline.expiry)
        assert clone.expiry == deadline.expiry
        assert Deadline(None).expiry is None


class TestDefensiveCopies:
    def test_box_does_not_alias_caller_arrays(self):
        from repro.bounds import Box

        lo, hi = np.zeros(3), np.ones(3)
        box = Box(lo, hi)
        lo[0] = -5.0
        hi[0] = 5.0
        assert box.lo[0] == 0.0 and box.hi[0] == 1.0

    def test_layerbounds_does_not_alias_caller_lists(self):
        from repro.bounds import Box
        from repro.bounds.propagator import LayerBounds

        y = [Box(np.zeros(2), np.ones(2))]
        x = [Box(np.zeros(2), np.ones(2))]
        bounds = LayerBounds(input_box=Box(np.zeros(1), np.ones(1)), y=y, x=x)
        y.append(Box(np.zeros(2), np.ones(2)))
        x.clear()
        assert bounds.num_layers == 1
        assert len(bounds.x) == 1

    def test_constraint_block_does_not_alias_caller_arrays(self):
        from repro.milp.model import ConstraintBlock

        data = np.array([1.0, 2.0])
        row = np.array([0, 0])
        col = np.array([0, 1])
        is_eq = np.array([False])
        rhs = np.array([3.0])
        block = ConstraintBlock(data, row, col, is_eq, rhs, "b")
        data[0] = 99.0
        rhs[0] = -1.0
        assert block.data[0] == 1.0
        assert block.rhs[0] == 3.0

    def test_constraint_block_copy_is_independent(self):
        from repro.milp.model import ConstraintBlock

        block = ConstraintBlock(
            np.array([1.0]), np.array([0]), np.array([0]),
            np.array([True]), np.array([2.0]), "b",
        )
        clone = block.copy()
        clone.data[0] = -1.0
        clone.rhs[0] = 0.0
        assert block.data[0] == 1.0 and block.rhs[0] == 2.0

    def test_constraint_block_validates_triplet_shapes(self):
        from repro.milp.model import ConstraintBlock

        with pytest.raises(ValueError):
            ConstraintBlock(
                np.array([1.0, 2.0]), np.array([0]), np.array([0, 1]),
                np.array([False]), np.array([3.0]), "b",
            )
        with pytest.raises(ValueError):
            ConstraintBlock(
                np.array([1.0]), np.array([0]), np.array([0]),
                np.array([False, True]), np.array([3.0]), "b",
            )


class TestBatchFailureDetail:
    def make_failing_query(self):
        from repro.nn.affine import AffineLayer
        from repro.runtime import CertificationQuery

        layers = [AffineLayer(np.ones((2, 3)), np.zeros(2), relu=False)]
        # Center dimension mismatch: blows up inside the worker.
        return CertificationQuery(
            kind="local-exact", layers=layers, delta=0.1,
            center=np.zeros(5), tag="broken",
        )

    def test_detail_captures_type_message_traceback(self):
        from repro.runtime import BatchCertifier, RetryPolicy
        from repro.runtime.batch import _execute_query, fan_out

        (outcome,) = fan_out(
            _execute_query, [self.make_failing_query()], 1, RetryPolicy()
        )
        assert outcome.value is None
        assert outcome.error is not None
        assert set(outcome.error) == {"error_type", "error_message", "traceback"}
        # The qualified class name of what the broad handler swallowed.
        assert "." in outcome.error["error_type"]
        assert "Traceback" in outcome.error["traceback"]
        (result,) = BatchCertifier(max_workers=1).run([self.make_failing_query()])
        assert not result.ok
        assert result.certificate is None
        assert result.detail is not None
        assert result.detail["traceback"] == result.error
        assert result.detail["error_type"] == outcome.error["error_type"]

    def test_detail_none_on_success(self):
        from repro.bounds import Box
        from repro.nn.affine import AffineLayer
        from repro.runtime import CertificationQuery, RetryPolicy
        from repro.runtime.batch import _execute_query, fan_out

        layers = [AffineLayer(np.ones((2, 3)), np.zeros(2), relu=False)]
        query = CertificationQuery(
            kind="local-exact", layers=layers, delta=0.05,
            center=np.full(3, 0.5), domain=Box.uniform(3, 0.0, 1.0),
        )
        (outcome,) = fan_out(_execute_query, [query], 1, RetryPolicy())
        assert outcome.lost is None and outcome.value is not None, outcome.error
        assert outcome.error is None and outcome.exc is None
