"""Shared tolerance-aware float comparisons.

Every numeric comparison in the pipeline that is *tolerance-sensitive* —
i.e. whose correct answer survives floating-point jitter — must go
through these helpers instead of bare ``==``/``!=`` (lint rule RPR001).
Structural exact-zero checks (sparsity pruning, division guards) stay
exact and carry an inline ``# repro-lint: ignore[RPR001]`` waiver with a
written reason instead.

Two deliberately small primitives:

* :func:`near_zero` — ``|x| <= atol`` element-wise; scalar in, bool out.
* :func:`close` — symmetric absolute+relative closeness, the scalar/array
  analogue of ``math.isclose`` with repo-wide defaults.

The defaults (``ATOL``/``RTOL``) match the ``1e-9`` jitter budget already
used by :class:`repro.bounds.interval.Box` validation, so callers
normally pass no tolerance at all.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Default absolute tolerance (the repo-wide float-jitter budget).
ATOL: float = 1e-9

#: Default relative tolerance for :func:`close`.
RTOL: float = 1e-9


def near_zero(x: "float | np.ndarray", atol: float = ATOL) -> Any:
    """``|x| <= atol``, element-wise for arrays.

    Returns a python ``bool`` for scalar input and a boolean array for
    array input.

    Args:
        x: Scalar or array to test.
        atol: Absolute tolerance (must be ``>= 0``).
    """
    if atol < 0.0:
        raise ValueError(f"atol must be non-negative, got {atol}")
    result = np.abs(x) <= atol
    if np.ndim(result) == 0:
        return bool(result)
    return result


def close(
    a: "float | np.ndarray",
    b: "float | np.ndarray",
    rtol: float = RTOL,
    atol: float = ATOL,
) -> Any:
    """Symmetric tolerance-aware equality ``|a - b| <= atol + rtol*scale``.

    The scale is ``max(|a|, |b|)`` (symmetric, unlike ``np.isclose``
    whose default compares against ``|b|`` only), so ``close(a, b) ==
    close(b, a)`` always holds.  Infinities compare close only to an
    equal infinity; NaN is never close to anything.

    Returns a python ``bool`` for scalar input and a boolean array for
    array input.
    """
    if rtol < 0.0 or atol < 0.0:
        raise ValueError(f"tolerances must be non-negative, got rtol={rtol} atol={atol}")
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore"):
        scale = np.maximum(np.abs(a_arr), np.abs(b_arr))
        finite = np.isfinite(a_arr) & np.isfinite(b_arr)
        # Exact match is the definition of closeness for ±inf operands.
        same_inf = a_arr == b_arr
        diff_ok = np.abs(a_arr - b_arr) <= atol + rtol * scale
    result = np.where(finite, diff_ok, same_inf)
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return bool(result)
    return result
