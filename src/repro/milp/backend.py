"""Solver backend resolution for the MILP layer.

HiGHS, through ``scipy.optimize``, is the one solver backend.
:func:`get_backend` maps its names to a :class:`ScipyBackend` and
passes backend instances through unchanged.
"""

from __future__ import annotations

from typing import cast

from repro.milp.scipy_backend import ScipyBackend

#: Names :func:`get_backend` accepts; both give :class:`ScipyBackend`.
BACKEND_NAMES = ("scipy", "highs")


def get_backend(name: "str | object" = "scipy") -> ScipyBackend:
    """Resolve a backend: ``"scipy"``/``"highs"``, or an instance.

    Args:
        name: ``"scipy"`` or ``"highs"`` (both HiGHS through
            ``scipy.optimize``), or an already-constructed backend
            object, returned unchanged.

    Raises:
        ValueError: Any other name.
    """
    if not isinstance(name, str):
        return cast(ScipyBackend, name)  # typed as the backend it stands in for
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; available: {list(BACKEND_NAMES)}"
        )
    return ScipyBackend()
