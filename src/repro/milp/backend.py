"""Backend registry for the MILP solver layer.

Backends are registered as :class:`BackendSpec` entries keyed by name,
each declaring the variants it accepts after a ``:`` in the name.  This
mirrors the :mod:`repro.bounds.propagator` registry:
:func:`register_backend` is the third-party entry point and
:func:`get_backend` resolves names (and passes instances through).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.milp.branch_bound import BranchBoundBackend
from repro.milp.scipy_backend import ScipyBackend


@dataclass(frozen=True)
class BackendSpec:
    """One registry entry: a named backend factory and its variants.

    Attributes:
        name: Registry key (the part before ``:`` in backend strings).
        factory: Callable ``variant -> backend instance`` (``variant`` is
            ``None`` when the plain name was requested).
        variants: Accepted ``:variant`` suffixes.
    """

    name: str
    factory: Callable[[str | None], object]
    variants: tuple[str, ...] = ()


#: Registered backends by base name.
_REGISTRY: dict[str, BackendSpec] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Register ``spec`` under ``spec.name`` (last write wins).

    Third-party solvers plug in here: the factory must return an object
    with ``solve(model, time_limit=None, mip_gap=None) -> SolveResult``.
    An optional ``open_session(model)`` method returning a
    :class:`~repro.milp.session.SolverSession` puts the backend on the
    export-once path of :meth:`~repro.milp.model.Model.solve_many`;
    without it, ``solve_many`` solves one objective at a time.
    """
    _REGISTRY[spec.name] = spec
    return spec


def available_backends() -> list[str]:
    """Sorted base names accepted by :func:`get_backend`."""
    return sorted(_REGISTRY)


def backend_spec(name: str) -> BackendSpec:
    """Look up the :class:`BackendSpec` for a base name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from exc


def _split_name(name: str) -> tuple[BackendSpec, str | None]:
    base, _, variant = name.partition(":")
    spec = backend_spec(base)
    if variant and variant not in spec.variants:
        supported = ", ".join(spec.variants) if spec.variants else "none"
        raise ValueError(
            f"backend {base!r} does not support variant {variant!r} "
            f"(supported: {supported})"
        )
    return spec, variant or None


def get_backend(name: "str | object" = "scipy") -> object:
    """Resolve a backend: a registry name or an instance (passed through).

    Args:
        name: ``"base"`` or ``"base:variant"`` — e.g. ``"scipy"``,
            ``"highs"``, ``"python"``, ``"python:simplex"`` — or an
            already-constructed backend object, returned unchanged.

    Raises:
        ValueError: Unknown base name, or a ``:variant`` suffix the
            backend does not support (``"scipy:simplex"`` is an error,
            not a silently ignored suffix).
    """
    if not isinstance(name, str):
        return name
    spec, variant = _split_name(name)
    return spec.factory(variant)


register_backend(BackendSpec(name="scipy", factory=lambda variant: ScipyBackend()))
# A real registry entry (not a dict-alias of "scipy"), so the two names
# can diverge.
register_backend(BackendSpec(name="highs", factory=lambda variant: ScipyBackend()))
register_backend(
    BackendSpec(
        name="python",
        factory=lambda variant: BranchBoundBackend(lp_solver=variant or "highs"),
        variants=("highs", "simplex"),
    )
)
