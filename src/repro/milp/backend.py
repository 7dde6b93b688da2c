"""Capability-based backend registry for the MILP solver layer.

Backends are registered as :class:`BackendSpec` entries keyed by name,
each declaring a set of :class:`Capability` flags (what the solver —
and its :class:`~repro.milp.session.SolverSession` — can do) and the
variants it accepts after a ``:`` in the name.  This mirrors the
:mod:`repro.bounds.propagator` registry: :func:`register_backend` is the
third-party entry point, :func:`get_backend` resolves names (and passes
instances through), and :func:`find_backend` walks the registry in
registration order to give a *deterministic* fallback when a required
capability is unavailable on the preferred backend.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.milp.branch_bound import BranchBoundBackend
from repro.milp.scipy_backend import ScipyBackend


class Capability(enum.Flag):
    """What a backend (and its solver sessions) supports.

    Attributes:
        MIP: Integrality constraints (binaries / integers).
        SPARSE: Consumes ``to_standard_form(sparse=True)`` CSR matrices
            without densifying.
        INCREMENTAL_ROWS: Sessions accept appended rows and variable
            bound changes without a standard-form re-export.
        BATCH_OBJECTIVES: Multi-objective solves share one export.
    """

    NONE = 0
    MIP = enum.auto()
    SPARSE = enum.auto()
    INCREMENTAL_ROWS = enum.auto()
    BATCH_OBJECTIVES = enum.auto()


@dataclass(frozen=True)
class BackendSpec:
    """One registry entry: a named backend factory plus its capabilities.

    Attributes:
        name: Registry key (the part before ``:`` in backend strings).
        factory: Callable ``variant -> backend instance`` (``variant`` is
            ``None`` when the plain name was requested).
        capabilities: Flags of the variant-less backend.
        variants: Accepted ``:variant`` suffixes, in preference order
            (:func:`find_backend` probes them in this order).
        variant_capabilities: Per-variant capability overrides; variants
            absent here inherit ``capabilities``.
    """

    name: str
    factory: Callable[[str | None], object]
    capabilities: Capability
    variants: tuple[str, ...] = ()
    variant_capabilities: Mapping[str, Capability] = field(default_factory=dict)

    def caps_for(self, variant: str | None) -> Capability:
        """Capability set of ``name[:variant]``."""
        if variant:
            return self.variant_capabilities.get(variant, self.capabilities)
        return self.capabilities


#: Insertion-ordered registry; registration order IS the fallback order.
_REGISTRY: dict[str, BackendSpec] = {}


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Register ``spec`` under ``spec.name`` (last write wins).

    Third-party solvers plug in here: the factory must return an object
    with ``solve(model, time_limit=None, mip_gap=None) -> SolveResult``;
    declaring :attr:`Capability.INCREMENTAL_ROWS` additionally requires
    an ``open_session(model, ...)`` method (see
    :class:`~repro.milp.session.SolverSession`).
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


def backend_capabilities(name: str) -> Capability:
    """Capability flags of ``"base[:variant]"`` (validates the variant)."""
    spec, variant = _split_name(name)
    return spec.caps_for(variant)


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


def find_backend(required: Capability) -> str:
    """First registered backend name supporting every ``required`` flag.

    The registry is walked in registration order, probing each entry's
    variant-less capability set and then its variants in declared order,
    so the fallback is deterministic: the same capability query always
    resolves to the same ``"base[:variant]"`` string.

    Raises:
        ValueError: No registered backend supports the combination.
    """
    for spec in _REGISTRY.values():
        if required & spec.capabilities == required:
            return spec.name
        for variant in spec.variants:
            if required & spec.caps_for(variant) == required:
                return f"{spec.name}:{variant}"
    raise ValueError(
        f"no registered backend supports {required!r}; "
        f"registered: {available_backends()}"
    )


_SCIPY_CAPS = (
    Capability.MIP
    | Capability.SPARSE
    | Capability.INCREMENTAL_ROWS
    | Capability.BATCH_OBJECTIVES
)

_SIMPLEX_CAPS = (
    Capability.MIP | Capability.INCREMENTAL_ROWS | Capability.BATCH_OBJECTIVES
)

register_backend(
    BackendSpec(
        name="scipy",
        factory=lambda variant: ScipyBackend(),
        capabilities=_SCIPY_CAPS,
    )
)
# A real registry entry (not a dict-alias of "scipy"): same factory
# today, but its own capability set that can diverge from scipy's.
register_backend(
    BackendSpec(
        name="highs",
        factory=lambda variant: ScipyBackend(),
        capabilities=_SCIPY_CAPS,
    )
)
register_backend(
    BackendSpec(
        name="python",
        factory=lambda variant: BranchBoundBackend(lp_solver=variant or "highs"),
        capabilities=_SCIPY_CAPS,  # default variant relaxes via HiGHS
        variants=("highs", "simplex"),
        variant_capabilities={"simplex": _SIMPLEX_CAPS},
    )
)
