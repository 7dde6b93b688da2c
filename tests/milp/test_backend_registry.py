"""Capability-registry semantics: names, variants, deterministic fallback."""

import pytest

from repro.milp import backend as backend_registry
from repro.milp.backend import (
    BackendSpec,
    Capability,
    available_backends,
    backend_capabilities,
    find_backend,
    get_backend,
)
from repro.milp.branch_bound import BranchBoundBackend

# Registry-mediated class access (RPR003): the registry is the single
# source of truth for which concrete class serves "scipy".
ScipyBackend = type(get_backend("scipy"))


class TestNames:
    def test_builtin_backends_registered(self):
        names = available_backends()
        assert {"scipy", "highs", "python"} <= set(names)
        assert names == sorted(names)

    def test_highs_is_a_real_entry(self):
        backend = get_backend("highs")
        assert isinstance(backend, ScipyBackend)

    def test_unknown_base_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gurobi")

    def test_unsupported_variant_raises(self):
        # The old registry silently ignored ":variant" on backends
        # without variants — "scipy:simplex" quietly solved with HiGHS.
        with pytest.raises(ValueError, match="does not support variant"):
            get_backend("scipy:simplex")

    def test_unsupported_variant_message_lists_supported(self):
        with pytest.raises(ValueError, match=r"\(supported: highs, simplex\)"):
            get_backend("python:dual")

    def test_instance_passes_through(self):
        backend = BranchBoundBackend(lp_solver="simplex")
        assert get_backend(backend) is backend

    def test_python_variants_resolve(self):
        assert get_backend("python").lp_solver == "highs"
        assert get_backend("python:highs").lp_solver == "highs"
        assert get_backend("python:simplex").lp_solver == "simplex"


class TestCapabilities:
    def test_variant_capability_overrides(self):
        assert not backend_capabilities("python:simplex") & Capability.SPARSE
        assert backend_capabilities("python") & Capability.SPARSE
        assert backend_capabilities("python:highs") & Capability.SPARSE

    def test_capability_query_validates_variant(self):
        with pytest.raises(ValueError, match="does not support variant"):
            backend_capabilities("highs:simplex")


def _spec(name, capabilities, **kwargs):
    """A test-local registry entry whose factory returns its own name."""
    return BackendSpec(
        name=name, factory=lambda variant: name, capabilities=capabilities,
        **kwargs,
    )


class TestFindBackend:
    def test_registration_order_wins(self):
        # "scipy" is registered first and satisfies the plain-MIP query.
        assert find_backend(Capability.MIP) == "scipy"
        assert find_backend(Capability.MIP | Capability.SPARSE) == "scipy"

    def test_variant_probed_when_bases_lack_capability(self, monkeypatch):
        monkeypatch.setattr(backend_registry, "_REGISTRY", {})
        backend_registry.register_backend(
            _spec(
                "dense", Capability.MIP, variants=("plain", "sparse"),
                variant_capabilities={
                    "sparse": Capability.MIP | Capability.SPARSE
                },
            )
        )
        backend_registry.register_backend(
            _spec(
                "later",
                Capability.MIP | Capability.SPARSE | Capability.INCREMENTAL_ROWS,
            )
        )
        assert find_backend(Capability.MIP) == "dense"
        # A variant of an earlier entry beats a later entry's base...
        assert find_backend(Capability.MIP | Capability.SPARSE) == "dense:sparse"
        # ...and a later entry answers what no earlier one supports.
        assert find_backend(Capability.INCREMENTAL_ROWS) == "later"

    def test_deterministic_across_calls(self):
        query = Capability.MIP | Capability.INCREMENTAL_ROWS
        assert find_backend(query) == find_backend(query)

    def test_unsatisfiable_combination_raises(self, monkeypatch):
        monkeypatch.setattr(backend_registry, "_REGISTRY", {})
        backend_registry.register_backend(_spec("dense", Capability.MIP))
        with pytest.raises(ValueError, match="no registered backend"):
            find_backend(Capability.MIP | Capability.SPARSE)

    def test_third_party_backend_joins_fallback_last(self, monkeypatch):
        sentinel = object()
        monkeypatch.setitem(
            backend_registry._REGISTRY,
            "custom",
            BackendSpec(
                name="custom",
                factory=lambda variant: sentinel,
                capabilities=Capability.MIP | Capability.SPARSE,
                variants=("fast",),
            ),
        )
        # Earlier registrations still win every query they can satisfy.
        assert find_backend(Capability.MIP) == "scipy"
        assert find_backend(Capability.MIP | Capability.SPARSE) == "scipy"
        assert list(backend_registry._REGISTRY)[-1] == "custom"
        assert get_backend("custom") is sentinel
        assert get_backend("custom:fast") is sentinel
        with pytest.raises(ValueError, match="does not support variant"):
            get_backend("custom:slow")
