"""Backend-registry semantics: names, variants, instances."""

import pytest

from repro.milp import backend as backend_registry
from repro.milp.backend import BackendSpec, available_backends, get_backend
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

    def test_third_party_backend_resolves_with_variants(self, monkeypatch):
        sentinel = object()
        monkeypatch.setitem(
            backend_registry._REGISTRY,
            "custom",
            BackendSpec(
                name="custom", factory=lambda variant: sentinel,
                variants=("fast",),
            ),
        )
        assert "custom" in available_backends()
        assert get_backend("custom") is sentinel
        assert get_backend("custom:fast") is sentinel
        with pytest.raises(ValueError, match="does not support variant"):
            get_backend("custom:slow")
