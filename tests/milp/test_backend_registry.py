"""Backend name resolution: the two HiGHS names, instances, rejections."""

import pytest

from repro.milp.backend import get_backend

ScipyBackend = type(get_backend("scipy"))


class TestNames:
    def test_highs_is_a_real_entry(self):
        backend = get_backend("highs")
        assert isinstance(backend, ScipyBackend)

    def test_unknown_base_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gurobi")

    @pytest.mark.parametrize("name", ["python", "python:simplex", "python:highs"])
    def test_removed_backends_are_unknown(self, name):
        with pytest.raises(ValueError, match=r"available: \['scipy', 'highs'\]"):
            get_backend(name)

    def test_unsupported_variant_raises(self):
        # A ":variant" suffix is never silently ignored.
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("scipy:simplex")

    def test_instance_passes_through(self):
        backend = object()  # tests substitute fakes this way
        assert get_backend(backend) is backend
