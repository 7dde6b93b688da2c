"""The end-to-end benchmark's traced entry points still exist.

``perfbench`` wraps named functions of the package (``SolverSession.solve``,
``ScipyBackend._solve_std``, the certifier's layer loop, ...) to build its
per-layer breakdown; a renamed or deleted one silently reads 0 there.
"""

from perfbench.trace import Tracer, installed


def test_every_traced_name_resolves():
    with installed(Tracer()) as missing:
        assert missing == []
