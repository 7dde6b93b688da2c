"""In-memory span tracer wrapped around the certifier's layer entry points.

The spans are recorded from the benchmark's own files: :func:`installed`
replaces the public entry points of each layer with timing wrappers for
the duration of a ``with`` block and restores them afterwards.  A name
the certifier no longer has is reported and fails the traced run, so no
metric reads 0 merely because its entry point moved.

From-imports bind by value, so a function is patched in every module
that imported it, and methods are patched on their class.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from pathlib import Path
from typing import Callable, Iterator

from perfbench.stats import Span

_now = time.perf_counter


class Tracer:
    """Collects :class:`~perfbench.stats.Span` records while ``active``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.query = ""
        #: Center bytes -> query tag, so split spans carry their query id.
        self.tags: dict[bytes, str] = {}
        self._stack: list[int] = []
        self._layer: int | None = None

    def begin(self, name: str, **counters: float) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, _now(), parent=parent, query=self.query,
                               counters=dict(counters)))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index].end = _now()
        while self._stack and self._stack.pop() != index:
            pass

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Callable[[tuple, dict, object], dict] | None = None,
    ) -> Callable:
        """``fn`` timed as a span ``name``; ``count`` adds counters from the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.spans[index].counters.update(count(args, kwargs, result))
            return result

        return traced

    # -- Algorithm 1 per-layer attribution ---------------------------------

    def wrap_certify(self, fn: Callable) -> Callable:
        """``certify.alg1`` span that also closes the last per-layer span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.begin("certify.alg1")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_layer()
                self.end(index)

        return traced

    def wrap_decompose(self, fn: Callable) -> Callable:
        """Each ``decompose(layers, i, ...)`` starts layer ``i``'s span.

        Everything Algorithm 1 does from one decomposition to the next
        (encoding, refinement choice, solves) is attributed to that layer.
        """

        @functools.wraps(fn)
        def traced(layers, index, *args, **kwargs):
            if self.active:
                self._close_layer()
                self._layer = self.begin("certify.alg1_layer", layer=int(index))
            return fn(layers, index, *args, **kwargs)

        return traced

    def _close_layer(self) -> None:
        if self._layer is not None:
            self.end(self._layer)
            self._layer = None

    def wrap_split(self, fn: Callable) -> Callable:
        """``certify.split`` span tagged with its query and its tree sizes."""

        @functools.wraps(fn)
        def traced(network, center, *args, **kwargs):
            if not self.active:
                return fn(network, center, *args, **kwargs)
            outer = self.query
            self.query = self.tags.get(_center_key(center), outer)
            index = self.begin("certify.split")
            try:
                cert = fn(network, center, *args, **kwargs)
            finally:
                self.end(index)
                self.query = outer
            detail = cert.detail
            self.spans[index].counters.update(
                domains=detail.get("domains", 0),
                leaves=detail.get("milp_leaves", 0),
                proved_by_bounds=detail.get("proved_by_bounds", 0),
            )
            return cert

        return traced

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "query": span.query, **span.counters,
                }) + "\n")


def _center_key(center) -> bytes:
    import numpy as np

    return np.asarray(center, dtype=float).reshape(-1).tobytes()


# -- counters -------------------------------------------------------------


def _encoding_counts(args, kwargs, enc) -> dict:
    model = enc.model
    return {"rows": model.num_constrs, "binaries": model.num_binary}


def _rows(boxes) -> int:
    lo = getattr(boxes, "lo", None)
    if lo is not None:
        return int(lo.shape[0]) if lo.ndim == 2 else 1
    return len(boxes)


def _propagate_counts(args, kwargs, result) -> dict:
    return {"rows": 1}


def _propagate_many_method_counts(args, kwargs, result) -> dict:
    return {"rows": _rows(args[2] if len(args) > 2 else kwargs["input_boxes"])}


def _propagate_many_counts(args, kwargs, result) -> dict:
    return {"rows": _rows(args[2] if len(args) > 2 else kwargs["boxes"])}


def _presolve_many_counts(args, kwargs, certs) -> dict:
    return {"queries": len(certs), "decided": sum(c is not None for c in certs)}


def _presolve_one_counts(args, kwargs, cert) -> dict:
    return {"queries": 1, "decided": int(cert is not None)}


def _highs_lp_counts(args, kwargs, res) -> dict:
    return {"nit": int(getattr(res, "nit", 0) or 0), "status": int(res.status)}


def _highs_mip_counts(args, kwargs, res) -> dict:
    nodes = getattr(res, "mip_node_count", 0) or 0
    return {"nodes": int(nodes), "status": int(res.status)}


# -- patch table ----------------------------------------------------------

#: ``(module, attribute path, span name, counter function)``.
_PLAIN = [
    ("repro.certify.global_cert", "select_refinement", "certify.refine", None),
    ("repro.certify.global_cert", "encode_itne", "encoding.itne", _encoding_counts),
    ("repro.certify.splitting", "encode_itne", "encoding.itne", _encoding_counts),
    ("repro.certify.splitting", "encode_single_network", "encoding.single",
     _encoding_counts),
    ("repro.milp.model", "Model.to_standard_form", "milp.export", None),
    ("repro.milp.session", "SolverSession.solve", "milp.solve", None),
    ("repro.milp.scipy_backend", "ScipyBackend._solve_std", "milp.solve", None),
    ("scipy.optimize", "linprog", "milp.highs_lp", _highs_lp_counts),
    ("scipy.optimize", "milp", "milp.highs_mip", _highs_mip_counts),
    ("repro.bounds.propagator", "IBPPropagator.propagate", "bounds.propagate",
     _propagate_counts),
    ("repro.bounds.propagator", "IBPPropagator.propagate_many",
     "bounds.propagate_many", _propagate_many_method_counts),
    ("repro.bounds.propagator", "TwinIBPPropagator.propagate", "bounds.propagate",
     _propagate_counts),
    ("repro.bounds.propagator", "TwinIBPPropagator.propagate_many",
     "bounds.propagate_many", _propagate_many_method_counts),
    ("repro.bounds.symbolic", "SymbolicPropagator.propagate", "bounds.propagate",
     _propagate_counts),
    ("repro.bounds.symbolic", "SymbolicPropagator.propagate_many",
     "bounds.propagate_many", _propagate_many_method_counts),
    ("repro.certify.presolve", "propagate_many", "bounds.propagate_many",
     _propagate_many_counts),
    ("repro.certify.splitting", "propagate_many", "bounds.propagate_many",
     _propagate_many_counts),
    ("repro.certify.presolve", "presolve_many", "certify.presolve",
     _presolve_many_counts),
    ("repro.certify.presolve", "presolve_local", "certify.presolve",
     _presolve_one_counts),
    ("repro.runtime.batch", "BatchCertifier.run", "runtime.run", None),
]


def _resolve(module: str, path: str):
    """``(owner, attribute, current value)`` or ``None`` if the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(
        owner, attr, None
    )
    if value is None:
        return None
    return owner, attr, value


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[list[str]]:
    """Patch every entry point for the block; yields the names not found.

    The caller fails the run on any missing name: its metrics would read 0.
    """
    table = [
        (module, path, functools.partial(tracer.wrap, name=name, count=count))
        for module, path, name, count in _PLAIN
    ]
    table += [
        ("repro.certify.global_cert", "GlobalRobustnessCertifier.certify",
         tracer.wrap_certify),
        ("repro.certify.global_cert", "decompose", tracer.wrap_decompose),
        ("repro.certify", "certify_local_split", tracer.wrap_split),
    ]
    saved = []
    missing = []
    try:
        for module, path, make in table:
            found = _resolve(module, path)
            if found is None:
                missing.append(f"{module}.{path}")
                continue
            owner, attr, value = found
            setattr(owner, attr, make(value))
            saved.append((owner, attr, value))
        yield missing
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
