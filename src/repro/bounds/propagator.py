"""Bound-propagation records and the interval (IBP) engine.

Every MILP in the pipeline is only as tight as the interval bounds that
seed it — big-M constants, Algorithm 1's initial range tables and the
Eq. 4 / Eq. 6 relaxation gaps all start from per-layer boxes.  This
module defines the single entry point through which those boxes are
produced:

* :class:`LayerBounds` — the per-layer pre/post-activation boxes of one
  propagation, with optional twin *distance* boxes (``Δy``/``Δx``) when
  a perturbation was supplied;
* :class:`BatchedLayerBounds` — the same record over a ``(Q, n)``
  query stack, row-sliceable back into ``LayerBounds``;
* :class:`IBPPropagator` — plain (twin) interval bound propagation,
  the first step of the symbolic engine and the last-resort fallback of
  the batch engine's degraded answers;
* :func:`propagate_many` — one batched propagation of a query stack.

Every certifier seeds its encodings with one engine,
:class:`~repro.bounds.symbolic.SymbolicPropagator`, whose boxes are
intersected with IBP's and so are never looser.  Both engines return
*sound* enclosures: every reachable pre/post-activation (and, for twin
runs, every reachable distance) lies inside the reported boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Generic,
    Sequence,
    TypeAlias,
    TypeVar,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bounds.ranges import RangeTable
    from repro.bounds.symbolic import SymbolicPropagator

import numpy as np

from repro import _sanitize
from repro.bounds.batched import (
    AnyBox,
    BatchedBox,
    DeltaSpec,
    as_batched_box,
    as_batched_delta,
    delta_row,
)
from repro.bounds.interval import Box
from repro.bounds.ibp import propagate_box
from repro.bounds.twin_ibp import propagate_twin_box
from repro.nn.affine import AffineLayer

#: Accepted ways of naming a stack of query boxes: a ready-made
#: ``BatchedBox``, one box (a batch of one), or a list of boxes.
BoxStack: TypeAlias = "BatchedBox | Box | list[Box]"


def _copy_box(box: Box) -> Box:
    return Box(box.lo.copy(), box.hi.copy())


@dataclass
class _BoundsRecord(Generic[AnyBox]):
    """Per-layer records of one propagation, over either box container.

    Layer indices follow the encoders: entry ``i`` bounds layer ``i+1``
    of the paper's 1-based chain.  Distance attributes are ``None`` for
    value-only runs (no perturbation supplied).

    Attributes:
        input_box: Box (or ``(Q, n)`` stack) over the flattened input
            ``x(0)``.
        y: Pre-activation value box per layer.
        x: Post-activation value box per layer.
        delta_box: Input perturbation box ``Δx(0)`` (twin runs only).
        dy: Pre-activation distance box per layer (twin runs only).
        dx: Post-activation distance box per layer (twin runs only).
        method: Name of the propagator that produced these bounds.
    """

    input_box: AnyBox
    y: list[AnyBox]
    x: list[AnyBox]
    delta_box: AnyBox | None = None
    dy: list[AnyBox] | None = None
    dx: list[AnyBox] | None = None
    method: str = ""

    def __post_init__(self) -> None:
        # Copy the ingested *lists* (RPR002): a caller appending to or
        # reordering the list it passed in must not retroactively edit
        # these bounds.  The box elements themselves are shared — every
        # producer hands over freshly built boxes and all consumers
        # treat them as read-only.
        self.y = list(self.y)
        self.x = list(self.x)
        if self.dy is not None:
            self.dy = list(self.dy)
        if self.dx is not None:
            self.dx = list(self.dx)

    @property
    def num_layers(self) -> int:
        """Number of network layers covered."""
        return len(self.y)

    @property
    def has_distance(self) -> bool:
        """Whether twin distance bounds were propagated."""
        return self.dy is not None

    @property
    def output(self) -> AnyBox:
        """Post-activation box of the final layer (the network output)."""
        return self.x[-1]

    @property
    def output_distance(self) -> AnyBox:
        """Distance box of the network output ``Δx(n)``."""
        if self.dx is None:
            raise ValueError(
                "no distance bounds: propagate with a delta to get Δ boxes"
            )
        return self.dx[-1]

    def output_variation_bounds(self) -> np.ndarray:
        """Per-output ``ε̄ = max(|Δx̲(n)|, |Δx̅(n)|)`` from the distance box.

        The variation bound these intervals alone certify (mirrors
        :meth:`repro.bounds.ranges.RangeTable.output_variation_bounds`);
        shape ``(out,)``, or ``(Q, out)`` for a batched record.
        """
        dist = self.output_distance
        return np.maximum(np.abs(dist.lo), np.abs(dist.hi))


class LayerBounds(_BoundsRecord[Box]):
    """Per-layer interval records of one bound propagation (one query)."""

    def intersect(self, other: "LayerBounds") -> "LayerBounds":
        """Tightest-wins element-wise intersection of two propagations.

        Both operands must be sound for the same network and input box,
        so the intersection is sound and no looser than either.  When
        only one operand carries distance bounds, its distance boxes are
        kept as-is (there is nothing to intersect them with).
        """
        if other.num_layers != self.num_layers:
            raise ValueError("layer count mismatch")
        if self.has_distance and other.has_distance:
            delta_box = self.delta_box.intersect(other.delta_box)
            dy = [a.intersect(b) for a, b in zip(self.dy, other.dy)]
            dx = [a.intersect(b) for a, b in zip(self.dx, other.dx)]
        else:
            twin = self if self.has_distance else other
            delta_box, dy, dx = twin.delta_box, twin.dy, twin.dx
        return LayerBounds(
            input_box=self.input_box.intersect(other.input_box),
            y=[a.intersect(b) for a, b in zip(self.y, other.y)],
            x=[a.intersect(b) for a, b in zip(self.x, other.x)],
            delta_box=delta_box,
            dy=dy,
            dx=dx,
            method=f"{self.method}&{other.method}",
        )

    def stable_mask(self, i: int) -> np.ndarray:
        """Boolean mask of layer ``i``'s neurons stable under these bounds.

        A neuron is *stable* when its pre-activation box does not
        straddle zero — a stable ReLU encodes without a binary variable.
        """
        y_box = self.y[i]
        return (y_box.lo >= 0.0) | (y_box.hi <= 0.0)

    def stable_split(self, layers: list[AffineLayer]) -> tuple[int, int]:
        """``(stable, total)`` ReLU-neuron counts under these bounds."""
        stable = total = 0
        for i, layer in enumerate(layers):
            if not layer.relu:
                continue
            total += self.y[i].dim
            stable += int(np.sum(self.stable_mask(i)))
        return stable, total

    def stable_fraction(self, layers: list[AffineLayer]) -> float:
        """Fraction of ReLU neurons stable under these bounds (1.0 if none)."""
        stable, total = self.stable_split(layers)
        return stable / total if total else 1.0

    def mean_pre_activation_width(self) -> float:
        """Mean width of all pre-activation intervals (the tightness metric)."""
        return float(np.mean(np.concatenate([b.width() for b in self.y])))

    def to_range_table(self) -> "RangeTable":
        """Convert to the mutable :class:`~repro.bounds.ranges.RangeTable`.

        Requires distance bounds (the table tracks ``Δy``/``Δx``).
        """
        from repro.bounds.ranges import LayerRanges, RangeTable

        if not self.has_distance:
            raise ValueError(
                "RangeTable needs distance bounds: propagate with a delta"
            )
        table = RangeTable(self.input_box, self.delta_box)
        for i in range(self.num_layers):
            table.layers.append(
                LayerRanges(
                    y=_copy_box(self.y[i]),
                    dy=_copy_box(self.dy[i]),
                    x=_copy_box(self.x[i]),
                    dx=_copy_box(self.dx[i]),
                )
            )
        return table


class BatchedLayerBounds(_BoundsRecord[BatchedBox]):
    """Per-layer records of one batched propagation over ``Q`` queries.

    Entry ``i`` of ``y``/``x`` (and ``dy``/``dx`` for twin runs) holds
    the ``(Q, m_i)`` bound stack of layer ``i+1``.  :meth:`row` slices
    one query back out as an ordinary :class:`LayerBounds`.
    """

    @property
    def num_queries(self) -> int:
        """Number of stacked queries ``Q``."""
        return self.input_box.num_queries

    def row(self, q: int) -> LayerBounds:
        """Query ``q``'s bounds as an ordinary :class:`LayerBounds`."""
        if not 0 <= q < self.num_queries:
            raise IndexError(f"query row {q} outside batch of {self.num_queries}")
        return LayerBounds(
            input_box=self.input_box.row(q),
            y=[stack.row(q) for stack in self.y],
            x=[stack.row(q) for stack in self.x],
            delta_box=None if self.delta_box is None else self.delta_box.row(q),
            dy=None if self.dy is None else [stack.row(q) for stack in self.dy],
            dx=None if self.dx is None else [stack.row(q) for stack in self.dx],
            method=self.method,
        )

    @classmethod
    def stack(cls, bounds: Sequence[LayerBounds]) -> "BatchedLayerBounds":
        """Stack per-query propagations into one batched record.

        All entries must come from the same engine over the same network
        (equal layer counts and method names, uniform twin-ness).
        """
        if len(bounds) == 0:
            raise ValueError("empty batch: need at least one LayerBounds")
        first = bounds[0]
        for entry in bounds[1:]:
            if entry.num_layers != first.num_layers:
                raise ValueError("cannot stack bounds with different layer counts")
            if entry.has_distance != first.has_distance:
                raise ValueError("cannot stack twin and value-only bounds")
            if entry.method != first.method:
                raise ValueError(
                    f"cannot stack bounds from different engines "
                    f"({entry.method!r} vs {first.method!r})"
                )

        def stacked(select: list[Box]) -> BatchedBox:
            return BatchedBox.from_boxes(select)

        dy: list[BatchedBox] | None = None
        dx: list[BatchedBox] | None = None
        delta: BatchedBox | None = None
        if first.has_distance:
            assert first.dy is not None and first.dx is not None
            delta_boxes = [entry.delta_box for entry in bounds]
            assert all(box is not None for box in delta_boxes)
            delta = stacked([box for box in delta_boxes if box is not None])
            dy = [
                stacked([entry.dy[i] for entry in bounds if entry.dy is not None])
                for i in range(first.num_layers)
            ]
            dx = [
                stacked([entry.dx[i] for entry in bounds if entry.dx is not None])
                for i in range(first.num_layers)
            ]
        return cls(
            input_box=stacked([entry.input_box for entry in bounds]),
            y=[stacked([entry.y[i] for entry in bounds]) for i in range(first.num_layers)],
            x=[stacked([entry.x[i] for entry in bounds]) for i in range(first.num_layers)],
            delta_box=delta,
            dy=dy,
            dx=dx,
            method=first.method,
        )


#: The record type a layer loop fills: :class:`LayerBounds` for one box,
#: :class:`BatchedLayerBounds` for a stack.
Record = TypeVar("Record", bound="_BoundsRecord[Any]")


class IBPPropagator:
    """Plain interval bound propagation (the existing IBP / twin-IBP).

    Value boxes come from forward interval arithmetic; with a ``delta``
    the twin variant of :mod:`repro.bounds.twin_ibp` also tracks the
    per-layer distance boxes.
    """

    name = "ibp"

    def propagate(
        self,
        layers: list[AffineLayer],
        input_box: Box,
        delta: float | Box | None = None,
    ) -> LayerBounds:
        return self._bounds(LayerBounds, layers, input_box, delta)

    def propagate_many(
        self,
        layers: list[AffineLayer],
        input_boxes: BoxStack,
        deltas: DeltaSpec = None,
    ) -> BatchedLayerBounds:
        """Bound all ``Q`` stacked queries in one vectorized IBP pass.

        Row ``q`` of the result is bit-identical to
        ``self.propagate(layers, input_boxes.row(q), <delta row q>)``.
        """
        stack = as_batched_box(input_boxes)
        delta_stack = as_batched_delta(deltas, stack.num_queries, stack.dim)
        return self._bounds(BatchedLayerBounds, layers, stack, delta_stack)

    def _bounds(
        self,
        record: type[Record],
        layers: list[AffineLayer],
        boxes: AnyBox,
        delta: "float | AnyBox | None",
    ) -> Record:
        """The one IBP layer loop behind :meth:`propagate`/:meth:`propagate_many`."""
        if delta is not None:
            twin = propagate_twin_box(layers, boxes, delta)
            return record(
                input_box=twin.x[0],
                y=twin.y,
                x=twin.x[1:],
                delta_box=twin.dx[0],
                dy=twin.dy,
                dx=twin.dx[1:],
                method=self.name,
            )
        _, y_boxes = propagate_box(layers, boxes, collect=True)
        x_boxes = [
            y.relu() if layer.relu else y for layer, y in zip(layers, y_boxes)
        ]
        return record(input_box=boxes, y=y_boxes, x=x_boxes, method=self.name)


class TwinIBPPropagator(IBPPropagator):
    """Twin-network IBP: like ``"ibp"`` but a perturbation is mandatory.

    Nothing in the package calls it; it is kept only because the
    benchmark's tracer (``perfbench/trace.py``) patches its methods by
    name.
    """

    name = "twin-ibp"

    def propagate(
        self,
        layers: list[AffineLayer],
        input_box: Box,
        delta: float | Box | None = None,
    ) -> LayerBounds:
        if delta is None:
            raise ValueError("twin-ibp requires a perturbation (delta)")
        bounds = super().propagate(layers, input_box, delta)
        bounds.method = self.name
        return bounds

    def propagate_many(
        self,
        layers: list[AffineLayer],
        input_boxes: BoxStack,
        deltas: DeltaSpec = None,
    ) -> BatchedLayerBounds:
        if deltas is None:
            raise ValueError("twin-ibp requires a perturbation (delta)")
        bounds = super().propagate_many(layers, input_boxes, deltas)
        bounds.method = self.name
        return bounds


def _engine(name: str) -> "IBPPropagator | SymbolicPropagator":
    """The engine :func:`propagate_many` runs: ``"symbolic"`` or ``"ibp"``."""
    if name == "symbolic":
        from repro.bounds.symbolic import SymbolicPropagator

        return SymbolicPropagator()
    if name == "ibp":
        return IBPPropagator()
    raise ValueError(f"unknown bound engine {name!r} (expected 'symbolic' or 'ibp')")


def _check_batch_agreement(
    engine: "IBPPropagator | SymbolicPropagator",
    layers: list[AffineLayer],
    stack: BatchedBox,
    deltas: DeltaSpec,
    result: BatchedLayerBounds,
) -> None:
    """Sanitizer: a sampled batched row must match its scalar propagation.

    Re-runs the scalar ``propagate`` for one deterministically sampled
    query and compares every per-layer array — the runtime analogue of
    the bit-identity property tests, but exercised on *real* workloads
    whenever ``REPRO_SANITIZE=1``.
    """
    queries = result.num_queries
    q = int(np.random.default_rng(queries * 1000003 + stack.dim).integers(queries))
    scalar = engine.propagate(layers, stack.row(q), delta_row(deltas, q, stack.dim))
    row = result.row(q)
    what = f"propagate_many[{engine.name}] query {q}/{queries}"
    if row.num_layers != scalar.num_layers:
        raise _sanitize.SanitizerError(
            f"sanitizer[batch-row]: {what}: batched result covers "
            f"{row.num_layers} layers, scalar propagation {scalar.num_layers}"
        )
    if row.has_distance != scalar.has_distance:
        raise _sanitize.SanitizerError(
            f"sanitizer[batch-row]: {what}: batched and scalar results "
            f"disagree on distance-bound presence"
        )
    for t in range(row.num_layers):
        _sanitize.check_batch_row(row.y[t].lo, scalar.y[t].lo, f"{what} y[{t}].lo")
        _sanitize.check_batch_row(row.y[t].hi, scalar.y[t].hi, f"{what} y[{t}].hi")
        _sanitize.check_batch_row(row.x[t].lo, scalar.x[t].lo, f"{what} x[{t}].lo")
        _sanitize.check_batch_row(row.x[t].hi, scalar.x[t].hi, f"{what} x[{t}].hi")
    if row.has_distance:
        assert row.dy is not None and row.dx is not None
        assert scalar.dy is not None and scalar.dx is not None
        for t in range(row.num_layers):
            _sanitize.check_batch_row(
                row.dy[t].lo, scalar.dy[t].lo, f"{what} dy[{t}].lo"
            )
            _sanitize.check_batch_row(
                row.dy[t].hi, scalar.dy[t].hi, f"{what} dy[{t}].hi"
            )
            _sanitize.check_batch_row(
                row.dx[t].lo, scalar.dx[t].lo, f"{what} dx[{t}].lo"
            )
            _sanitize.check_batch_row(
                row.dx[t].hi, scalar.dx[t].hi, f"{what} dx[{t}].hi"
            )


def propagate_many(
    name: str,
    layers: list[AffineLayer],
    boxes: BoxStack,
    deltas: DeltaSpec = None,
) -> BatchedLayerBounds:
    """Bound a whole stack of queries in one vectorized pass.

    Args:
        name: ``"symbolic"`` (what every certifier uses) or ``"ibp"``.
        layers: Normal-form network shared by all queries.
        boxes: The ``Q`` input boxes — a :class:`BatchedBox`, a single
            :class:`Box`, or a list of boxes.
        deltas: Optional per-query perturbations (shared radius, array of
            radii, shared box, list of boxes, or a ``(Q, n)`` stack).

    Returns:
        Sound :class:`BatchedLayerBounds`; row ``q`` is bit-identical to
        the engine's scalar ``propagate`` of query ``q`` (checked on a
        sampled row under ``REPRO_SANITIZE=1``).
    """
    engine = _engine(name)
    stack = as_batched_box(boxes)
    result = engine.propagate_many(layers, stack, deltas)
    if _sanitize.ENABLED:
        _check_batch_agreement(engine, layers, stack, deltas, result)
    return result
