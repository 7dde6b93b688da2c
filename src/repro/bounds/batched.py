"""Batched multi-query bound containers: ``(Q, n)`` box stacks.

The presolve tier and the splitting tier both run *near-identical*
propagations one query at a time — an ε-sweep over 256 perturbation
balls is 256 separate backsubstitutions over the same weights.  This
module provides the container for doing all of them in ONE vectorized
pass: :class:`BatchedBox`, ``Q`` axis-aligned boxes as stacked
``(Q, n)`` ``lo``/``hi`` arrays, with the same interval arithmetic as
:class:`~repro.bounds.interval.Box` applied to every row at once.  The
per-layer record of one batched propagation is
:class:`~repro.bounds.propagator.BatchedLayerBounds`.

Each bound method has one layer loop, written over :data:`AnyBox`: it
runs unchanged on a :class:`Box` or on a :class:`BatchedBox`, and only
the arithmetic kernels (``affine``, backsubstitution) differ between
the two containers.

Bit-identity contract
---------------------

Every batched kernel in the bounds package is arranged so that row ``q``
of the batched result is **bit-identical** to the scalar propagation of
row ``q`` alone.  The arithmetic trick: matmuls keep the scalar
operand shapes and batch through numpy's *stacked* (leading) axes —
``(m, n) @ (Q, n, 1)`` instead of ``(Q, n) @ (n, m)`` — so each 2-D
slice is computed by exactly the same BLAS call as the scalar path,
independent of the batch size.  Elementwise operations are trivially
per-row.  The ``REPRO_SANITIZE=1`` contract and the property tests
enforce this row agreement.

The container copies ingested caller arrays (lint rule RPR002): batched
bounds are shared across whole query batches, so aliasing a caller's
array would corrupt every query at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeAlias, TypeVar

import numpy as np

from repro.bounds.interval import Box

#: Per-query perturbation spec accepted by the batched entry points: one
#: radius for every query, per-query radii, one shared box, a full
#: ``(Q, n)`` stack, or a per-query list of radii/boxes.
DeltaSpec: TypeAlias = (
    "float | np.ndarray | Box | BatchedBox | Sequence[float | Box] | None"
)


@dataclass
class BatchedBox:
    """``Q`` stacked boxes: ``lo``/``hi`` arrays of shape ``(Q, n)``.

    Row ``q`` is one ordinary :class:`Box`; construction applies the
    same validation and tiny-inversion rectification per row.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        # Copy unconditionally (RPR002): batched bounds are shared
        # across a whole query batch, so aliasing the caller's arrays
        # would corrupt every query at once.
        self.lo = np.array(self.lo, dtype=float, ndmin=2)
        self.hi = np.array(self.hi, dtype=float, ndmin=2)
        if self.lo.shape != self.hi.shape:
            raise ValueError(
                f"bound shapes differ: {self.lo.shape} vs {self.hi.shape}"
            )
        if self.lo.ndim != 2:
            raise ValueError(
                f"BatchedBox wants (Q, n) stacks, got shape {self.lo.shape}"
            )
        if self.lo.shape[0] == 0:
            raise ValueError("empty batch: need at least one query row")
        bad = self.lo > self.hi + 1e-9
        if bad.any():
            rows = np.unique(np.nonzero(bad)[0])[:5]
            raise ValueError(
                f"lower bound exceeds upper in query rows {rows.tolist()}"
            )
        # Rectify tiny inversions caused by floating point (same
        # contract as the scalar Box constructor).
        np.minimum(self.lo, self.hi, out=self.lo)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_boxes(cls, boxes: Sequence[Box]) -> "BatchedBox":
        """Stack ordinary boxes (all the same dimension) into one batch."""
        if len(boxes) == 0:
            raise ValueError("empty batch: need at least one box")
        dims = {box.dim for box in boxes}
        if len(dims) != 1:
            raise ValueError(f"cannot stack boxes of mixed dimensions {sorted(dims)}")
        return cls(
            np.stack([box.lo for box in boxes]),
            np.stack([box.hi for box in boxes]),
        )

    @classmethod
    def uniform(cls, queries: int, dim: int, lo: float, hi: float) -> "BatchedBox":
        """``queries`` identical boxes with constant bounds per coordinate."""
        return cls(
            np.full((queries, dim), float(lo)), np.full((queries, dim), float(hi))
        )

    # -- basic facts ---------------------------------------------------------

    @property
    def num_queries(self) -> int:
        """Number of stacked boxes ``Q``."""
        return self.lo.shape[0]

    @property
    def dim(self) -> int:
        """Number of coordinates per box."""
        return self.lo.shape[1]

    def row(self, q: int) -> Box:
        """Query ``q``'s box (copied — the constructor copies both sides)."""
        return Box(self.lo[q], self.hi[q])

    def width(self) -> np.ndarray:
        """Per-row, per-coordinate widths ``hi - lo``, shape ``(Q, n)``."""
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        """Row midpoints, shape ``(Q, n)``."""
        return 0.5 * (self.lo + self.hi)

    # -- arithmetic ----------------------------------------------------------

    def affine(self, weight: np.ndarray, bias: "np.ndarray | float" = 0.0) -> "BatchedBox":
        """Row-wise interval image of ``W x + b``.

        Batched through the stacked-matmul form ``(m, n) @ (Q, n, 1)``,
        whose per-query 2-D slices are the scalar ``W⁺ lo + W⁻ hi``
        calls verbatim — row ``q`` is bit-identical to
        ``self.row(q).affine(weight, bias)``.
        """
        w_pos = np.clip(weight, 0.0, None)
        w_neg = np.clip(weight, None, 0.0)
        lo = (w_pos @ self.lo[..., None])[..., 0] + (w_neg @ self.hi[..., None])[..., 0] + bias
        hi = (w_pos @ self.hi[..., None])[..., 0] + (w_neg @ self.lo[..., None])[..., 0] + bias
        return BatchedBox(lo, hi)

    def relu(self) -> "BatchedBox":
        """Row-wise interval image of element-wise ``max(·, 0)``."""
        return BatchedBox(np.maximum(self.lo, 0.0), np.maximum(self.hi, 0.0))

    def intersect(self, other: "BatchedBox") -> "BatchedBox":
        """Row-wise intersection; raises if any coordinate becomes empty."""
        return BatchedBox(
            np.maximum(self.lo, other.lo), np.minimum(self.hi, other.hi)
        )

    def __repr__(self) -> str:
        return (
            f"BatchedBox(queries={self.num_queries}, dim={self.dim}, "
            f"width_max={self.width().max():.4g})"
        )


#: Either bound container: the type each method's one layer loop runs on.
AnyBox = TypeVar("AnyBox", Box, BatchedBox)


def as_batched_box(boxes: "BatchedBox | Box | Sequence[Box]") -> BatchedBox:
    """Coerce a batch spec into a :class:`BatchedBox`.

    A single :class:`Box` becomes a batch of one; a sequence of boxes is
    stacked; a :class:`BatchedBox` passes through unchanged (no copy —
    the constructor already copied on ingest).
    """
    if isinstance(boxes, BatchedBox):
        return boxes
    if isinstance(boxes, Box):
        return BatchedBox.from_boxes([boxes])
    return BatchedBox.from_boxes(list(boxes))


def as_batched_delta(
    deltas: "DeltaSpec", queries: int, dim: int
) -> "BatchedBox | None":
    """Coerce a per-query perturbation spec into a ``(Q, n)`` stack.

    Mirrors the scalar ``twin_ibp._as_delta`` semantics per row: a float
    radius ``d`` becomes the box ``[-d, d]^n``; per-query radii may be a
    1-D array (or list) of length ``Q``; explicit boxes pass through
    (one shared box, a per-query list, or a ready-made stack).
    """
    if deltas is None:
        return None
    if isinstance(deltas, BatchedBox):
        if deltas.num_queries != queries or deltas.dim != dim:
            raise ValueError(
                f"perturbation stack shape {(deltas.num_queries, deltas.dim)} "
                f"does not match query stack {(queries, dim)}"
            )
        return deltas
    if isinstance(deltas, Box):
        if deltas.dim != dim:
            raise ValueError("perturbation box dimension mismatch")
        return BatchedBox(
            np.broadcast_to(deltas.lo, (queries, dim)),
            np.broadcast_to(deltas.hi, (queries, dim)),
        )
    if isinstance(deltas, (int, float)):
        radius = np.full((queries, 1), float(deltas))
        return BatchedBox(
            np.broadcast_to(-radius, (queries, dim)),
            np.broadcast_to(radius, (queries, dim)),
        )
    if isinstance(deltas, np.ndarray):
        values = np.asarray(deltas, dtype=float).reshape(-1)
        if values.shape[0] != queries:
            raise ValueError(
                f"got {values.shape[0]} per-query radii for {queries} queries"
            )
        radius = values[:, None]
        return BatchedBox(
            np.broadcast_to(-radius, (queries, dim)),
            np.broadcast_to(radius, (queries, dim)),
        )
    rows = list(deltas)
    if len(rows) != queries:
        raise ValueError(f"got {len(rows)} per-query deltas for {queries} queries")
    boxes = [
        entry if isinstance(entry, Box) else Box.uniform(dim, -float(entry), float(entry))
        for entry in rows
    ]
    return BatchedBox.from_boxes(boxes)


def delta_row(deltas: "DeltaSpec", q: int, dim: int) -> "float | Box | None":
    """Query ``q``'s perturbation in the scalar ``propagate`` vocabulary.

    Used by the loop-over-``propagate`` fallback so third-party engines
    see exactly the argument the per-query caller would have passed.
    """
    if deltas is None:
        return None
    if isinstance(deltas, BatchedBox):
        return deltas.row(q)
    if isinstance(deltas, (Box, int, float)):
        return deltas if isinstance(deltas, Box) else float(deltas)
    if isinstance(deltas, np.ndarray):
        return float(np.asarray(deltas, dtype=float).reshape(-1)[q])
    entry = list(deltas)[q]
    return entry if isinstance(entry, Box) else float(entry)
