"""Axis-aligned boxes (vectors of closed intervals) and their arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Box:
    """A vector of intervals ``[lo_i, hi_i]``.

    The workhorse container for bound propagation.  Construction
    validates ``lo <= hi`` element-wise (within a small tolerance that
    absorbs floating-point jitter, then rectifies).
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        # Copy unconditionally (``np.array`` copies; ``ndmin`` lifts
        # scalars): rectifying in place (below) — or any later in-place
        # update through ``self.lo``/``self.hi`` — would otherwise
        # silently mutate the caller's arrays.
        self.lo = np.array(self.lo, dtype=float, ndmin=1)
        self.hi = np.array(self.hi, dtype=float, ndmin=1)
        if self.lo.shape != self.hi.shape:
            raise ValueError(f"bound shapes differ: {self.lo.shape} vs {self.hi.shape}")
        bad = self.lo > self.hi + 1e-9
        if bad.any():
            raise ValueError(
                f"lower bound exceeds upper at indices {np.flatnonzero(bad)[:5]}"
            )
        # Rectify tiny inversions caused by floating point.
        np.minimum(self.lo, self.hi, out=self.lo)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_center(cls, center: np.ndarray, radius: float | np.ndarray) -> "Box":
        """Box ``[c - r, c + r]`` (the L∞ ball used for perturbations)."""
        center = np.asarray(center, dtype=float)
        return cls(center - radius, center + radius)

    @classmethod
    def uniform(cls, dim: int, lo: float, hi: float) -> "Box":
        """A box with identical bounds in every coordinate."""
        return cls(np.full(dim, float(lo)), np.full(dim, float(hi)))

    @classmethod
    def point(cls, value: np.ndarray) -> "Box":
        """Degenerate box containing exactly one point."""
        value = np.asarray(value, dtype=float)
        return cls(value, value)  # the constructor copies both sides

    # -- basic facts ------------------------------------------------------------

    @property
    def dim(self) -> int:
        """Number of coordinates."""
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        """Midpoints."""
        return 0.5 * (self.lo + self.hi)

    @property
    def radius(self) -> np.ndarray:
        """Half-widths."""
        return 0.5 * (self.hi - self.lo)

    def width(self) -> np.ndarray:
        """Per-coordinate widths ``hi - lo``."""
        return self.hi - self.lo

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        """Point membership test."""
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def sample(self, rng: np.random.Generator, n: int = 1) -> np.ndarray:
        """Uniform samples from the box, shape ``(n, dim)``."""
        u = rng.random((n, self.dim))
        return self.lo + u * (self.hi - self.lo)

    # -- arithmetic --------------------------------------------------------------

    def affine(self, weight: np.ndarray, bias: np.ndarray | float = 0.0) -> "Box":
        """Tight interval image of ``W x + b`` over the box.

        Uses the standard split ``W = W⁺ + W⁻``:
        ``lo' = W⁺ lo + W⁻ hi + b`` and ``hi' = W⁺ hi + W⁻ lo + b``.
        """
        w_pos = np.clip(weight, 0.0, None)
        w_neg = np.clip(weight, None, 0.0)
        lo = w_pos @ self.lo + w_neg @ self.hi + bias
        hi = w_pos @ self.hi + w_neg @ self.lo + bias
        return Box(lo, hi)

    def relu(self) -> "Box":
        """Interval image of element-wise ``max(·, 0)``."""
        return Box(np.maximum(self.lo, 0.0), np.maximum(self.hi, 0.0))

    def intersect(self, other: "Box") -> "Box":
        """Intersection; raises if any coordinate becomes empty."""
        return Box(np.maximum(self.lo, other.lo), np.minimum(self.hi, other.hi))

    def union_hull(self, other: "Box") -> "Box":
        """Smallest box containing both operands."""
        return Box(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def expand(self, margin: float) -> "Box":
        """Box enlarged by ``margin`` on every side."""
        return Box(self.lo - margin, self.hi + margin)

    def __add__(self, other: "Box") -> "Box":
        """Minkowski sum (independent interval addition)."""
        if not isinstance(other, Box):
            return NotImplemented
        return Box(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Box") -> "Box":
        """Interval difference ``{a - b}`` for independent a, b."""
        if not isinstance(other, Box):
            return NotImplemented
        return Box(self.lo - other.hi, self.hi - other.lo)

    def __getitem__(self, idx: "int | slice | np.ndarray") -> "Box":
        """Sub-box over selected coordinates."""
        return Box(np.atleast_1d(self.lo[idx]), np.atleast_1d(self.hi[idx]))

    def scalar(self, j: int) -> tuple[float, float]:
        """``(lo_j, hi_j)`` as plain floats."""
        return float(self.lo[j]), float(self.hi[j])

    def __repr__(self) -> str:
        if self.dim <= 4:
            pairs = ", ".join(
                f"[{l:.4g}, {h:.4g}]" for l, h in zip(self.lo, self.hi)
            )
            return f"Box({pairs})"
        return f"Box(dim={self.dim}, width_max={self.width().max():.4g})"
