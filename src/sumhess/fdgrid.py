"""Rectangular tensor grids, difference stencils, and per-node spectra.

A Grid is an axis-aligned box with `cells` interior nodes per axis and
spacing h = (hi - lo)/(cells + 1).  A GridField stores one value per
lattice node (interior plus the Dirichlet boundary layer) as a padded
array of shape cells + 2, so every interior stencil can read its
neighbors without special cases; corner and edge boundary nodes are
populated too because the mixed-derivative cross stencil touches them.

Second derivatives: 3-point central differences on the diagonal,
4-point cross differences for the mixed entries.  Eigen-decomposition
of the per-node Hessian uses LAPACK (np.linalg.eigh) for 3x3 and a
closed-form rotation for 2x2, which on a batch the size of a 145^2
grid takes about a third of LAPACK's time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Axis-aligned box [lo, hi] with `cells` interior nodes per axis."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        if not len(self.lo) == len(self.hi) == len(self.cells):
            raise ValueError("lo, hi, cells must have equal lengths")
        if self.dim not in (2, 3):
            raise ValueError(f"grid dimension must be 2 or 3, got {self.dim}")
        if any(c < 3 for c in self.cells):
            raise ValueError("need at least 3 interior nodes per axis")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("hi must exceed lo componentwise")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def h(self) -> tuple[float, ...]:
        return tuple((b - a) / (c + 1) for a, b, c in zip(self.lo, self.hi, self.cells))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def padded_shape(self) -> tuple[int, ...]:
        return tuple(c + 2 for c in self.cells)

    @property
    def n_interior(self) -> int:
        return int(np.prod(self.cells))

    def axis_nodes(self, axis: int, padded: bool = False) -> np.ndarray:
        """Node coordinates along one axis (interior, or with boundary)."""
        h = self.h[axis]
        if padded:
            return self.lo[axis] + h * np.arange(self.cells[axis] + 2)
        return self.lo[axis] + h * (1 + np.arange(self.cells[axis]))

    def points(self, padded: bool = False) -> np.ndarray:
        """All node coordinates, shape = (padded_)shape + (dim,)."""
        axes = [self.axis_nodes(a, padded) for a in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def interior_points_flat(self) -> np.ndarray:
        return self.points().reshape(-1, self.dim)

    def refine(self) -> "Grid":
        """Halve the spacing; old nodes coincide with even new nodes."""
        return Grid(self.lo, self.hi, tuple(2 * c + 1 for c in self.cells))


def _interior_view(padded: np.ndarray) -> np.ndarray:
    return padded[tuple(slice(1, -1) for _ in padded.shape)]


class GridField:
    """A scalar field on a grid: interior values plus Dirichlet trace.

    Immutable once built; updates go through with_interior, which keeps
    the boundary layer and replaces the interior block.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, padded_values: np.ndarray):
        padded_values = np.asarray(padded_values, dtype=float)
        if padded_values.shape != grid.padded_shape:
            raise ValueError(
                f"padded values have shape {padded_values.shape}, expected {grid.padded_shape}"
            )
        if not np.isfinite(padded_values).all():
            raise ValueError("field values must be finite")
        padded_values = padded_values.copy()
        padded_values.setflags(write=False)
        self.grid = grid
        self.values = padded_values

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "GridField":
        """Sample fn(points) on the full lattice; fn maps (..., dim) -> (...)."""
        return cls(grid, np.asarray(fn(grid.points(padded=True)), dtype=float))

    @classmethod
    def from_interior(cls, grid: Grid, interior, boundary=0.0) -> "GridField":
        """Build from interior values and a boundary spec (constant or
        callable on coordinates)."""
        interior = np.asarray(interior, dtype=float).reshape(grid.shape)
        padded = np.empty(grid.padded_shape)
        if callable(boundary):
            padded[...] = np.asarray(boundary(grid.points(padded=True)), dtype=float)
        else:
            padded[...] = float(boundary)
        _interior_view(padded)[...] = interior
        return cls(grid, padded)

    @property
    def interior(self) -> np.ndarray:
        return _interior_view(self.values)

    @property
    def interior_flat(self) -> np.ndarray:
        return self.interior.reshape(-1)

    def with_interior(self, interior) -> "GridField":
        padded = self.values.copy()
        _interior_view(padded)[...] = np.asarray(interior, dtype=float).reshape(self.grid.shape)
        return GridField(self.grid, padded)

    def to_csv(self, path, name: str = "u") -> None:
        """Write every lattice node as one row: coordinates then value."""
        pts = self.grid.points(padded=True).reshape(-1, self.grid.dim)
        vals = self.values.reshape(-1)
        headers = ["x", "y", "z"][: self.grid.dim] + [name]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(headers)
            for p, v in zip(pts, vals):
                writer.writerow([repr(float(c)) for c in p] + [repr(float(v))])


# ---------------------------------------------------------------------------
# batched stencils
# ---------------------------------------------------------------------------

def _shifted(v: np.ndarray, offset) -> np.ndarray:
    """Interior-shaped view of the padded array v moved by `offset` (one
    entry in {-1, 0, 1} per axis)."""
    return v[tuple(slice(1 + o, n - 1 + o) for n, o in zip(v.shape, offset))]


def gradient_field_array(u: GridField) -> np.ndarray:
    """Central first differences at every interior node, shape cells+(dim,)."""
    v, h, e = u.values, u.grid.h, np.eye(u.grid.dim, dtype=int)
    return np.stack(
        [(_shifted(v, e[a]) - _shifted(v, -e[a])) / (2.0 * h[a]) for a in range(u.grid.dim)], axis=-1
    )


def hessian_field_array(u: GridField) -> np.ndarray:
    """Second-difference Hessians at every interior node,
    shape cells+(dim, dim)."""
    v, h, dim = u.values, u.grid.h, u.grid.dim
    e = np.eye(dim, dtype=int)
    out = np.empty(u.grid.shape + (dim, dim))
    center = _interior_view(v)
    for a in range(dim):
        out[..., a, a] = (_shifted(v, e[a]) - 2.0 * center + _shifted(v, -e[a])) / (h[a] * h[a])
        for b in range(a + 1, dim):
            out[..., a, b] = out[..., b, a] = (
                _shifted(v, e[a] + e[b]) - _shifted(v, e[a] - e[b])
                - _shifted(v, e[b] - e[a]) + _shifted(v, -e[a] - e[b])
            ) / (4.0 * h[a] * h[b])
    return out


def _eigh2_batch(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = M[..., 0, 0]
    b = M[..., 0, 1]
    c = M[..., 1, 1]
    phi = 0.5 * np.arctan2(2.0 * b, a - c)
    cs, sn = np.cos(phi), np.sin(phi)
    lam1 = a * cs * cs + 2.0 * b * sn * cs + c * sn * sn
    lam2 = a * sn * sn - 2.0 * b * sn * cs + c * cs * cs
    lams = np.stack([lam1, lam2], axis=-1)
    Q = np.empty(M.shape)
    Q[..., 0, 0] = cs
    Q[..., 1, 0] = sn
    Q[..., 0, 1] = -sn
    Q[..., 1, 1] = cs
    return lams, Q


def eigh_batch(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a batch of symmetric 2x2 or 3x3 matrices.

    Returns (lams, Q) with eigenvalues sorted descending along the last
    axis and Q's columns the matching orthonormal eigenvectors, so that
    Q @ diag(lams) @ Q.T reconstructs M.
    """
    dim = M.shape[-1]
    if dim == 3:
        lams, Q = np.linalg.eigh(M)  # LAPACK, eigenvalues ascending
        return lams[..., ::-1], Q[..., ::-1]
    if dim != 2:
        raise ValueError(f"only 2x2 and 3x3 matrices are supported, got {dim}x{dim}")
    lams, Q = _eigh2_batch(M)
    l1, l2 = lams[..., 0], lams[..., 1]
    # the pairs a stable argsort(-lams) reorders, NaN sorting last
    swap = (-l2 < -l1) | (np.isnan(l1) & ~np.isnan(l2))
    return (np.where(swap[..., None], lams[..., ::-1], lams),
            np.where(swap[..., None, None], Q[..., ::-1], Q))


def laplacian_field(u: GridField) -> GridField:
    """Trace of the second differences at every interior node (equals
    sigma_1 of the Hessian spectrum); boundary of the result is zero."""
    H = hessian_field_array(u)
    trace = np.trace(H, axis1=-2, axis2=-1)
    return GridField.from_interior(u.grid, trace, boundary=0.0)
