"""Rectangular tensor grids, difference stencils, and per-node spectra.

A Grid is an axis-aligned box with `cells` interior nodes per axis and
spacing h = (hi - lo)/(cells + 1).  A GridField stores one value per
lattice node (interior plus the Dirichlet boundary layer) as a padded
array of shape cells + 2, so every interior stencil can read its
neighbors without special cases; corner and edge boundary nodes are
populated too because the mixed-derivative cross stencil touches them.

Second derivatives: 3-point central differences on the diagonal,
4-point cross differences for the mixed entries; difference_taps holds
each formula once, for these stencils and the solver's Jacobian.
"""

from __future__ import annotations

import itertools
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
        nodes = self.lo[axis] + self.h[axis] * np.arange(self.cells[axis] + 2)
        return nodes if padded else nodes[1:-1]

    def points(self, padded: bool = False) -> np.ndarray:
        """All node coordinates, shape = (padded_)shape + (dim,)."""
        axes = [self.axis_nodes(a, padded) for a in range(self.dim)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def interior_points_flat(self) -> np.ndarray:
        return self.points().reshape(-1, self.dim)

    def refine(self) -> "Grid":
        """Halve the spacing; old nodes coincide with even new nodes."""
        return Grid(self.lo, self.hi, tuple(2 * c + 1 for c in self.cells))


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
        _shifted(padded)[...] = interior
        return cls(grid, padded)

    @property
    def interior(self) -> np.ndarray:
        return _shifted(self.values)

    @property
    def interior_flat(self) -> np.ndarray:
        return self.interior.reshape(-1)

    def with_interior(self, interior) -> "GridField":
        padded = self.values.copy()
        _shifted(padded)[...] = np.asarray(interior, dtype=float).reshape(self.grid.shape)
        return GridField(self.grid, padded)

    def to_csv(self, path, name: str = "u") -> None:
        """Write every lattice node as one row: coordinates then value."""
        # every coordinate is an axis node, so each is formatted once
        axes = ([repr(x) for x in self.grid.axis_nodes(a, padded=True).tolist()] for a in range(self.grid.dim))
        prefixes = map(",".join, itertools.product(*axes))
        # the csv module's excel dialect: float reprs need no quoting
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["x", "y", "z"][: self.grid.dim] + [name]) + "\r\n")
            fh.writelines(f"{p},{v!r}\r\n" for p, v in zip(prefixes, self.values.reshape(-1).tolist()))


# ---------------------------------------------------------------------------
# batched stencils
# ---------------------------------------------------------------------------

def _shifted(v: np.ndarray, offset=(0, 0, 0)) -> np.ndarray:
    """Interior-shaped view of the padded array v moved by `offset` (one
    entry in {-1, 0, 1} per axis; zip stops at v's own dimension)."""
    return v[tuple(slice(1 + o, n - 1 + o) for n, o in zip(v.shape, offset))]


def difference_taps(grid: Grid, a: int, b: int | None = None) -> tuple[list, float]:
    """One difference formula as the (offset, weight) taps and denominator of
    apply_taps: b=None is the central first difference along axis a, b=a
    the 3-point second difference and b!=a the 4-point cross difference."""
    e, h = np.eye(grid.dim, dtype=int), grid.h
    if b is None:
        return [(e[a], 1.0), (-e[a], -1.0)], 2.0 * h[a]
    if a == b:
        return [(e[a], 1.0), (0 * e[a], -2.0), (-e[a], 1.0)], h[a] * h[a]
    return [(e[a] + e[b], 1.0), (e[a] - e[b], -1.0), (e[b] - e[a], -1.0), (-e[a] - e[b], 1.0)], 4.0 * h[a] * h[b]


def apply_taps(padded: np.ndarray, taps, denominator: float = 1.0) -> np.ndarray:
    """sum(weight * padded moved by offset) / denominator at every interior
    node; a weight is a scalar or an interior-shaped array."""
    (offset, weight), *rest = taps
    out = weight * _shifted(padded, offset)
    for offset, weight in rest:
        out += weight * _shifted(padded, offset)
    return out if denominator == 1.0 else out / denominator  # x / 1.0 is x: skip the pass


def gradient_field_array(u: GridField) -> np.ndarray:
    """Central first differences at every interior node, shape cells+(dim,)."""
    return np.stack([apply_taps(u.values, *difference_taps(u.grid, a)) for a in range(u.grid.dim)], axis=-1)


def hessian_field_array(u: GridField) -> np.ndarray:
    """Second-difference Hessians at every interior node,
    shape cells+(dim, dim), symmetric bit for bit."""
    out = np.empty(u.grid.shape + (u.grid.dim,) * 2)
    for a in range(u.grid.dim):
        for b in range(a, u.grid.dim):
            out[..., a, b] = out[..., b, a] = apply_taps(u.values, *difference_taps(u.grid, a, b))
    return out


def eigh_batch(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a batch of symmetric matrices (LAPACK).

    Returns (lams, Q) with eigenvalues sorted descending along the last
    axis and Q's columns the matching orthonormal eigenvectors, so that
    Q @ diag(lams) @ Q.T reconstructs M.
    """
    lams, Q = np.linalg.eigh(M)  # LAPACK, eigenvalues ascending
    return lams[..., ::-1], Q[..., ::-1]


def laplacian_field(u: GridField) -> GridField:
    """Trace of the second differences at every interior node (sigma_1 of the
    Hessian spectrum), summed from 0 as np.trace does; zero boundary."""
    H = hessian_field_array(u)
    return GridField.from_interior(u.grid, sum(H[..., a, a] for a in range(u.grid.dim)))
