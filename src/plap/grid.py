"""Discretization layer: measure-weighted 1D grids, flat 2D grids, fields.

Each grid owns the cell-gradient operator D that the energy is built on:
``cell_gradient`` maps node values to per-cell gradient components (one
in 1D, two in 2D), ``cell_divergence`` is its exact transpose,
``cell_diagonal`` gives the diagonal of D^T C D for per-cell blocks C,
and ``cell_measure`` weighs the cells.  Changing the discretization means
changing these methods only.

Finite differences are 2nd order (central interior, one-sided at the
boundary); quadrature is a measure-weighted composite trapezoid rule so
that node weights stay local.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import InvalidInputError
from .geometry import ModelManifold


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


class Grid1D:
    """Strictly increasing nodes with a trapezoid measure A(t_i) * h_i/2.

    ``manifold`` supplies the area weight; None means the flat measure.
    """

    def __init__(self, nodes, manifold: Optional[ModelManifold] = None):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 9:
            raise InvalidInputError("Grid1D needs at least 9 nodes")
        h = np.diff(nodes)
        if np.any(h <= 0):
            raise InvalidInputError("nodes must be strictly increasing")
        ratio = h[1:] / h[:-1]
        if np.any(ratio < 0.25) or np.any(ratio > 4.0):
            raise InvalidInputError("spacing ratio must stay within [1/4, 4]")
        self.nodes = nodes
        self.h = h
        self.manifold = manifold
        if manifold is not None:
            self.area = np.asarray(manifold.area(nodes), dtype=float)
        else:
            self.area = np.ones_like(nodes)
        if np.any(self.area <= 0):
            raise InvalidInputError("area weight must be positive on the grid")
        # trapezoid node weights: A_i * (h_{i-1} + h_i)/2
        w = np.empty_like(nodes)
        w[0] = h[0] / 2
        w[-1] = h[-1] / 2
        w[1:-1] = (h[:-1] + h[1:]) / 2
        self.weights = self.area * w
        # the cells are the intervals [t_i, t_{i+1}]
        self.cell_measure = h * (self.area[:-1] + self.area[1:]) / 2.0
        # 1 / (largest entry of D) per cell: a cell flux times this is
        # the force it puts on a node
        self.flux_spacing = h

    @property
    def n(self) -> int:
        return self.nodes.size

    @classmethod
    def uniform(cls, a: float, b: float, n: int,
                manifold: Optional[ModelManifold] = None) -> "Grid1D":
        return cls(np.linspace(a, b, n), manifold=manifold)

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[0] = mask[-1] = True
        return mask

    def cell_gradient(self, values) -> list:
        """[du/dt] at the cell midpoints."""
        return [np.diff(values) / self.h]

    def cell_divergence(self, fluxes) -> np.ndarray:
        """D^T: per-cell fluxes, one list entry per component, to nodes."""
        flux = fluxes[0] / self.h
        out = np.zeros(self.n)
        out[:-1] -= flux
        out[1:] += flux
        return out

    def cell_diagonal(self, blocks) -> np.ndarray:
        """Diagonal of D^T C D for per-cell blocks C = blocks[i][j]."""
        c = blocks[0][0] / self.h**2
        out = np.zeros(self.n)
        out[:-1] += c
        out[1:] += c
        return out


class Grid2D:
    """Uniform tensor grid on [x0,x1] x [y0,y1] with flat Lebesgue measure."""

    def __init__(self, x0, x1, y0, y1, nx, ny):
        if nx < 8 or ny < 8:
            raise InvalidInputError("Grid2D needs nx, ny >= 8")
        if not (x1 > x0 and y1 > y0):
            raise InvalidInputError("degenerate rectangle")
        self.x = np.linspace(x0, x1, nx)
        self.y = np.linspace(y0, y1, ny)
        self.nx, self.ny = nx, ny
        self.hx = self.x[1] - self.x[0]
        self.hy = self.y[1] - self.y[0]
        self.X, self.Y = np.meshgrid(self.x, self.y, indexing="ij")
        # tensor trapezoid node weights
        wx = np.full(nx, self.hx)
        wx[0] = wx[-1] = self.hx / 2
        wy = np.full(ny, self.hy)
        wy[0] = wy[-1] = self.hy / 2
        self.weights = np.outer(wx, wy)
        # the cells are the squares between four neighbouring nodes
        self.cell_measure = self.hx * self.hy
        self.flux_spacing = 2 * min(self.hx, self.hy)

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros((self.nx, self.ny), dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask

    def cell_gradient(self, values) -> list:
        """[du/dx, du/dy] at the cell centers: the mean of the two edge
        differences in each direction."""
        v = values
        return [
            (v[1:, :-1] + v[1:, 1:] - v[:-1, :-1] - v[:-1, 1:]) / (2 * self.hx),
            (v[:-1, 1:] + v[1:, 1:] - v[:-1, :-1] - v[1:, :-1]) / (2 * self.hy),
        ]

    def cell_divergence(self, fluxes) -> np.ndarray:
        """D^T: per-cell fluxes [fx, fy] to nodes."""
        fx = fluxes[0] / (2 * self.hx)
        fy = fluxes[1] / (2 * self.hy)
        both, diff = fx + fy, fx - fy
        out = np.zeros((self.nx, self.ny))
        # corner (i, j) enters gx with -, gy with -; (i+1, j): +, -; etc.
        out[:-1, :-1] -= both
        out[1:, :-1] += diff
        out[:-1, 1:] -= diff
        out[1:, 1:] += both
        return out

    def cell_diagonal(self, blocks) -> np.ndarray:
        """Diagonal of D^T C D for per-cell 2x2 blocks C = blocks[i][j]."""
        (c00, c01), (c10, c11) = blocks
        cx, cy = 1.0 / (2 * self.hx), 1.0 / (2 * self.hy)
        out = np.zeros((self.nx, self.ny))
        for sx, sy, sl in (
            (-cx, -cy, np.s_[:-1, :-1]),
            (cx, -cy, np.s_[1:, :-1]),
            (-cx, cy, np.s_[:-1, 1:]),
            (cx, cy, np.s_[1:, 1:]),
        ):
            out[sl] += c00 * sx * sx + (c01 + c10) * sx * sy + c11 * sy * sy
        return out


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Analytic1D:
    """Closed-form descriptor of a 1D profile: u and its derivatives."""

    u: Callable
    du: Callable
    d2u: Callable = None
    d3u: Callable = None


class DiscreteField:
    """Scalar samples on a grid, optionally backed by a closed form."""

    def __init__(self, grid, values, analytic=None):
        values = np.asarray(values, dtype=float)
        if isinstance(grid, Grid1D):
            if values.shape != grid.nodes.shape:
                raise InvalidInputError("value shape does not match grid")
        elif isinstance(grid, Grid2D):
            if values.shape != (grid.nx, grid.ny):
                raise InvalidInputError("value shape does not match grid")
        else:
            raise InvalidInputError("unknown grid type")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("field values must be finite")
        self.grid = grid
        self.values = values
        self.analytic = analytic

    @classmethod
    def from_function(cls, grid, fn, analytic=None):
        if isinstance(grid, Grid1D):
            vals = np.asarray(fn(grid.nodes), dtype=float)
        else:
            vals = np.asarray(fn(grid.X, grid.Y), dtype=float)
        return cls(grid, vals, analytic=analytic)

    def copy_with(self, values) -> "DiscreteField":
        return DiscreteField(self.grid, values)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def _deriv_1d(nodes: np.ndarray, v: np.ndarray) -> np.ndarray:
    """2nd-order first derivative on a (possibly nonuniform) 1D grid."""
    n = nodes.size
    d = np.empty_like(v)
    hm = nodes[1:-1] - nodes[:-2]
    hp = nodes[2:] - nodes[1:-1]
    d[1:-1] = (
        -hp / (hm * (hm + hp)) * v[:-2]
        + (hp - hm) / (hm * hp) * v[1:-1]
        + hm / (hp * (hm + hp)) * v[2:]
    )
    # one-sided 2nd order at the ends
    h0, h1 = nodes[1] - nodes[0], nodes[2] - nodes[1]
    d[0] = (
        -(2 * h0 + h1) / (h0 * (h0 + h1)) * v[0]
        + (h0 + h1) / (h0 * h1) * v[1]
        - h0 / (h1 * (h0 + h1)) * v[2]
    )
    hn, hn1 = nodes[-1] - nodes[-2], nodes[-2] - nodes[-3]
    d[-1] = (
        (2 * hn + hn1) / (hn * (hn + hn1)) * v[-1]
        - (hn + hn1) / (hn * hn1) * v[-2]
        + hn / (hn1 * (hn + hn1)) * v[-3]
    )
    return d


def gradient(f: DiscreteField):
    """2nd-order FD gradient: scalar du/dt (1D) or (du/dx, du/dy) (2D)."""
    g = f.grid
    if isinstance(g, Grid1D):
        return _deriv_1d(g.nodes, f.values)
    gx = np.gradient(f.values, g.hx, axis=0, edge_order=2)
    gy = np.gradient(f.values, g.hy, axis=1, edge_order=2)
    return gx, gy


def hessian(f: DiscreteField):
    """2nd-order FD Hessian: d2u/dt2 (1D) or (uxx, uxy, uyy) (2D)."""
    g = f.grid
    if isinstance(g, Grid1D):
        return _deriv_1d(g.nodes, _deriv_1d(g.nodes, f.values))
    gx, gy = gradient(f)
    uxx = np.gradient(gx, g.hx, axis=0, edge_order=2)
    uxy = np.gradient(gx, g.hy, axis=1, edge_order=2)
    uyy = np.gradient(gy, g.hy, axis=1, edge_order=2)
    return uxx, uxy, uyy


# ---------------------------------------------------------------------------
# Quadrature and norms
# ---------------------------------------------------------------------------


def integrate_field(values, grid) -> float:
    """Node values summed against the grid's trapezoid weights."""
    values = np.asarray(values, dtype=float)
    return float(np.dot(grid.weights.ravel(), values.ravel()))


def grad_magnitude(f: DiscreteField) -> np.ndarray:
    g = gradient(f)
    if isinstance(f.grid, Grid1D):
        return np.abs(g)
    return np.hypot(g[0], g[1])


def wp_seminorm(f: DiscreteField, p: float) -> float:
    """|grad u|_{L^p} with the grid's measure."""
    gm = grad_magnitude(f)
    return integrate_field(gm**p, f.grid) ** (1.0 / p)


def lp_norm(f: DiscreteField, p: float) -> float:
    return integrate_field(np.abs(f.values) ** p, f.grid) ** (1.0 / p)


def wp_distance(f1: DiscreteField, f2: DiscreteField, p: float) -> float:
    """W^{1,p} distance: L^p distance of values plus of gradients."""
    if f1.grid is not f2.grid:
        raise InvalidInputError("fields must share a grid")
    diff = f1.copy_with(f1.values - f2.values)
    return lp_norm(diff, p) + wp_seminorm(diff, p)


def dump_csv(f: DiscreteField, path) -> None:
    """CSV dump: node coordinates, value, |grad|, measure weight."""
    gm = grad_magnitude(f)
    with open(path, "w") as fh:
        if isinstance(f.grid, Grid1D):
            fh.write("t,value,grad_mag,weight\n")
            for t, v, g, w in zip(f.grid.nodes, f.values, gm, f.grid.weights):
                fh.write(f"{t:.12g},{v:.12g},{g:.12g},{w:.12g}\n")
        else:
            fh.write("x,y,value,grad_mag,weight\n")
            for i in range(f.grid.nx):
                for j in range(f.grid.ny):
                    fh.write(
                        f"{f.grid.x[i]:.12g},{f.grid.y[j]:.12g},"
                        f"{f.values[i, j]:.12g},{gm[i, j]:.12g},"
                        f"{f.grid.weights[i, j]:.12g}\n"
                    )
