"""Discretization layer: measure-weighted 1D grids, flat 2D grids, fields.

Each grid owns the cell-gradient operator D that the energy is built on:
``cell_gradient`` maps node values to per-cell gradient components (one
in 1D, two in 2D), ``cell_divergence`` is its exact transpose,
``cell_matrix`` is D as a sparse matrix (components stacked, cells x
nodes), ``cell_structure`` is the cell-to-node structure derived from
it once per grid, on which the energy Hessian is assembled, and
``cell_measure`` weighs the cells.  Changing the discretization means
changing these members only.

Each grid also owns the nodal calculus the verifiers are written in:
``fd_gradient`` maps values to the gradient components ([u'] in 1D,
[u_x, u_y] in 2D), ``fd_hessian`` maps those to the Hessian components
([u''], [u_xx, u_xy, u_yy]), and ``grad_norm``, ``hess_sq`` and
``laplacian`` read |grad u|, |Hess u|^2 and Delta u off that jet; on a
1D grid over a model manifold they are those of the radial function
u(t).  ``dim`` is the dimension the identities are stated in.

Finite differences are 2nd order (central interior, one-sided at the
boundary); quadrature is a measure-weighted composite trapezoid rule so
that node weights stay local.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

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

    @cached_property
    def cell_matrix(self):
        """D as a sparse cells x nodes matrix: D @ u is cell_gradient(u)[0]."""
        return _pairs(self.n, -1.0 / self.h, 1.0 / self.h)

    @cached_property
    def cell_structure(self) -> "CellStructure":
        return _cell_structure(self.cell_matrix, self.n - 1)

    @property
    def dim(self) -> int:
        """m of the attached manifold; 1 on the flat line."""
        return self.manifold.m if self.manifold is not None else 1

    def fd_gradient(self, values) -> list:
        """[u'] at the nodes."""
        return [_deriv_1d(self.nodes, values)]

    def fd_hessian(self, grad) -> list:
        """[u''] at the nodes, from the nodal gradient [u']."""
        return [_deriv_1d(self.nodes, grad[0])]

    def grad_norm(self, grad) -> np.ndarray:
        return np.abs(grad[0])

    def hess_sq(self, grad, hess) -> np.ndarray:
        """|Hess u|^2 = u''^2 + (m-1) (c u')^2, c the metric factor: in an
        adapted frame Hess u = diag(u'', c u', ..., c u').  u''^2 on the
        flat line."""
        d2u = hess[0]
        if self.manifold is None:
            return d2u * d2u
        c = np.asarray(self.manifold.metric_factor(self.nodes), float)
        return d2u * d2u + (self.manifold.m - 1) * (c * grad[0]) ** 2

    def laplacian(self, grad, hess) -> np.ndarray:
        """u'' + (log A)' u'."""
        M = self.manifold
        ell = np.asarray(M.log_area_d1(self.nodes), float) if M is not None else 0.0
        return hess[0] + ell * grad[0]


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

    @cached_property
    def cell_matrix(self):
        """D as a sparse matrix on values.ravel(): the components of
        cell_gradient stacked, each raveled over the cells."""
        import scipy.sparse as sp

        nx, ny = self.nx, self.ny
        return sp.vstack([
            sp.kron(_pairs(nx, -1.0, 1.0), _pairs(ny, 1.0, 1.0)) / (2 * self.hx),
            sp.kron(_pairs(nx, 1.0, 1.0), _pairs(ny, -1.0, 1.0)) / (2 * self.hy),
        ], format="csr")

    @cached_property
    def cell_structure(self) -> "CellStructure":
        return _cell_structure(self.cell_matrix, (self.nx - 1) * (self.ny - 1))

    dim = 2

    def _diff(self, v, axis: int) -> np.ndarray:
        return np.gradient(v, (self.hx, self.hy)[axis], axis=axis, edge_order=2)

    def fd_gradient(self, values) -> list:
        """[u_x, u_y] at the nodes."""
        return [self._diff(values, 0), self._diff(values, 1)]

    def fd_hessian(self, grad) -> list:
        """[u_xx, u_xy, u_yy] at the nodes, from the nodal gradient."""
        return [self._diff(grad[0], 0), self._diff(grad[0], 1),
                self._diff(grad[1], 1)]

    def grad_norm(self, grad) -> np.ndarray:
        return np.hypot(grad[0], grad[1])

    def hess_sq(self, grad, hess) -> np.ndarray:
        uxx, uxy, uyy = hess
        return uxx**2 + 2 * uxy**2 + uyy**2

    def laplacian(self, grad, hess) -> np.ndarray:
        return hess[0] + hess[2]


def _pairs(n: int, left, right):
    """(n-1) x n CSR: row i holds left[i] at node i and right[i] at node
    i+1 (scalars are broadcast)."""
    # scipy.sparse is imported where it is used, here and in energy.py:
    # a module-level import ahead of plap.geometry made every CLI launch
    # about 4% slower, although the same modules load
    import scipy.sparse as sp

    return sp.diags([left, right], [0, 1], shape=(n - 1, n), format="csr")


class CellStructure(NamedTuple):
    """Cell-to-node structure of H = D^T W D, W block diagonal over cells.

    ``coef[i, a, c]`` is the D coefficient of gradient component i at the
    a-th node of cell c (zero where the component skips that node);
    ``indices`` and ``indptr`` are the CSR pattern of H, shared read-only
    by every matrix assembled on it; ``pos`` gives, for each local entry
    (a, b, c) raveled, its position in H.data.  So H.data is
    ``np.bincount(pos, weights=K.ravel())`` for the local blocks
    K[a, b, c] = sum_ij coef[i, a, c] W_ij[c] coef[j, b, c].
    """

    coef: np.ndarray
    pos: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


def _cell_structure(D, cells: int) -> CellStructure:
    """The CellStructure of the cell operator D (``cell_matrix``: one
    block of ``cells`` rows per gradient component); every cell has the
    same number of nodes."""
    comps = [D[i:i + cells] for i in range(0, D.shape[0], cells)]
    # P (cells x nodes) is nonzero where any component reads a node: its
    # rows list each cell's nodes, and P^T P, whose positive entries
    # cannot cancel, has the pattern of H
    P = sum(abs(Di) for Di in comps)
    L = P.nnz // cells
    cell = np.repeat(np.arange(cells), L)
    coef = np.array([np.asarray(Di[cell, P.indices]).reshape(cells, L).T
                     for Di in comps])
    nodes = P.indices.reshape(cells, L).T.astype(np.int64)
    H = (P.T @ P).tocsr()
    H.sort_indices()
    n = D.shape[1]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(H.indptr))
    pos = np.searchsorted(rows * n + H.indices,
                          (nodes[:, None] * n + nodes[None, :]).ravel())
    H.indices.flags.writeable = H.indptr.flags.writeable = False
    return CellStructure(coef, pos, H.indices, H.indptr)


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


# ---------------------------------------------------------------------------
# Quadrature and norms
# ---------------------------------------------------------------------------


def integrate_field(values, grid) -> float:
    """Node values summed against the grid's trapezoid weights."""
    values = np.asarray(values, dtype=float)
    # einsum, not np.dot: a BLAS dot on a threaded OpenBLAS costs
    # milliseconds per call on a 2D grid
    return float(np.einsum("i,i->", grid.weights.ravel(), values.ravel()))


def wp_seminorm(f: DiscreteField, p: float) -> float:
    """|grad u|_{L^p} with the grid's measure."""
    gm = f.grid.grad_norm(f.grid.fd_gradient(f.values))
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
    gm = f.grid.grad_norm(f.grid.fd_gradient(f.values))
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
