"""Discretization layer: measure-weighted 1D grids, flat 2D grids, fields.

Each grid states the cell-gradient operator D that the energy is built
on once, as a stencil: ``cells`` is the shape of the cell array,
``cell_nodes`` the index offsets of a cell's nodes, ``cell_signs[i][a]``
the sign gradient component i gives node a, and ``cell_scale[i]`` the
divisor of component i.  In 1D the nodes are (0,), (1,) with signs
(-1, +1) over h; in 2D they are (0,0), (1,0), (0,1), (1,1), each
component the mean of the two edge differences in its direction, over
(2hx, 2hy).  The rest is read off the stencil once for both kinds:
``cell_gradient`` maps node values to per-cell gradient components,
``cell_divergence`` is its exact transpose, ``cell_structure`` holds
each cell's nodes and D coefficients, from which the energy Hessian is
summed, and ``flux_spacing`` is the smallest divisor; ``free_block(mask)``
orders a mask's free nodes with the shorter axis varying fastest and
maps each cell's local Hessian entries onto the upper band of their
block.  ``cell_measure`` weighs the cells.  Changing the discretization
means changing the stencil and ``cell_measure`` only.

The nodal calculus the verifiers are written in is shared too, read off
``spacing`` (per axis, as ``np.gradient`` takes it: the nodes in 1D,
(hx, hy) in 2D): ``boundary_mask`` (every node on a face of the box),
``fd_gradient`` ([u'] or [u_x, u_y]), ``fd_hessian`` of that gradient
([u''] or [u_xx, u_xy, u_yy]) and ``grad_norm``.  Each grid states its
geometry, radial warped or flat, in ``hess_sq``, ``laplacian``,
``ricci`` and ``dim``: |Hess u|^2, Delta u, Ric(grad u, grad u) and the
dimension the identities are stated in.

Fields, dumps, solves and condensers are written once for both kinds:
``shape`` is the shape of a grid's value arrays, ``coords`` maps
coordinate names to node arrays ({"t": nodes} or {"x": X, "y": Y}),
``fill(mask, vals)`` is the solver's cold start at the free nodes, and
``radius`` is the coordinate a condenser's plates are read in (the
signed t in 1D, |x| in 2D).

Finite differences are 2nd order (``np.gradient``: central interior,
one-sided at the boundary); quadrature is a measure-weighted composite
trapezoid rule so that node weights stay local.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InvalidInputError
from .geometry import ModelManifold


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


class CellStructure(NamedTuple):
    """Cell-to-node structure of H = D^T W D, W block diagonal over cells:
    ``coef[i, a, c]`` is the D coefficient of gradient component i at the
    a-th node of cell c (zero where the component skips that node), and
    ``nodes[a, c]`` that node, raveled.  H sums the local blocks
    K[a, b, c] = sum_ij coef[i, a, c] W_ij[c] coef[j, b, c] at
    (nodes[a, c], nodes[b, c])."""

    coef: np.ndarray
    nodes: np.ndarray


def _trapezoid(widths) -> np.ndarray:
    """Tensor trapezoid node weights from per-axis cell widths: on each
    axis h_{i-1}/2 + h_i/2, a width past either end counting 0.  Halving
    is exact, so this is (h_{i-1} + h_i)/2 to the bit."""
    axes = []
    for h in widths:
        half = np.concatenate(([0.0], h / 2, [0.0]))
        axes.append(half[:-1] + half[1:])
    return reduce(np.multiply.outer, axes)


def _signed_sum(terms, plus, minus):
    """The terms indexed by ``plus`` added in order, then those indexed
    by ``minus`` subtracted in order.  In this order D and D^T are bit
    for bit the explicit slice formulas, ((v10 + v11) - v00) - v01 among
    them."""
    return reduce(np.subtract, [terms[a] for a in minus],
                  reduce(np.add, [terms[a] for a in plus]))


class _CellGrid:
    """D read off the grid's stencil: ``cells``, ``cell_nodes``,
    ``cell_signs`` and ``cell_scale`` (a scalar or one value per cell).
    Component i of D u at cell c is
    sum_a cell_signs[i][a] * u[c + cell_nodes[a]] / cell_scale[i].
    The nodal calculus is read off ``spacing``, one entry per axis;
    ``radius`` is the coordinate condenser plates are read in."""

    def boundary_mask(self) -> np.ndarray:
        """Every node on a face of the box."""
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * mask.ndim] = False
        return mask

    def fd_gradient(self, values) -> list:
        """[u'] or [u_x, u_y] at the nodes."""
        return [np.gradient(values, h, axis=i, edge_order=2)
                for i, h in enumerate(self.spacing)]

    def fd_hessian(self, grad) -> list:
        """d_j of gradient component i for j >= i: [u''] or
        [u_xx, u_xy, u_yy] at the nodes."""
        return [np.gradient(g, self.spacing[j], axis=j, edge_order=2)
                for i, g in enumerate(grad)
                for j in range(i, len(self.spacing))]

    def grad_norm(self, grad) -> np.ndarray:
        """|u'| or hypot(u_x, u_y)."""
        return reduce(np.hypot, grad, 0.0)

    @cached_property
    def _cell_slices(self) -> list:
        """Per stencil node, the slices that pick it out of every cell."""
        return [tuple(slice(o, o + k) for o, k in zip(off, self.cells))
                for off in self.cell_nodes]

    @cached_property
    def _split_signs(self) -> tuple:
        """The stencil by rows (components) and by columns (nodes), each
        entry split into the indices of its + and - signs."""
        def split(signs):
            return ([k for k, s in enumerate(signs) if s > 0],
                    [k for k, s in enumerate(signs) if s < 0])
        return ([split(row) for row in self.cell_signs],
                [split(col) for col in zip(*self.cell_signs)])

    @cached_property
    def flux_spacing(self):
        """1 / (largest entry of D) per cell: a cell flux times this is the
        force it puts on a node."""
        return reduce(np.minimum, self.cell_scale)

    def cell_gradient(self, values) -> list:
        """D u: the gradient components at the cells."""
        terms = [values[sl] for sl in self._cell_slices]
        return [_signed_sum(terms, *pm) / scale
                for pm, scale in zip(self._split_signs[0], self.cell_scale)]

    def cell_divergence(self, fluxes) -> np.ndarray:
        """D^T: per-cell fluxes, one list entry per component, to nodes."""
        scaled = [f / scale for f, scale in zip(fluxes, self.cell_scale)]
        out = np.zeros(self.shape)
        for sl, (plus, minus) in zip(self._cell_slices, self._split_signs[1]):
            # where no component adds, subtract the sum: no negated copy
            if plus:
                out[sl] += _signed_sum(scaled, plus, minus)
            else:
                out[sl] -= _signed_sum(scaled, minus, [])
        return out

    @cached_property
    def cell_structure(self) -> CellStructure:
        """The stencil's nodes and coefficients per cell, a cell's nodes
        in raveled order."""
        index = np.arange(int(np.prod(self.shape))).reshape(self.shape)
        nodes = np.array([index[sl].ravel() for sl in self._cell_slices])
        # H is summed in (a, b, c) order, so this order of a cell's nodes
        # fixes the order of each entry's terms, and so its bits
        order = np.argsort(nodes[:, 0])
        coef = np.array([[np.broadcast_to(signs[a] / scale, self.cells).ravel()
                          for a in order]
                         for signs, scale in zip(self.cell_signs,
                                                 self.cell_scale)])
        return CellStructure(coef, nodes[order])

    def free_block(self, mask) -> tuple:
        """The free nodes of ``mask`` and where each local entry of H goes
        in the upper band of their block: (free, kd, slot).  ``free``
        lists the free nodes (raveled), the shorter grid axis varying
        fastest, so the block's half-width ``kd`` is at most that axis's
        length plus 1.  ``slot[a, b, c]`` puts the entry at (nodes[a, c],
        nodes[b, c]) of ``cell_structure``, H_ff[i, j] in the cut's
        order, at B[j, kd + i - j] of an (N, kd+1) array B, N = free.size,
        where i <= j, and every other entry one past B's end.  So B.T, the
        first N (kd+1) bins of K summed by ``slot`` (``np.bincount``), is
        LAPACK's upper band storage, in Fortran order.  One cut is cached, keyed by the
        mask's bytes, so a solve pays for it once and a different mask,
        or one edited in place, gets its own."""
        mask = np.asarray(mask, dtype=bool)
        key = mask.tobytes()
        cached = self.__dict__.get("_free_block")
        if cached is None or cached[0] != key:
            axes = sorted(range(mask.ndim), key=lambda i: -mask.shape[i])
            order = np.arange(mask.size).reshape(mask.shape).transpose(
                axes).ravel()
            free = order[~mask.ravel()[order]]
            inv = np.full(mask.size, -1)
            inv[free] = np.arange(free.size)
            place = inv[self.cell_structure.nodes]
            rows, cols = place[:, None], place[None, :]
            upper = (rows >= 0) & (rows <= cols)
            kd = int(np.max(cols - rows, where=upper, initial=0))
            slot = np.where(upper, cols * kd + kd + rows, free.size * (kd + 1))
            cached = self._free_block = (key, (free, kd, slot))
        return cached[1]


class Grid1D(_CellGrid):
    """Strictly increasing nodes with a trapezoid measure A(t_i) * h_i/2.

    ``manifold`` supplies the area weight; None means the flat measure.
    The cells are the intervals [t_i, t_{i+1}], D the difference quotient.
    """

    cell_nodes = ((0,), (1,))
    cell_signs = ((-1, 1),)

    def __init__(self, nodes, manifold: Optional[ModelManifold] = None):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 9:
            raise InvalidInputError("Grid1D needs at least 9 nodes")
        if not np.all(np.isfinite(nodes)):
            raise InvalidInputError("nodes must be finite")
        h = np.diff(nodes)
        if np.any(h <= 0):
            raise InvalidInputError("nodes must be strictly increasing")
        ratio = h[1:] / h[:-1]
        if np.any(ratio < 0.25) or np.any(ratio > 4.0):
            raise InvalidInputError("spacing ratio must stay within [1/4, 4]")
        self.nodes = nodes
        self.shape = nodes.shape
        self.coords = {"t": nodes}
        self.spacing = (nodes,)
        self.radius = nodes
        self.h = h
        self.manifold = manifold
        self.area = manifold.area(nodes) if manifold is not None else np.ones_like(nodes)
        if np.any(self.area <= 0):
            raise InvalidInputError("area weight must be positive on the grid")
        self.weights = self.area * _trapezoid([h])
        self.cells = h.shape
        self.cell_scale = (h,)
        self.cell_measure = h * (self.area[:-1] + self.area[1:]) / 2.0

    @property
    def n(self) -> int:
        return self.nodes.size

    @classmethod
    def uniform(cls, a: float, b: float, n: int,
                manifold: Optional[ModelManifold] = None) -> "Grid1D":
        if not np.all(np.isfinite([a, b])):
            raise InvalidInputError("grid ends must be finite")
        return cls(np.linspace(a, b, n), manifold=manifold)

    def fill(self, mask, vals) -> np.ndarray:
        """Cold start: the fixed values interpolated linearly in t."""
        u = np.array(vals, dtype=float)
        u[~mask] = np.interp(self.nodes[~mask], self.nodes[mask], vals[mask])
        return u

    @property
    def dim(self) -> int:
        """m of the attached manifold; 1 on the flat line."""
        return self.manifold.m if self.manifold is not None else 1

    def hess_sq(self, grad, hess) -> np.ndarray:
        """|Hess u|^2 = u''^2 + (m-1) (c u')^2, c the metric factor: in an
        adapted frame Hess u = diag(u'', c u', ..., c u').  u''^2 on the
        flat line."""
        d2u = hess[0]
        if self.manifold is None:
            return d2u * d2u
        c = self.manifold.metric_factor(self.nodes)
        return d2u * d2u + (self.manifold.m - 1) * (c * grad[0]) ** 2

    def laplacian(self, grad, hess) -> np.ndarray:
        """u'' + (log A)' u'."""
        M = self.manifold
        ell = M.log_area_d1(self.nodes) if M is not None else 0.0
        return hess[0] + ell * grad[0]

    def ricci(self, grad):
        """Ric(grad u, grad u), the manifold's radial term; 0 on the flat line."""
        M = self.manifold
        return M.radial_ricci_term(self.nodes, grad[0] ** 2) if M is not None else 0.0


class Grid2D(_CellGrid):
    """Uniform tensor grid on [x0,x1] x [y0,y1] with flat Lebesgue measure.

    The cells are the squares between four neighbouring nodes; each
    component of D is the mean of the two edge differences in its
    direction.
    """

    cell_nodes = ((0, 0), (1, 0), (0, 1), (1, 1))
    cell_signs = ((-1, 1, -1, 1), (-1, -1, 1, 1))

    def __init__(self, x0, x1, y0, y1, nx, ny):
        if nx < 8 or ny < 8:
            raise InvalidInputError("Grid2D needs nx, ny >= 8")
        if not np.all(np.isfinite([x0, x1, y0, y1])):
            raise InvalidInputError("rectangle ends must be finite")
        if not (x1 > x0 and y1 > y0):
            raise InvalidInputError("degenerate rectangle")
        self.x = np.linspace(x0, x1, nx)
        self.y = np.linspace(y0, y1, ny)
        self.nx, self.ny = nx, ny
        self.shape = (nx, ny)
        self.hx = self.x[1] - self.x[0]
        self.hy = self.y[1] - self.y[0]
        self.spacing = (self.hx, self.hy)
        self.X, self.Y = np.meshgrid(self.x, self.y, indexing="ij")
        self.coords = {"x": self.X, "y": self.Y}
        self.radius = np.hypot(self.X, self.Y)
        self.weights = _trapezoid([np.full(nx - 1, self.hx),
                                   np.full(ny - 1, self.hy)])
        self.cells = (nx - 1, ny - 1)
        self.cell_scale = (2 * self.hx, 2 * self.hy)
        self.cell_measure = self.hx * self.hy

    def fill(self, mask, vals) -> np.ndarray:
        """Cold start: the mean of the fixed values at every free node."""
        u = np.array(vals, dtype=float)
        u[~mask] = float(np.mean(vals[mask]))
        return u

    dim = 2

    def hess_sq(self, grad, hess) -> np.ndarray:
        uxx, uxy, uyy = hess
        return uxx**2 + 2 * uxy**2 + uyy**2

    def laplacian(self, grad, hess) -> np.ndarray:
        return hess[0] + hess[2]

    def ricci(self, grad) -> float:
        return 0.0


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
    """Scalar samples on a grid; on a Grid1D, optionally backed by a
    closed form."""

    def __init__(self, grid, values, analytic=None):
        values = np.asarray(values, dtype=float)
        if not isinstance(grid, (Grid1D, Grid2D)):
            raise InvalidInputError("unknown grid type")
        if analytic is not None and not isinstance(grid, Grid1D):
            raise InvalidInputError("a closed-form descriptor needs a Grid1D")
        if values.shape != grid.shape:
            raise InvalidInputError("value shape does not match grid")
        if not np.all(np.isfinite(values)):
            raise InvalidInputError("field values must be finite")
        self.grid = grid
        self.values = values
        self.analytic = analytic

    @classmethod
    def from_function(cls, grid, fn):
        return cls(grid, np.asarray(fn(*grid.coords.values()), dtype=float))

    def copy_with(self, values) -> "DiscreteField":
        return DiscreteField(self.grid, values)


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


def dump_csv(f: DiscreteField):
    """A field's CSV table (header, rows): per node its coordinates,
    value, |grad| and measure weight, nodes in raveled order."""
    g = f.grid
    gm = g.grad_norm(g.fd_gradient(f.values))
    cols = [*g.coords.values(), f.values, gm, g.weights]
    return (",".join([*g.coords, "value", "grad_mag", "weight"]),
            np.column_stack([c.ravel() for c in cols]).tolist())
