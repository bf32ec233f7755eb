"""The (p, eps)-energy, its gradient and its Hessian on grid fields.

Every function here works through the grid's cell-gradient operator D
(``grid.cell_gradient`` and its transpose ``grid.cell_divergence``), so
one code path serves 1D and 2D grids.  The discrete energy is
sum(meas * phi(|D u|^2)), a sum of per-cell convex terms: convexity holds
exactly at the discrete level, the weak residual D^T(meas phi' D u) is
literally the gradient of the discrete energy with respect to node
values, and the Hessian is D^T (meas B) D with the per-cell blocks B of
``cell_hessian``.  ``hessian`` assembles it on the grid's cached
``cell_structure``: each Newton step forms the local cell blocks and
scatters them into a fixed CSR pattern with one ``np.bincount``, for
any number of gradient components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InvalidInputError, SingularityError
from .grid import DiscreteField


@dataclass(frozen=True)
class EnergySpec:
    """The pair (p, eps); eps = 0 is evaluation-only."""

    p: float
    eps: float = 0.0

    def __post_init__(self):
        if self.p <= 1:
            raise InvalidInputError("p must exceed 1")
        if self.eps < 0:
            raise InvalidInputError("eps must be nonnegative")


# -- cell quantities ---------------------------------------------------------


def _cell_gradient(field: DiscreteField):
    """Per-cell gradient components of the field and |grad|^2."""
    grad = field.grid.cell_gradient(field.values)
    return grad, reduce(np.add, [g * g for g in grad])


def _phi(g2, p, eps):
    return (g2 + eps) ** (p / 2.0)


def _phi_d(g2, p, eps):
    """phi'(g) / g  =  p (g^2+eps)^{(p-2)/2}  as a function of g^2."""
    return p * (g2 + eps) ** ((p - 2.0) / 2.0)


def _phi_dd_aniso(g2, p, eps):
    """p (p-2) (g^2+eps)^{(p-4)/2}: the rank-one part of the cell Hessian."""
    return p * (p - 2.0) * (g2 + eps) ** ((p - 4.0) / 2.0)


def cell_hessian(spec: EnergySpec, field: DiscreteField) -> list:
    """Per-cell Hessian blocks B = a I + b g g^T of phi(|g|^2) in the cell
    gradient g, as B[i][j]; a = phi'/g and b the rank-one coefficient."""
    grad, g2 = _cell_gradient(field)
    a = _phi_d(g2, spec.p, spec.eps)
    b = _phi_dd_aniso(g2, spec.p, spec.eps)
    B = [[None] * len(grad) for _ in grad]
    for i, gi in enumerate(grad):
        for j in range(i):
            B[i][j] = B[j][i] = b * (gi * grad[j])
        B[i][i] = a + b * (gi * gi)
    return B


def _check_differentiable(spec: EnergySpec, g2) -> None:
    if spec.eps > 0:
        return
    if spec.p < 2 and np.any(g2 == 0.0):
        raise SingularityError(
            "p < 2 with eps = 0 and a vanishing cell gradient: "
            "the integrand is not differentiable there"
        )


# -- energies ----------------------------------------------------------------


def energy(spec: EnergySpec, field: DiscreteField) -> float:
    """E_{p,eps}(u) = int (|grad u|^2 + eps)^{p/2} dv (cellwise)."""
    _, g2 = _cell_gradient(field)
    meas = field.grid.cell_measure
    return float(np.sum(_phi(g2, spec.p, spec.eps).ravel() * np.ravel(meas)))


def q_energy(field: DiscreteField, q: float) -> float:
    """int |grad u|^q dv."""
    if q <= 0:
        raise InvalidInputError("q must be positive")
    _, g2 = _cell_gradient(field)
    return float(np.sum(g2 ** (q / 2.0) * field.grid.cell_measure))


# -- first variation ---------------------------------------------------------


def residual_scale(spec: EnergySpec, field: DiscreteField) -> float:
    """Magnitude of the elementary fluxes entering weak_residual; the
    natural scale for a relative stopping tolerance."""
    _, g2 = _cell_gradient(field)
    grid = field.grid
    return float(np.max(_phi_d(g2, spec.p, spec.eps) * np.sqrt(g2)
                        * grid.cell_measure / grid.flux_spacing))


def weak_residual(spec: EnergySpec, field: DiscreteField,
                  fixed_mask=None) -> np.ndarray:
    """Gradient of the discrete energy w.r.t. free node values.

    Entries at fixed (boundary) nodes are zero.
    """
    if fixed_mask is None:
        fixed_mask = field.grid.boundary_mask()
    grad, g2 = _cell_gradient(field)
    _check_differentiable(spec, g2)
    a = _phi_d(g2, spec.p, spec.eps)
    meas = field.grid.cell_measure
    r = field.grid.cell_divergence([a * g * meas for g in grad])
    r[fixed_mask] = 0.0
    return r


# -- second variation --------------------------------------------------------


def hessian(spec: EnergySpec, field: DiscreteField):
    """Hessian of the discrete energy at u as a sparse nodes x nodes CSR
    matrix on values.ravel(): D^T (meas B) D with D the grid's
    ``cell_matrix``.

    This is the discretization of the linearized operator
    div(f_eps^{p-2} (id + (p-2) grad u x grad u / f_eps^2) grad psi)
    in the same staggered fluxes as the energy itself.  Each cell's block
    G^T (meas B) G, G its D coefficients, is scattered into the pattern
    of the grid's ``cell_structure``.
    """
    import scipy.sparse as sp

    if spec.eps <= 0:
        raise SingularityError("linearization requires eps > 0")
    grid = field.grid
    meas = grid.cell_measure
    w = np.array([[np.ravel(bij * meas) for bij in row]
                  for row in cell_hessian(spec, field)])
    cs = grid.cell_structure
    wg = np.einsum("ijc,jac->iac", w, cs.coef)
    local = np.einsum("iac,ibc->abc", cs.coef, wg)
    data = np.bincount(cs.pos, weights=local.ravel(),
                       minlength=cs.indices.size)
    n = cs.indptr.size - 1
    return sp.csr_matrix((data, cs.indices, cs.indptr), shape=(n, n))


def linearized_action(spec: EnergySpec, field: DiscreteField,
                      psi: DiscreteField, fixed_mask=None) -> np.ndarray:
    """Hessian at u applied to psi, both restricted to the free nodes."""
    if fixed_mask is None:
        fixed_mask = field.grid.boundary_mask()
    free_psi = np.where(fixed_mask, 0.0, psi.values)
    out = (hessian(spec, field) @ free_psi.ravel()).reshape(free_psi.shape)
    out[fixed_mask] = 0.0
    return out


def hessian_diagonal(spec: EnergySpec, field: DiscreteField,
                     fixed_mask=None) -> np.ndarray:
    """Diagonal of the Hessian, 1 at fixed nodes."""
    if fixed_mask is None:
        fixed_mask = field.grid.boundary_mask()
    return np.where(fixed_mask, 1.0,
                    hessian(spec, field).diagonal().reshape(fixed_mask.shape))
