"""The (p, eps)-energy, its gradient and its Hessian on grid fields.

Every function here works through the grid's cell-gradient operator D
(``grid.cell_gradient`` and its transpose ``grid.cell_divergence``), so
one code path serves 1D and 2D grids.  The discrete energy is
sum(meas * phi(|D u|^2)), a sum of per-cell convex terms: convexity holds
exactly at the discrete level, the weak residual D^T(meas phi' D u) is
literally the gradient of the discrete energy with respect to node
values, and the Hessian is D^T (meas B) D with the per-cell blocks B of
``_Cells.blocks``, and it is only ever stated cell by cell: the local
blocks G^T (meas B) G of ``_Cells.local`` (G a cell's D coefficients in
the grid's ``cell_structure``) are summed by the 2D Newton direction into
its band and by ``hessian_diagonal`` into the diagonal.
``linearized_action`` applies the same Hessian matrix-free, as
D^T(meas B D psi), the way ``weak_residual`` is written.

All of these are read off one private ``_Cells`` per field and (p, eps):
it forms D u and |D u|^2 once, and each power of |D u|^2 + eps once.
The public functions build one per call; a Newton iterate keeps its own,
so that its residual, tolerance scale, Hessian and energy share one cell
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import InvalidInputError, SingularityError
from .grid import DiscreteField


@dataclass(frozen=True)
class EnergySpec:
    """The pair (p, eps); eps = 0 is evaluation-only."""

    p: float
    eps: float = 0.0

    def __post_init__(self):
        # written so that NaN fails
        if not self.p > 1:
            raise InvalidInputError("p must exceed 1")
        if not self.eps >= 0:
            raise InvalidInputError("eps must be nonnegative")
        if not np.isfinite([self.p, self.eps]).all():
            raise InvalidInputError("p and eps must be finite")


# -- cell quantities ---------------------------------------------------------


def _check_differentiable(spec: EnergySpec, g2) -> None:
    if spec.eps > 0:
        return
    if spec.p < 2 and np.any(g2 == 0.0):
        raise SingularityError(
            "p < 2 with eps = 0 and a vanishing cell gradient: "
            "the integrand is not differentiable there"
        )


class _Cells:
    """One field's cell quantities at one (p, eps), each formed once: D u
    and |D u|^2 on construction, |D u|^2 + eps and phi'/g when first read.
    Everything else in this module is read off it; a Newton iterate holds
    one for as long as its field is current.  ``spec`` may be None where
    only D u is read (``q_energy``)."""

    def __init__(self, spec: EnergySpec, field: DiscreteField):
        self.spec = spec
        self.field = field
        self.grad = field.grid.cell_gradient(field.values)
        self.g2 = reduce(np.add, [g * g for g in self.grad])

    @cached_property
    def _shifted(self):
        return self.g2 + self.spec.eps

    @cached_property
    def _phi_d(self):
        """phi'(g) / g  =  p (g^2+eps)^{(p-2)/2}  as a function of g^2."""
        p = self.spec.p
        return p * self._shifted ** ((p - 2.0) / 2.0)

    def energy(self) -> float:
        meas = self.field.grid.cell_measure
        phi = self._shifted ** (self.spec.p / 2.0)
        return float(np.sum(phi.ravel() * np.ravel(meas)))

    def q_energy(self, q: float) -> float:
        return float(np.sum(self.g2 ** (q / 2.0) * self.field.grid.cell_measure))

    def residual_scale(self) -> float:
        grid = self.field.grid
        return float(np.max(self._phi_d * np.sqrt(self.g2)
                            * grid.cell_measure / grid.flux_spacing))

    def weak_residual(self, fixed_mask) -> np.ndarray:
        _check_differentiable(self.spec, self.g2)
        a = self._phi_d
        grid = self.field.grid
        meas = grid.cell_measure
        r = grid.cell_divergence([a * g * meas for g in self.grad])
        r[fixed_mask] = 0.0
        return r

    def blocks(self) -> list:
        """Hessian blocks B = a I + b g g^T of phi(|g|^2) in the cell
        gradient g as B[i][j]: a = phi'/g, b = p (p-2) (g^2+eps)^{(p-4)/2}."""
        p, grad, a = self.spec.p, self.grad, self._phi_d
        b = p * (p - 2.0) * self._shifted ** ((p - 4.0) / 2.0)
        B = [[None] * len(grad) for _ in grad]
        for i, gi in enumerate(grad):
            for j in range(i):
                B[i][j] = B[j][i] = b * (gi * grad[j])
            B[i][i] = a + b * (gi * gi)
        return B

    def local(self) -> np.ndarray:
        """K[a, b, c] = G^T (meas B) G, G the D coefficients of cell c."""
        grid = self.field.grid
        w = np.array([[np.ravel(bij * grid.cell_measure) for bij in row]
                      for row in self.blocks()])
        coef = grid.cell_structure.coef
        wg = np.einsum("ijc,jac->iac", w, coef)
        return np.einsum("iac,ibc->abc", coef, wg)


# -- energies ----------------------------------------------------------------


def energy(spec: EnergySpec, field: DiscreteField) -> float:
    """E_{p,eps}(u) = int (|grad u|^2 + eps)^{p/2} dv (cellwise)."""
    return _Cells(spec, field).energy()


def q_energy(field: DiscreteField, q: float) -> float:
    """int |grad u|^q dv."""
    if q <= 0:
        raise InvalidInputError("q must be positive")
    return _Cells(None, field).q_energy(q)


# -- first variation ---------------------------------------------------------


def residual_scale(spec: EnergySpec, field: DiscreteField) -> float:
    """Magnitude of the elementary fluxes entering weak_residual; the
    natural scale for a relative stopping tolerance."""
    return _Cells(spec, field).residual_scale()


def weak_residual(spec: EnergySpec, field: DiscreteField,
                  fixed_mask=None) -> np.ndarray:
    """Gradient of the discrete energy w.r.t. free node values.

    Entries at fixed (boundary) nodes are zero.
    """
    if fixed_mask is None:
        fixed_mask = field.grid.boundary_mask()
    return _Cells(spec, field).weak_residual(fixed_mask)


# -- second variation --------------------------------------------------------


def linearized_action(spec: EnergySpec, field: DiscreteField,
                      psi: DiscreteField, fixed_mask=None) -> np.ndarray:
    """Hessian at u applied to psi, both restricted to the free nodes:
    D^T (meas B D psi), matrix-free, as ``weak_residual`` is written."""
    if spec.eps <= 0:
        raise SingularityError("linearization requires eps > 0")
    grid = field.grid
    if fixed_mask is None:
        fixed_mask = grid.boundary_mask()
    dpsi = grid.cell_gradient(np.where(fixed_mask, 0.0, psi.values))
    meas = grid.cell_measure
    out = grid.cell_divergence([meas * sum(b * d for b, d in zip(row, dpsi))
                                for row in _Cells(spec, field).blocks()])
    out[fixed_mask] = 0.0
    return out


def hessian_diagonal(spec: EnergySpec, field: DiscreteField,
                     fixed_mask=None) -> np.ndarray:
    """Diagonal of the Hessian, 1 at fixed nodes: each cell's local
    diagonal K[a, a, c] summed at its node nodes[a, c]."""
    if spec.eps <= 0:
        raise SingularityError("linearization requires eps > 0")
    if fixed_mask is None:
        fixed_mask = field.grid.boundary_mask()
    K = _Cells(spec, field).local()
    diag = np.bincount(field.grid.cell_structure.nodes.ravel(),
                       np.einsum("aac->ac", K).ravel(), field.values.size)
    return np.where(fixed_mask, 1.0, diag.reshape(fixed_mask.shape))
