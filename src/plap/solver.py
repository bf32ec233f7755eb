"""Dirichlet solves for the perturbed p-Laplacian.

Damped Newton on the convex discrete energy.  Each Newton direction is a
direct solve with the energy Hessian on the free nodes, which is symmetric
and, for eps > 0 with the grid boundary fixed, positive definite: in 1D
one call of LAPACK's tridiagonal ``dgtsv`` on diagonals read off the
stencil, in 2D one call of LAPACK's band Cholesky ``dpbsv`` on the free
block, its band summed straight from the cell blocks: no sparse matrix
is built.  The grid cuts that block once per mask (``free_block``): the
free nodes with the shorter axis varying fastest, so the half-width is
at most that axis's length plus 1, and each local entry's band slot.  On
free blocks of a few thousand nodes a band method does less work than a
sparse factorization in a fill-reducing order (A. George & J. W. Liu,
Computer Solution of Large Sparse Positive Definite Systems, 1981); past
about 200^2 nodes its kd^2 N cost overtakes that.  A solve stops at the
residual tolerance ("tol"), or, where rounding keeps the residual above
it, after the step from a Newton decrement -r.d at the energy's rounding
level ("floor").  Both are relative, to the fluxes and to |E|, with no
absolute part, so data scaled by l solved at eps l^2 gives the solution
scaled by l.  Each iterate's cell quantities (``energy._Cells``) are
formed once: a line-search trial's energy, then, once accepted, its
residual, tolerance scale and band read the same D u.  The choice of
that linear solve and of the cold start (``_cold_start``) are the only
places the solver asks which kind of grid it has.  A solve given no start
begins in 1D at the eps = 0 discrete minimizer, which is in closed form,
and in 2D at the harmonic solve from the mean of the fixed values.

p-harmonic fields are reached as eps -> 0 along a path of warm-started
solves (``eps_path``): the cold start at the first eps, then one solve
per eps from the previous one.  In 1D the path is not needed for the
limit itself: ``eps0_minimizer`` is the eps = 0 minimizer, which
``capacity_numeric`` reads on a Grid1D.  The default path is the decade
path 1, 0.1, ..., 1e-5, then 2^-19 (``decade_schedule``); after the first
steps each decade costs a few Newton iterations (path following for the
p-Laplacian: S. Loisel, Numer. Math. 146, 2020).  A step of the path only
has to leave its iterate where the next eps's Newton converges fast, so
where only the last field is read (``capacity_numeric`` on a Grid2D)
every step but the last is loose: it stops at ``path_tol`` = 1e-3
relative ("path").
``epsilon_continuation`` is the same path plus W^{1,p} distances and
sandwich checks; the CLI ``continuation`` runs it on the halving schedule
``default_schedule``.

The closed-form radial extremals and two-end barriers are levels
u = c + s Phi of Phi(t) = int A^{-1/(p-1)}, both built by
``_radial_field``; every cell of the grid, and every point the analytic
descriptor is asked for, is integrated in one batched quadrature call
(``ModelManifold.phi_integral`` with array ends).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import ClassVar, Optional, Sequence

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv, dpbsv
# unused: only kept because perfbench/tracing.py wraps solver.solve_banded,
# solver.spsolve and solver.cg by name
from scipy.linalg import solve_banded  # noqa: F401
from scipy.sparse.linalg import cg, spsolve  # noqa: F401

from . import energy as en
from .energy import EnergySpec
from .errors import (
    InvalidInputError,
    NoBarrierError,
    NonConvergenceError,
)
from .geometry import EndKind, ModelManifold
from .grid import Analytic1D, DiscreteField, Grid1D, wp_distance

EPS_FLOOR = 1e-14
ARMIJO_C = 1e-4  # line search: sufficient-decrease constant
BACKTRACK_FACTOR = 0.5  # and step shrink per rejected trial
DECREMENT_FLOOR = 1e-20  # Newton decrement at rounding level, relative to E


def default_schedule(eps0: float = 1.0, steps: int = 20) -> np.ndarray:
    """eps0, eps0/2, ...: ``steps`` halvings, the CLI continuation's schedule."""
    return eps0 * 0.5 ** np.arange(steps)


def decade_schedule(eps: float) -> np.ndarray:
    """1, 0.1, 0.01, ... while above eps, then eps itself."""
    # 1/10^k is the double nearest 10^-k; 10.0 ** -k need not be
    decades = 1.0 / 10.0 ** np.arange(max(int(np.ceil(-np.log10(eps))), 0) + 1)
    return np.append(decades[decades > eps], eps)


@dataclass(frozen=True)
class SolveConfig:
    eps_schedule: Sequence[float] = dc_field(
        default_factory=lambda: decade_schedule(0.5 ** 19))
    residual_tol: ClassVar[float] = 1e-12
    # the tolerance of an intermediate step of a loose eps path, relative
    # to the residual scale like ``residual_tol``
    path_tol: ClassVar[float] = 1e-3
    max_newton_iters: int = 50

    def __post_init__(self):
        sched = np.asarray(self.eps_schedule, dtype=float)
        # written so that NaN fails, and inf before np.diff forms inf - inf
        if not (sched.size and np.all(np.isfinite(sched)) and np.all(sched > 0)
                and np.all(np.diff(sched) < 0)):
            raise InvalidInputError("eps schedule must be non-empty, finite, "
                                    "strictly decreasing, positive")
        if self.max_newton_iters < 1:
            raise InvalidInputError("max_newton_iters must be positive")


@dataclass
class SolveReport:
    steps: list = dc_field(default_factory=list)
    distances_to_final: list = dc_field(default_factory=list)
    consecutive_distances: list = dc_field(default_factory=list)
    sandwich: list = dc_field(default_factory=list)

    def add_step(self, eps, iters, residual, e_eps, e_p, stop):
        """``stop`` says why the solve ended: "tol" (residual at most its
        tolerance), "path" (a loose step of an eps path: residual at most
        ``path_tol`` times its scale), "floor" (a step taken from a Newton
        decrement at rounding level, residual above its tolerance) or
        "max_iters"."""
        self.steps.append(
            {"eps": eps, "iterations": iters, "residual": residual,
             "energy_eps": e_eps, "energy_p": e_p, "stop": stop}
        )


# ---------------------------------------------------------------------------
# boundary handling
# ---------------------------------------------------------------------------


def _normalize_boundary(grid, boundary):
    """Accepts (mask, values), or a scalar pair (ua, ub): the values at
    the grid's boundary nodes in order, which needs exactly two of them
    (the ends of a Grid1D)."""
    if np.isscalar(boundary[0]):
        mask = grid.boundary_mask()
        if len(boundary) != 2 or np.count_nonzero(mask) != 2:
            raise InvalidInputError(
                "a boundary pair (ua, ub) needs a grid with two boundary nodes")
        vals = np.zeros(grid.shape)
        vals[mask] = boundary
        return mask, vals
    mask, vals = boundary
    mask = np.asarray(mask, dtype=bool)
    vals = np.asarray(vals, dtype=float)
    if mask.shape != grid.shape or vals.shape != grid.shape:
        raise InvalidInputError("boundary mask and values must match the grid")
    if not np.all(mask[grid.boundary_mask()]):
        raise InvalidInputError("all grid boundary nodes must be fixed")
    if not np.all(np.isfinite(vals[mask])):
        raise InvalidInputError("boundary values must be finite")
    return mask, vals


# ---------------------------------------------------------------------------
# Newton step solvers
# ---------------------------------------------------------------------------


def _newton_direction(cells, mask, rhs):
    """Solve H_ff d_f = rhs_f for the energy Hessian H at the field of
    ``cells`` (an ``energy._Cells``); d is zero at the fixed nodes."""
    grid = cells.field.grid
    if isinstance(grid, Grid1D):
        # H is tridiagonal, read off the stencil: k on the diagonal and
        # sign(a) sign(b) k between a cell's nodes; fixed nodes become
        # identity rows cut off from their neighbours.  dgtsv, the LAPACK
        # routine solve_banded((1, 1), ...) calls, solves it in place on
        # diagonals built in the order of that band, with its finiteness
        # and singularity checks: the same bits without its copies
        k = (cells.blocks()[0][0] * grid.cell_measure
             / grid.cell_scale[0]**2)
        sa, sb = grid.cell_signs[0]
        diag = np.zeros(grid.n)
        diag[:-1] += k
        diag[1:] += k
        diag[mask] = 1.0
        off = np.where(mask[:-1] | mask[1:], 0.0, sa * sb * k)
        b = np.where(mask, 0.0, rhs)
        if not (np.isfinite(diag).all() and np.isfinite(off).all()
                and np.isfinite(b).all()):
            raise ValueError("array must not contain infs or NaNs")
        _, _, _, d, info = dgtsv(off, diag, off.copy(), b, True, True, True,
                                 True)
        if info > 0:
            raise LinAlgError("singular matrix")
        return d
    free, kd, slot = grid.free_block(mask)
    d = np.zeros(rhs.size)
    if free.size:
        # the free block is symmetric positive definite: LAPACK's band
        # Cholesky factors and solves it in upper band storage, which is
        # this (N, kd+1) sum of the cell blocks read as its transpose
        band = np.bincount(slot.ravel(), cells.local().ravel(),
                           free.size * (kd + 1) + 1)[:-1].reshape(-1, kd + 1)
        b = rhs.ravel()[free]
        if not (np.isfinite(band).all() and np.isfinite(b).all()):
            raise ValueError("array must not contain infs or NaNs")
        _, x, info = dpbsv(band.T, b, overwrite_ab=True, overwrite_b=True)
        if info > 0:
            raise LinAlgError(
                f"leading minor {info} of the free block is not positive "
                "definite")
        d[free] = x
    return d.reshape(rhs.shape)


# ---------------------------------------------------------------------------
# Dirichlet solve
# ---------------------------------------------------------------------------


def solve_dirichlet(spec: EnergySpec, grid, boundary,
                    cfg: Optional[SolveConfig] = None,
                    initial: Optional[np.ndarray] = None, *,
                    loose: bool = False):
    """Minimize E_{p,eps} over fields with the given fixed values.

    Returns (DiscreteField, SolveReport).  eps is floored at 1e-14.  A
    solve with no ``initial`` starts at ``_cold_start``.  A ``loose``
    solve stops at ``path_tol`` instead of ``residual_tol`` and reports
    "path": it is an intermediate step of a path, which only has to start
    the next.
    """
    cfg = cfg or SolveConfig()
    eps = max(spec.eps, EPS_FLOOR)
    if spec.eps <= 0:
        raise InvalidInputError("solve_dirichlet needs eps > 0")
    spec = EnergySpec(spec.p, eps)
    mask, vals = _normalize_boundary(grid, boundary)
    if initial is None:
        initial = _cold_start(spec.p, eps, grid, mask, vals, cfg)
    return _newton(spec, grid, mask, vals, initial, cfg, loose)


def eps0_minimizer(p: float, grid: Grid1D, mask, vals) -> np.ndarray:
    """The eps = 0 discrete minimizer of the p-energy on a Grid1D with
    the ``mask`` nodes fixed at ``vals``, in closed form.

    Each run of cells between two fixed nodes carries one flux, so u
    falls across cell c by the run's drop times w_c / sum w, with
    w_c = h_c abar_c^(-1/(p-1)) and abar_c = cell_measure / h the cell's
    mean area.  w is formed relative to the run's smallest abar, so it
    neither overflows nor underflows near p = 1.  Each node is formed
    from its nearer plate, by the sum of w from that plate, so that no
    value cancels against the far plate's; sum w is the two sides' sums
    plus the w of the cell between them, so that cell falls by its own
    share too.  With no manifold this is linear interpolation.
    """
    u = np.array(vals, dtype=float)
    abar = grid.cell_measure / grid.h
    fixed = np.flatnonzero(mask)
    for i, j in zip(fixed[:-1], fixed[1:]):
        if j - i > 1:
            w = (grid.h[i:j] * (abar[i:j] / abar[i:j].min())
                 ** (-1.0 / (p - 1.0)))
            # head[k], tail[k]: the sums of w left and right of node i + k
            head = np.concatenate(([0.0], np.cumsum(w)))
            tail = np.concatenate((np.cumsum(w[::-1])[::-1], [0.0]))
            left = head <= tail
            m = np.count_nonzero(left) - 1
            total = head[m] + w[m] + tail[m + 1]
            drop = vals[j] - vals[i]
            run = np.where(left, vals[i] + drop * (head / total),
                           vals[j] - drop * (tail / total))
            u[i + 1:j] = run[1:-1]
    return u


def _cold_start(p, eps, grid, mask, vals, cfg):
    """Where a solve at (p, eps) with no given start begins: on a Grid1D
    the eps = 0 discrete minimizer (``eps0_minimizer``), on a Grid2D the
    harmonic (p = 2) solve at eps from the mean of the fixed values."""
    if isinstance(grid, Grid1D):
        return eps0_minimizer(p, grid, mask, vals)
    u = np.array(vals, dtype=float)
    u[~mask] = float(np.mean(vals[mask]))
    return solve_dirichlet(EnergySpec(2.0, eps), grid, (mask, vals), cfg,
                           initial=u)[0].values


# an overflow shows up as a non-finite energy or residual, which raises
# NonConvergenceError, or as a trial energy the line search rejects
@np.errstate(over="ignore", invalid="ignore")
def _newton(spec, grid, mask, vals, initial, cfg, loose):
    """Damped Newton for E_{p,eps} from ``initial``, with the fixed nodes
    set to their values, to ``cfg.path_tol`` if ``loose``, else to
    ``cfg.residual_tol``.  A non-finite energy or residual raises
    NonConvergenceError."""
    report = SolveReport()
    rel_tol = cfg.path_tol if loose else cfg.residual_tol
    met = "path" if loose else "tol"
    eps = spec.eps
    u = np.array(initial, dtype=float)
    u[mask] = vals[mask]
    # the cell quantities of the current iterate; an accepted trial's
    # become the next iterate's, so each field's D u is formed once
    cells = en._Cells(spec, DiscreteField(grid, u))
    e_val = cells.energy()
    iters = 0
    floor = False
    while True:
        f = cells.field
        r = cells.weak_residual(mask)
        # tolerance relative to the elementary flux magnitude, with no
        # absolute part: E_{p,l^2 eps}(l u) = l^p E_{p,eps}(u), so data
        # scaled by l stops on the same iterate scaled by l.  The
        # residual's rounding floor grows with the fluxes (roughly like
        # 1/h).  A zero scale makes the tolerance 0: constant data meets
        # it on the constant (its cold start, or one step away), and the
        # floor stop ends any other such solve
        tol = rel_tol * cells.residual_scale()
        r_max = float(np.max(np.abs(r)))
        if not np.isfinite(e_val + r_max):
            # NaN fails every comparison below and would stop as "floor"
            raise NonConvergenceError(
                f"energy {e_val:.3e} or residual {r_max:.3e} is not finite",
                best=f, report=report)
        if r_max <= tol or floor:
            break
        if iters >= cfg.max_newton_iters:
            report.add_step(eps, iters, r_max, e_val,
                            cells.q_energy(spec.p), "max_iters")
            raise NonConvergenceError(
                f"Newton did not reach tol={tol:.3e} in "
                f"{cfg.max_newton_iters} iterations (residual {r_max:.3e})",
                best=f, report=report)
        d = _newton_direction(cells, mask, -r)
        # Newton decrement lam2 = -r.d estimates E - E_min; the step from
        # one at the energy's rounding level is the last that can help
        lam2 = -float(np.sum(r * d))
        floor = lam2 <= DECREMENT_FLOOR * abs(e_val)
        alpha = 1.0
        # rounding slack: near the optimum the true decrease drops below
        # the float resolution of the energy and pure Armijo stalls
        slack = 16.0 * np.finfo(float).eps * abs(e_val)
        while True:
            trial = en._Cells(spec, DiscreteField(grid, f.values + alpha * d))
            e_trial = trial.energy()
            if e_trial <= e_val - ARMIJO_C * alpha * lam2 + slack:
                break
            alpha *= BACKTRACK_FACTOR
            if alpha < 1e-14:
                raise NonConvergenceError("line search collapsed", best=f,
                                          report=report)
        cells, e_val = trial, e_trial
        iters += 1
    report.add_step(eps, iters, r_max, e_val, cells.q_energy(spec.p),
                    met if r_max <= tol else "floor")
    return f, report


def eps_path(p: float, grid, boundary, cfg: Optional[SolveConfig] = None,
             *, loose: bool = False):
    """Solve along the eps schedule with warm starts.

    The first eps is solved from no start, so from ``_cold_start``, and
    each later eps from the previous solution.  With ``loose``, every eps
    but the last is a loose solve ("path"), for callers that read only
    the last field.  Returns (list of DiscreteField, SolveReport with one
    step per eps).
    """
    cfg = cfg or SolveConfig()
    sched = np.asarray(cfg.eps_schedule, dtype=float)
    initial = None
    report = SolveReport()
    fields = []
    for i, eps in enumerate(sched):
        f, rep = solve_dirichlet(EnergySpec(p, eps), grid, boundary, cfg,
                                 initial=initial,
                                 loose=loose and i < sched.size - 1)
        report.steps.extend(rep.steps)
        fields.append(f)
        initial = f.values
    return fields, report


def epsilon_continuation(p: float, grid, boundary,
                         cfg: Optional[SolveConfig] = None):
    """``eps_path`` with W^{1,p} distances of every iterate to the final
    one and between consecutive iterates, and the sandwich check of each
    iterate against the final one.

    Returns (list of DiscreteField, SolveReport).
    """
    cfg = cfg or SolveConfig()
    fields, report = eps_path(p, grid, boundary, cfg)
    final = fields[-1]
    report.distances_to_final = [wp_distance(f, final, p) for f in fields]
    report.consecutive_distances = [
        wp_distance(fields[i], fields[i + 1], p) for i in range(len(fields) - 1)
    ]
    for f, eps in zip(fields, np.asarray(cfg.eps_schedule, dtype=float)):
        report.sandwich.append(sandwich_check(p, eps, final, f))
    return fields, report


def sandwich_check(p: float, eps: float, u: DiscreteField,
                   u_eps: DiscreteField) -> dict:
    """Verify E_p(u) <= E_p(u_eps) <= E_{p,eps}(u_eps) <= E_{p,eps}(u)."""
    if u.grid is not u_eps.grid:
        raise InvalidInputError("fields must share a grid")
    bmask = u.grid.boundary_mask()
    if not np.allclose(u.values[bmask], u_eps.values[bmask],
                       rtol=0.0, atol=1e-8 * (1.0 + np.max(np.abs(u.values)))):
        raise InvalidInputError("boundary values differ")
    ep_u = en.q_energy(u, p)
    ep_ue = en.q_energy(u_eps, p)
    epe_ue = en.energy(EnergySpec(p, eps), u_eps)
    epe_u = en.energy(EnergySpec(p, eps), u)
    chain = [ep_u, ep_ue, epe_ue, epe_u]
    tol = 1e-8 * (1.0 + max(abs(v) for v in chain))
    ok = all(chain[i] <= chain[i + 1] + tol for i in range(3))
    return {"E_p(u)": ep_u, "E_p(u_eps)": ep_ue,
            "E_p_eps(u_eps)": epe_ue, "E_p_eps(u)": epe_u,
            "tolerance": tol, "pass": ok}


# ---------------------------------------------------------------------------
# closed-form radial solutions
# ---------------------------------------------------------------------------


def _phi_on_nodes(M: ModelManifold, p: float, nodes: np.ndarray) -> np.ndarray:
    """Cumulative int_{t0}^{t} A^{-1/(p-1)} on the node set, from one
    batched quadrature over all cells."""
    cells = M.phi_integral(p, nodes[:-1], nodes[1:])
    return np.cumsum(np.concatenate(([0.0], cells)))


def _radial_field(M: ModelManifold, p: float, grid: Grid1D,
                  phi: np.ndarray, scale: float, level) -> DiscreteField:
    """The field u = level(Phi) on ``grid``, from Phi's node values
    ``phi``, with its analytic descriptor: u(t) for any t reads Phi at
    the last node at or below t (the first node, for t below the grid)
    plus the integral from that node to t, negative below the grid;
    u' = scale A^(-1/(p-1)) and u''.  At the nodes u is level(phi)
    exactly."""
    nodes = grid.nodes
    expo = -1.0 / (p - 1.0)

    def u(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        k = np.clip(np.searchsorted(nodes, t, side="right") - 1,
                    0, nodes.size - 1)
        ph = phi[k]
        off = t != nodes[k]
        a, b = nodes[k[off]], t[off]
        ph[off] += np.sign(b - a) * M.phi_integral(p, np.minimum(a, b),
                                                   np.maximum(a, b))
        out = level(ph)
        return out if out.size > 1 else float(out[0])

    def du(t):
        return scale * np.asarray(M.area(t)) ** expo

    def d2u(t):
        A = np.asarray(M.area(t))
        return scale * expo * A ** (expo - 1.0) * np.asarray(M.area_d1(t))

    return DiscreteField(grid, level(phi),
                         analytic=Analytic1D(u=u, du=du, d2u=d2u))


def radial_p_harmonic(M: ModelManifold, p: float, a: float, b: float,
                      u_a: float, u_b: float, n: int = 257) -> DiscreteField:
    """Exact extremal of the p-energy between levels u_a at a, u_b at b.

    u(t) = u_a + (u_b - u_a) Phi(t) / Phi(b) with
    Phi(t) = int_a^t A^{-1/(p-1)} ds; carries an analytic descriptor.
    """
    if not a < b:
        raise InvalidInputError("need a < b")
    grid = Grid1D.uniform(a, b, n, manifold=M)
    phi = _phi_on_nodes(M, p, grid.nodes)
    scale = (u_b - u_a) / phi[-1]
    return _radial_field(M, p, grid, phi, scale, lambda ph: u_a + scale * ph)


def two_end_barrier(M: ModelManifold, p: float, t_min: float, t_max: float,
                    n: int = 513):
    """Barrier h = Phi(t)/Phi(+inf), Phi(t) = int_{-inf}^t A^{-1/(p-1)}.

    Requires both ends p-hyperbolic.  Returns (field, metadata) with
    metadata sup/inf over the grid and E_p = Phi(inf)^{1-p}.
    """
    for direction in (+1, -1):
        if M.classify_end(p, direction) != EndKind.HYPERBOLIC:
            raise NoBarrierError(
                f"end toward {'+' if direction > 0 else '-'}inf is p-parabolic; "
                "no two-end barrier exists")
    grid = Grid1D.uniform(t_min, t_max, n, manifold=M)
    phi_left = M.phi_integral(p, -np.inf, t_min)
    phi = phi_left + _phi_on_nodes(M, p, grid.nodes)
    phi_total = phi[-1] + M.phi_integral(p, t_max, np.inf)
    f = _radial_field(M, p, grid, phi, 1.0 / phi_total,
                      lambda ph: ph / phi_total)
    vals = f.values
    meta = {
        "sup": float(vals.max()),
        "inf": float(vals.min()),
        "E_p": float(phi_total ** (1.0 - p)),
        "phi_total": float(phi_total),
    }
    return f, meta


def maximum_principle_holds(f: DiscreteField, boundary) -> bool:
    mask, vals = _normalize_boundary(f.grid, boundary)
    lo, hi = vals[mask].min(), vals[mask].max()
    pad = 1e-12 * (1.0 + hi - lo)
    return bool(np.all(f.values >= lo - pad) and np.all(f.values <= hi + pad))
