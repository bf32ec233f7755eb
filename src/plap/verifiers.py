"""Numerical checks of the pointwise identities and integral estimates.

The pointwise checks (Kato ratio, strong form, Bochner identities) are
each one formula in the grid's nodal calculus (``fd_gradient``,
``fd_hessian``, ``grad_norm``, ``hess_sq``, ``laplacian``, ``ricci``: of
a radial field on the attached model manifold in 1D, of a flat field in
2D), so none asks which kind of grid it has.  ``_jet`` reads the jet off
a closed-form descriptor that has it, else differences it; ``_kept``
keeps the nodes outside a collar cut off each end of every axis where
|grad u| > 1e-8 of its maximum there.  The Bochner check's L_eps is the
energy Hessian itself (``energy.linearized_action``).

A check's numbers become a ``VerifierReport`` in one of three ways:
- ratio (``kato_ratio``): the per-node ratio against 1 + kappa - 1e-3;
- identity (``_identity``): the residual |lhs - rhs| at the kept nodes
  against tol * scale, scale = max |lhs| + max |rhs| + 1 there; tol is
  1e-8 (rounding level) for the closed-form ``bochner_s_residual`` and
  1e-2 (truncation level) for the differenced strong form and Bochner
  residuals;
- inequality (``_margins``): the margins rhs - lhs against threshold 0.
``excluded`` counts every node a nodal check did not read, collar
included.
"""

from __future__ import annotations

import contextvars
import math
import os
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from . import energy as en
from .energy import EnergySpec
from .errors import (
    ConstantsInfeasibleError,
    InvalidInputError,
    NoDataError,
    SingularityError,
    UnsupportedVariantError,
)
from .geometry import (
    ModelManifold,
    PolyEven,
    _decays,
    _gauss_kronrod,
    euclidean,
    warped,
)
from .grid import Analytic1D, DiscreteField, Grid1D, Grid2D, integrate_field


def kappa(p: float, m: int, variant: str = "RefinedKS") -> float:
    """Kato-improvement constant; three published strengths."""
    if not p > 1:
        raise InvalidInputError(f"kappa needs p > 1, got p = {p:g}")
    if m < 2:
        raise InvalidInputError(f"kappa needs dimension m >= 2, got m = {m}")
    v = variant.rstrip("'")
    q = (p - 1.0) ** 2
    if v == "Theorem1":
        if p <= 2:
            return q / (m - 1.0)
        return max(1.0 / (m - 1.0), min(q / m, 1.0))
    if v == "RefinedKS":
        return min(q / (m - 1.0), 1.0)
    if v == "WeakKa":
        return 1.0 / (m - 1.0) if p >= 2 else q / (m - 1.0)
    raise InvalidInputError(f"unknown kappa variant {variant!r}")


@dataclass
class VerifierReport:
    name: str
    minimum: float
    maximum: float
    mean: float
    threshold: float
    passed: bool
    excluded: int = 0
    details: dict = dc_field(default_factory=dict)


# ---------------------------------------------------------------------------
# reductions: how a check's numbers become a report
# ---------------------------------------------------------------------------


# identity tolerances, of scale: differenced residuals stay below 1.3e-3
# at a gallery or test field's own p; gallery fields reach 1.3e-2 at p±0.1
_EXACT_TOL = 1e-8
_DIFFERENCED_TOL = 1e-2


def _dot(a, b):
    """Nodewise inner product of two gradients given as component lists."""
    return sum(x * y for x, y in zip(a, b))


def _jet(u: DiscreteField, order: int):
    """(derivatives, exact): u's first ``order`` nodal derivatives as
    component lists ([u'] or [u_x, u_y], [u''] or [u_xx, u_xy, u_yy],
    [u''']), read off the closed-form descriptor when it has all of
    them, else the first two differenced."""
    a = u.analytic
    closed = [] if a is None else [a.du, a.d2u, a.d3u][:order]
    if closed and None not in closed:
        return [[np.asarray(d(u.grid.nodes), float)] for d in closed], True
    grad = u.grid.fd_gradient(u.values)
    return [grad, u.grid.fd_hessian(grad)][:order], False


def _kept(grid, grad_mag, collar: int) -> np.ndarray:
    """The nodes outside a collar of ``collar`` nodes at each end of every
    axis where |grad u| > 1e-8 max |grad u| over those nodes; all of
    them where u is flat there."""
    inner = tuple(slice(collar, n - collar) for n in grid.shape)
    keep = np.zeros(grid.shape, dtype=bool)
    top = np.max(grad_mag[inner], initial=0.0)
    keep[inner] = grad_mag[inner] > 1e-8 * top if top > 0 else True
    return keep


def _identity(name, lhs, rhs, keep, tol, /, **details) -> VerifierReport:
    """lhs = rhs at the kept nodes: the residual |lhs - rhs| against
    tol * scale, scale = max |lhs| + max |rhs| + 1 over those nodes."""
    lhs, rhs = lhs[keep], rhs[keep]
    res = np.abs(lhs - rhs)
    scale = float(np.max(np.abs(lhs)) + np.max(np.abs(rhs)) + 1.0)
    return VerifierReport(
        name=name, minimum=float(res.min()), maximum=float(res.max()),
        mean=float(res.mean()), threshold=tol * scale,
        passed=bool(np.max(res) <= tol * scale),
        excluded=int(keep.size - keep.sum()),
        details={**details, "scale": scale})


def _margins(name, lhs, rhs, slack, /, **details) -> VerifierReport:
    """lhs <= rhs, one inequality or many: the margins rhs - lhs against
    threshold 0, passing when every lhs <= rhs + slack."""
    lhs, rhs = np.asarray(lhs, float), np.asarray(rhs, float)
    margin = rhs - lhs
    return VerifierReport(
        name=name, minimum=float(margin.min()), maximum=float(margin.max()),
        mean=float(margin.mean()), threshold=0.0,
        passed=bool(np.all(lhs <= rhs + slack)), details=details)


# ---------------------------------------------------------------------------
# Kato ratio
# ---------------------------------------------------------------------------


def kato_ratio(u: DiscreteField, p: float, collar: int = 2) -> VerifierReport:
    """Per-node |Hess u|^2 / |grad|grad u||^2 at the kept nodes against
    1 + kappa(p, m, RefinedKS) - 1e-3; a closed-form jet needs no collar,
    and a vanishing denominator counts as +inf (the bound holds
    vacuously)."""
    g = u.grid
    thr = 1.0 + kappa(p, g.dim, "RefinedKS") - 1e-3
    if collar < 0:
        raise InvalidInputError("collar must be a node count >= 0")
    (grad, hess), exact = _jet(u, 2)
    grad_mag = g.grad_norm(grad)
    # the collar cuts off the one-sided end stencils of a differenced jet
    keep = _kept(g, grad_mag, 0 if exact else collar)
    if not grad_mag[keep].any():
        raise NoDataError("every node is gradient-degenerate or in the collar")
    num = g.hess_sq(grad, hess)[keep]
    # |grad f| for f = |grad u|: difference f itself, per the statement
    df = g.fd_gradient(grad_mag)
    den = _dot(df, df)[keep]
    ratio = np.full(num.shape, np.inf)
    nz = den > 0
    ratio[nz] = num[nz] / den[nz]
    finite = ratio[np.isfinite(ratio)]
    mean = float(finite.mean()) if finite.size else np.inf
    return VerifierReport(
        name="kato_ratio",
        minimum=float(ratio.min()), maximum=float(ratio.max()), mean=mean,
        threshold=thr, passed=bool(np.all(ratio >= thr)),
        excluded=int(keep.size - keep.sum()),
        details={"m": g.dim, "p": p, "vacuous": int(np.sum(~nz))})


# ---------------------------------------------------------------------------
# strong form
# ---------------------------------------------------------------------------


def strong_form_residual(u: DiscreteField, p: float) -> VerifierReport:
    """f^2 Delta u = -(p-2)/2 <grad f^2, grad u>, f = |grad u|: the strong
    form of the p-Laplace equation, differenced.  Two nodes are dropped
    at each end of every axis, where nested one-sided stencils are only
    1st order; the residual then decays at 2nd order under refinement."""
    g = u.grid
    grad = g.fd_gradient(u.values)
    f2 = _dot(grad, grad)
    lhs = f2 * g.laplacian(grad, g.fd_hessian(grad))
    rhs = -_dot([0.5 * (p - 2.0) * d for d in g.fd_gradient(f2)], grad)
    return _identity("strong_form_residual", lhs, rhs,
                     _kept(g, g.grad_norm(grad), 2), _DIFFERENCED_TOL, p=p)


# ---------------------------------------------------------------------------
# Bochner residuals
# ---------------------------------------------------------------------------


def bochner_residual(u: DiscreteField, p: float, eps: float) -> VerifierReport:
    """Residual of the perturbed Bochner identity

        1/2 L_eps(f_eps^2) = (p-2)/4 f^{p-4}|grad f^2|^2
                             + f^{p-2}(|Hess u|^2 + Ric(grad u, grad u))

    with f_eps^2 = |grad u|^2 + eps.  L_eps is the energy Hessian H:
    H = -p M L_eps with M the lumped mass (the grid's node weights), so
    the left side is -H(f_eps^2) / (2 p M).  Two nodes are dropped at
    each end of every axis; ring 1 is the only one whose stencil reads
    boundary values.  The residual then decays at first order in 1D and
    at second order in 2D under refinement."""
    if not np.isfinite(eps):
        raise InvalidInputError("eps must be finite")
    g = u.grid
    grad = g.fd_gradient(u.values)
    w = _dot(grad, grad) + eps
    # EnergySpec rejects p <= 1 and eps < 0, the action eps = 0
    lhs = -0.5 * en.linearized_action(EnergySpec(p, eps), u,
                                      DiscreteField(g, w)) / (p * g.weights)
    dw = g.fd_gradient(w)
    rhs = (0.25 * (p - 2.0) * w ** ((p - 4.0) / 2.0) * _dot(dw, dw)
           + w ** ((p - 2.0) / 2.0)
           * (g.hess_sq(grad, g.fd_hessian(grad)) + g.ricci(grad)))
    return _identity("bochner_residual", lhs, rhs,
                     _kept(g, g.grad_norm(grad), 2), _DIFFERENCED_TOL,
                     p=p, eps=eps)


def bochner_s_residual(u: DiscreteField, p: float, s: float,
                       eps: float) -> VerifierReport:
    """Termwise residual of the generalized five-term identity

      1/2 L_{s,eps}(f^2) = s/4 f^{s-2}|grad f^2|^2
        + f^s (|Hess u|^2 + Ric(grad u, grad u))
        + (p-2)(s-p+2)/4 f^{s-4} <grad u, grad f^2>^2
        + eps (f^{s-2}<grad u, grad(Delta u)>
               + (p-4)/2 f^{s-4} <grad u, grad f^2> Delta u)

    Requires an analytic descriptor with third derivatives: everything
    is evaluated in closed form at every node, so the residual must sit
    at rounding level for strongly p-harmonic u."""
    if not eps > 0:
        raise SingularityError("eps must be positive")
    if not np.isfinite([s, eps]).all():
        raise InvalidInputError("s and eps must be finite")
    jet, exact = _jet(u, 3)
    if not exact:
        raise InvalidInputError(
            "needs an analytic descriptor with u', u'', u'''")
    (du,), (d2u,), (d3u,) = jet
    grid = u.grid
    M = grid.manifold
    t = grid.nodes
    ell, ell1 = ((M.log_area_d1(t), M.log_area_d2(t)) if M is not None
                 else (0.0, 0.0))
    w = du * du + eps
    dw = 2.0 * du * d2u
    d2w = 2.0 * (d2u * d2u + du * d3u)
    # LHS: 1/2 (1/A)(A G dw)' with G = w^{s/2} + (p-2) w^{s/2-1} u'^2
    G = w ** (s / 2.0) + (p - 2.0) * w ** (s / 2.0 - 1.0) * du * du
    dG = (0.5 * s * w ** (s / 2.0 - 1.0) * dw
          + (p - 2.0) * ((s / 2.0 - 1.0) * w ** (s / 2.0 - 2.0) * dw * du * du
                         + w ** (s / 2.0 - 1.0) * 2.0 * du * d2u))
    lhs = 0.5 * (dG * dw + G * d2w + ell * G * dw)
    hess_sq = grid.hess_sq([du], [d2u])
    lap = d2u + ell * du
    dlap = d3u + ell * d2u + ell1 * du
    rhs = (0.25 * s * w ** (s / 2.0 - 1.0) * dw**2
           + w ** (s / 2.0) * (hess_sq + grid.ricci([du]))
           + 0.25 * (p - 2.0) * (s - p + 2.0) * w ** (s / 2.0 - 2.0)
           * (du * dw) ** 2
           + eps * (w ** (s / 2.0 - 1.0) * du * dlap
                    + 0.5 * (p - 4.0) * w ** (s / 2.0 - 2.0) * du * dw * lap))
    return _identity("bochner_s_residual", lhs, rhs, np.ones(t.shape, bool),
                     _EXACT_TOL, p=p, s=s, eps=eps)


# ---------------------------------------------------------------------------
# Caccioppoli estimates
# ---------------------------------------------------------------------------


def caccioppoli_check(w: DiscreteField, psi: DiscreteField,
                      p: float) -> VerifierReport:
    """||psi grad w||_p <= p ||grad psi . w||_p for positive p-subharmonic w."""
    if w.grid is not psi.grid:
        raise InvalidInputError("w and psi must share a grid")
    support = psi.values != 0.0
    if np.any(w.values[support] <= 0.0):
        raise InvalidInputError("w must be positive on the support of psi")
    if w.analytic is None:
        # weak subharmonicity: the energy gradient must be <= 0 at
        # interior nodes (up to FD noise)
        r = en.weak_residual(EnergySpec(p, 1e-300 if p < 2 else 0.0), w)
        scale = float(np.max(np.abs(r))) + 1e-300
        if np.any(r > 1e-6 * scale + 1e-12):
            raise InvalidInputError("w is not p-subharmonic on this grid")
    grid = w.grid
    gw, gpsi = (grid.grad_norm(_jet(f, 1)[0][0]) for f in (w, psi))
    lhs = integrate_field((np.abs(psi.values) * gw) ** p, grid) ** (1.0 / p)
    rhs = p * integrate_field((gpsi * np.abs(w.values)) ** p, grid) ** (1.0 / p)
    return _margins("caccioppoli", lhs, rhs, 1e-9 * (rhs + 1.0),
                    lhs=lhs, rhs=rhs, p=p)


def weighted_caccioppoli_constants(p: float, kappa_val: float, tau: float,
                                   eps1: float, eps2: float):
    """(B, C) from the weighted Caccioppoli proof; C must be positive."""
    if not (0 < eps1 and 0 < eps2 < 1):
        raise InvalidInputError("need eps1 > 0 and 0 < eps2 < 1")
    base = (p - 1.0 + kappa_val - eps1) / p**2
    if base <= 0:
        raise ConstantsInfeasibleError(
            "eps1 too large: p - 1 + kappa - eps1 must stay positive")
    B = (1.0 + abs(p - 2.0)) ** 2 / eps1 + 4.0 * (1.0 / eps2 - 1.0) * base
    C = 4.0 * (1.0 - eps2) * base - tau
    if C <= 0:
        raise ConstantsInfeasibleError(
            f"C = {C:.6g} <= 0 for (tau, eps1, eps2) = "
            f"({tau}, {eps1}, {eps2})")
    return B, C


def weighted_caccioppoli_check(M: ModelManifold, p: float,
                               u_eps: DiscreteField, eps: float,
                               kappa_val: float, tau: float,
                               eps1: float, eps2: float,
                               R: float) -> VerifierReport:
    """C int_{B(R)} rho |grad u|^p <= (100 B / R^2) int_{shell} (|grad u|^2+eps)^{p/2}.

    B(R) is the interval |t| <= R; the field must cover B(2R).
    """
    grid = u_eps.grid
    if not isinstance(grid, Grid1D) or grid.manifold is not M:
        raise InvalidInputError("field must live on a 1D grid over M")
    t = grid.nodes
    if t[0] > -2.0 * R or t[-1] < 2.0 * R:
        raise InvalidInputError("field must cover B(2R)")
    rho = M.weight_rho(t)
    # Ric >= -tau rho must hold pointwise for the estimate's hypotheses
    ric_unit = M.radial_ricci_term(t, np.ones_like(t))
    if np.any(ric_unit < -tau * rho - 1e-12 * (1.0 + np.abs(rho))):
        raise InvalidInputError("Ric >= -tau rho fails on the grid")
    B, C = weighted_caccioppoli_constants(p, kappa_val, tau, eps1, eps2)
    (du,) = grid.fd_gradient(u_eps.values)
    inner = np.abs(t) <= R
    shell = (np.abs(t) > R) & (np.abs(t) <= 2.0 * R)
    lhs = C * integrate_field(np.where(inner, rho * np.abs(du) ** p, 0.0), grid)
    rhs = (100.0 * B / R**2) * integrate_field(
        np.where(shell, (du * du + eps) ** (p / 2.0), 0.0), grid)
    return _margins("weighted_caccioppoli", lhs, rhs, 1e-9 * rhs,
                    B=B, C=C, lhs=lhs, rhs=rhs, margin=rhs - lhs)


# ---------------------------------------------------------------------------
# vector inequalities
# ---------------------------------------------------------------------------


# rows of a sample evaluated together: the block's (3, k) component
# arrays and temporaries stay in cache
_BLOCK = 8192


def _gap(X, Y, nx, ny, p: float):
    """(lhs, psi) for component-major pairs: X, Y of shape (d, k), one
    row per component, and their norms nx, ny of shape (k,).

    lhs = <X-Y, |X|^{p-2}X - |Y|^{p-2}Y> and Psi = |X-Y|^p for p >= 2,
    (p-1)|X-Y|^2 (1+|X|^2+|Y|^2)^{(p-2)/2} for p < 2.  The power is
    taken only where the norm is positive; a zero vector contributes 0."""
    ax = np.power(nx, p - 2.0, out=np.zeros_like(nx), where=nx > 0)
    ay = np.power(ny, p - 2.0, out=np.zeros_like(ny), where=ny > 0)
    diff = X - Y
    lhs = _dot(diff, ax * X - ay * Y)
    d = np.sqrt(_dot(diff, diff))
    if p >= 2:
        psi = d**p
    else:
        psi = (p - 1.0) * d**2 / (1.0 + nx**2 + ny**2) ** ((2.0 - p) / 2.0)
    return lhs, psi


def _norm(Z):
    """Row norms of a component-major array."""
    return np.sqrt(_dot(Z, Z))


def monotonicity_gap(X, Y, p: float) -> dict:
    """<X-Y, |X|^{p-2}X - |Y|^{p-2}Y> against the comparison term Psi;
    floats for a single pair of vectors, arrays over rows otherwise."""
    squeeze = max(np.ndim(X), np.ndim(Y)) <= 1
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape != Y.shape:
        raise InvalidInputError("X and Y must have equal shapes")
    X, Y = np.moveaxis(X, -1, 0), np.moveaxis(Y, -1, 0)
    lhs, psi = _gap(X, Y, _norm(X), _norm(Y), p)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(psi > 0, lhs / psi, np.inf)
    out = {"lhs": lhs, "psi": psi, "ratio": ratio}
    if squeeze:
        out = {k: float(v.reshape(-1)[0]) for k, v in out.items()}
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _monotonicity_p(p: float, n: int, seed: int, blocks) -> dict:
    """One p of ``monotonicity_suite``: the sweep on the sample of
    ``seed``, then the half-constant recheck on the sample of seed + 1."""
    dim = 3
    rng = np.random.default_rng(seed)
    n_adv = n // 10
    # two adversarial blocks of n_adv rows each, then normal pairs, drawn
    # in place (the same bits as rng.normal(scale=3.0)) with no second copy
    X, Y = np.empty((n, dim)), np.empty((n, dim))
    for Z in (X, Y):
        rng.standard_normal(out=Z[2 * n_adv:])
        Z[2 * n_adv:] *= 3.0
    X[:n_adv] = rng.normal(scale=3.0, size=(n_adv, dim))
    Y[:n_adv] = X[:n_adv] * (1.0 + rng.normal(scale=1e-6, size=(n_adv, 1)))
    X[n_adv:2 * n_adv] = rng.normal(scale=3.0, size=(n_adv, dim))
    Y[n_adv:2 * n_adv] = X[n_adv:2 * n_adv] * rng.uniform(
        -1.5, 1.5, size=(n_adv, 1))
    neg = zero_bad = 0
    c_emp = np.inf
    for rows in blocks:
        xb, yb = X[rows].T.copy(), Y[rows].T.copy()
        for Z in (xb, yb):
            # clip to |Z| <= 10
            nz = _norm(Z)
            np.divide(Z, nz / 10.0, out=Z, where=nz > 10.0)
        nx, ny = _norm(xb), _norm(yb)
        lhs, psi = _gap(xb, yb, nx, ny, p)
        # per-pair rounding floor: lhs is assembled by subtraction, so
        # values below eps_mach * (|X|+|Y|)^p are indistinguishable from 0
        floor = 1e-12 * ((nx + ny) ** p + 1.0)
        neg += int(np.sum(lhs < -floor))
        eq = np.all(xb == yb, axis=0)
        resolved = psi > floor
        zero_bad += int(np.sum((lhs <= 0) & ~eq & resolved))
        ratio = lhs[resolved] / psi[resolved]
        c_emp = min(c_emp, float(np.min(ratio[np.isfinite(ratio)],
                                        initial=np.inf)))
    # other p values are in flight: free this sample before drawing the next
    del X, Y
    rng2 = np.random.default_rng(seed + 1)
    X2 = rng2.normal(scale=3.0, size=(n, dim))
    Y2 = rng2.normal(scale=3.0, size=(n, dim))
    recheck = True
    for rows in blocks:
        xb, yb = X2[rows].T.copy(), Y2[rows].T.copy()
        lhs, psi = _gap(xb, yb, _norm(xb), _norm(yb), p)
        recheck &= bool(np.all(lhs >= 0.5 * c_emp * psi
                               - 1e-13 * (1.0 + np.abs(lhs))))
    return {"violations": neg, "zero_off_diagonal": zero_bad,
            "C_emp": c_emp, "half_constant_recheck": recheck,
            "ok": neg == 0 and zero_bad == 0 and recheck}


def monotonicity_suite(p_values=(1.5, 2.0, 3.0, 4.0), n: int = 100_000,
                       seed: int = 0) -> dict:
    """Random-pair sweep over vectors in R^3: lhs >= 0, zero only at
    X = Y, and the empirical constant C_emp = min ratio re-verified at
    half strength on a fresh sample.  Adversarial near-equal and
    near-collinear pairs included.

    The sample is fixed by ``seed`` (the p at index ip draws from its own
    streams, seed + 1000 ip and one more for the recheck) and is drawn
    whole; it is then evaluated in blocks of ``_BLOCK`` rows, transposed
    to component-major arrays.  Violations are counted and C_emp is a
    running minimum over the blocks, so the results do not depend on the
    block size.

    Each p is one task on a thread pool of min(len(p_values), usable
    CPUs) workers, run in a copy of the caller's context (numpy's
    ``errstate`` included: a context variable from numpy 2.0 on).  A task shares nothing with another, so the
    results do not depend on the worker count; they are collected in
    ``p_values`` order (a repeated p keeps its later result), and the
    first p in that order whose task raised raises here."""
    if n < 1:
        raise InvalidInputError("monotonicity_suite needs n >= 1")
    # imported here: a launch that never sweeps does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    blocks = [slice(i, i + _BLOCK) for i in range(0, n, _BLOCK)]
    workers = max(1, min(len(p_values), _usable_cpus()))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        tasks = [pool.submit(contextvars.copy_context().run, _monotonicity_p,
                             p, n, seed + 1000 * ip, blocks)
                 for ip, p in enumerate(p_values)]
        results = {p: task.result() for p, task in zip(p_values, tasks)}
    results["ok"] = all(results[p]["ok"] for p in p_values)
    return results


def _regularization(nx, ny, eps, p, delta1):
    """(a, delta, lhs, rhs) of regularization_gap: floats, nx >= ny."""
    if p <= 2:
        a, delta = 1.0, 0.0
    else:
        q = math.ceil(p / 2.0) - 1
        x = p * eps / delta1**2
        a = 1.0 + sum(x**k / math.factorial(k) for k in range(1, q + 1))
        delta = sum(x**k for k in range(1, q + 1)) * delta1**p
    lhs = (nx**2 + eps) ** (p / 2.0) - (ny**2 + eps) ** (p / 2.0)
    return a, delta, lhs, a * (nx**p - ny**p) + delta


def regularization_gap(X, Y, eps: float, p: float,
                       delta1: float) -> VerifierReport:
    """(|X|^2+eps)^{p/2} - (|Y|^2+eps)^{p/2} <= a (|X|^p - |Y|^p) + delta
    with the proof's explicit (a, delta) for the branch 2q < p <= 2q+2."""
    # written so that NaN fails them
    if not (eps >= 0 and delta1 > 0):
        raise InvalidInputError("need eps >= 0 and delta1 > 0")
    # an overflowing norm is inf, rejected below, and not a warning first
    with np.errstate(over="ignore"):
        nx = float(np.linalg.norm(np.asarray(X, dtype=float)))
        ny = float(np.linalg.norm(np.asarray(Y, dtype=float)))
    if not all(map(math.isfinite, (eps, p, delta1, nx, ny))):
        raise InvalidInputError(
            "eps, p, delta1 and the norms of X and Y must be finite")
    if nx < ny:
        raise InvalidInputError("requires |X| >= |Y|")
    if not p >= 1:
        raise InvalidInputError("p must be >= 1")
    try:
        a, delta, lhs, rhs = _regularization(nx, ny, eps, p, delta1)
    except ArithmeticError:
        # float ** and int-to-float raise where a large p leaves the range
        raise InvalidInputError(
            "the inequality's terms leave the float range") from None
    return _margins("regularization_gap", lhs, rhs, _gap_slack(rhs),
                    a=a, delta=delta, lhs=lhs, rhs=rhs)


def _gap_slack(rhs):
    return 1e-12 * (1.0 + np.abs(rhs))  # regularization_gap's rounding


def regularization_suite(n: int = 10_000, seed: int = 0) -> VerifierReport:
    """regularization_gap's arithmetic on n pairs drawn in this order from
    one stream: p ~ U(1, 6), X, Y ~ N(0, I_3) swapped so |X| >= |Y|,
    eps ~ U(0, 1), delta1 ~ U(0.1, 2).  Bounds: least and greatest margin."""
    if n < 1:
        raise InvalidInputError("regularization_suite needs n >= 1")
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        p = rng.uniform(1.0, 6.0)
        ny, nx = sorted(float(np.linalg.norm(rng.normal(size=3)))
                        for _ in "XY")
        pairs.append(_regularization(nx, ny, rng.uniform(0, 1), p,
                                     rng.uniform(0.1, 2.0))[2:])
    lhs, rhs = np.array(pairs).T
    slack = _gap_slack(rhs)
    return _margins("regularization_gap", lhs, rhs, slack,
                    violations=int(np.sum(~(lhs <= rhs + slack))))


def weighted_poincare_check(M: ModelManifold,
                            fields: Sequence[DiscreteField]) -> VerifierReport:
    """int rho Psi^2 dv <= int |grad Psi|^2 dv for compactly supported Psi
    on an admissible warped product."""
    if M.variant != "warped":
        raise UnsupportedVariantError(
            "the weighted inequality needs a warped product (rho undefined "
            "on the Euclidean variant)")
    if not fields:
        raise InvalidInputError("no test functions supplied")
    rows = []
    for f in fields:
        grid = f.grid
        if not isinstance(grid, Grid1D) or grid.manifold is not M:
            raise InvalidInputError("test functions must live on 1D grids over M")
        if f.values[0] != 0.0 or f.values[-1] != 0.0:
            raise InvalidInputError("test functions must vanish at the grid ends")
        adm = M.admissibility_check(grid.nodes)
        if not adm["ok"]:
            raise InvalidInputError(
                f"manifold fails admissibility: {adm['violations'][:3]}")
        rho = M.weight_rho(grid.nodes)
        lhs = integrate_field(rho * f.values**2, grid)
        g = grid.grad_norm(_jet(f, 1)[0][0])
        rows.append((lhs, integrate_field(g * g, grid)))
    lhs, rhs = np.array(rows).T
    return _margins("weighted_poincare", lhs, rhs,
                    1e-9 * (np.max(np.abs(rhs)) + 1.0), pairs=rows)


# ---------------------------------------------------------------------------
# examples with closed forms
# ---------------------------------------------------------------------------


def analytic_q_energy(M: ModelManifold, du, q: float,
                      a: float = -np.inf, b: float = np.inf) -> float:
    """int_a^b |u'(t)|^q A(t) dt by the geometry's adaptive quadrature:
    the continuum q-energy of a radial profile given in closed form;
    +inf where the integrand does not fall faster than 1/|t| toward an
    infinite end, as ``ModelManifold._integral`` returns for a divergent
    end."""

    def integrand(t):
        with np.errstate(over="ignore"):
            return np.abs(du(t)) ** q * M.area(t)

    # the tail split of _gauss_kronrod: |t| = max(|finite end|, 1)
    r = max([abs(x) for x in (a, b) if np.isfinite(x)] + [1.0])
    if any(np.isinf(x) and not _decays(integrand, x, r) for x in (a, b)):
        return np.inf
    return float(_gauss_kronrod(integrand, a, b)[0])


def log_radial_field(m: int = 2, a: float = 1.0, b: float = np.e,
                     n: int = 257) -> DiscreteField:
    """u = log t on the radial Euclidean model: m-harmonic on the annulus."""
    grid = Grid1D.uniform(a, b, n, manifold=euclidean(m))
    ana = Analytic1D(u=np.log, du=lambda t: 1.0 / t,
                     d2u=lambda t: -1.0 / t**2, d3u=lambda t: 2.0 / t**3)
    return DiscreteField(grid, np.log(grid.nodes), analytic=ana)


def power_radial_field(p: float, m: int, a: float = 1.0, b: float = 2.0,
                       n: int = 257) -> DiscreteField:
    """u = t^{(p-m)/(p-1)}: p-harmonic on the radial Euclidean model."""
    if p == m:
        raise InvalidInputError("exponent degenerates at p = m; use the log field")
    al = (p - m) / (p - 1.0)
    grid = Grid1D.uniform(a, b, n, manifold=euclidean(m))
    ana = Analytic1D(
        u=lambda t: t**al,
        du=lambda t: al * t ** (al - 1.0),
        d2u=lambda t: al * (al - 1.0) * t ** (al - 2.0),
        d3u=lambda t: al * (al - 1.0) * (al - 2.0) * t ** (al - 3.0))
    return DiscreteField(grid, grid.nodes**al, analytic=ana)


def arctan_model_field(t_min: float = -30.0, t_max: float = 30.0,
                       n: int = 2001):
    """The finite-energy 3-harmonic field on the warped product with
    A = (1 + t^2)^2: u(t) = arctan t + pi/2, normalized to (0, pi)."""
    M = warped(3, PolyEven(2.0))
    grid = Grid1D.uniform(t_min, t_max, n, manifold=M)
    ana = Analytic1D(
        u=lambda t: np.arctan(t) + np.pi / 2.0,
        du=lambda t: 1.0 / (1.0 + t * t),
        d2u=lambda t: -2.0 * t / (1.0 + t * t) ** 2,
        d3u=lambda t: (6.0 * t * t - 2.0) / (1.0 + t * t) ** 3)
    return DiscreteField(grid, np.arctan(grid.nodes) + np.pi / 2.0,
                         analytic=ana), M


def example_gallery() -> list:
    """Closed-form fields with expected check values."""
    items = []
    f = log_radial_field(m=2)
    items.append({"name": "log_annulus_m2", "field": f, "p": 2.0,
                  "expected": {"kato_ratio": 2.0, "residual": 0.0}})
    f = power_radial_field(p=3.0, m=4)
    items.append({"name": "power_p3_m4", "field": f, "p": 3.0,
                  "expected": {"kato_ratio": 7.0 / 3.0, "residual": 0.0}})
    g2 = Grid2D(0.0, 1.0, 0.0, 1.0, 33, 33)
    items.append({"name": "constant", "p": 2.0,
                  "field": DiscreteField(g2, np.ones((33, 33))),
                  "expected": {"residual": 0.0}})
    items.append({"name": "linear",
                  "field": DiscreteField.from_function(g2, lambda x, y: x),
                  "p": 3.0,
                  "expected": {"residual": 0.0, "kato_vacuous": True}})
    f, M = arctan_model_field()
    items.append({"name": "arctan_warped", "field": f, "p": 3.0,
                  "manifold": M,
                  "expected": {"q_energy": {3.0: np.pi},
                               "barrier_energy": np.pi**-2,
                               "ends": ("Hyperbolic", "Hyperbolic"),
                               "residual": 0.0}})
    return items
