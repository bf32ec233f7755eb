"""Numerical checks of the pointwise identities and integral estimates.

The pointwise checks (Kato ratio, strong form, Bochner identity) are each
one formula written in the grid's nodal calculus: the nodal jet
(``fd_gradient``, ``fd_hessian``) and ``grad_norm``, ``hess_sq``,
``laplacian`` and ``ricci``, which on a 1D grid are those of a radial
field on the attached model manifold and on a 2D grid those of a flat
field.  A radial field with a closed-form descriptor supplies its jet
exactly.  The Bochner check's L_eps is the energy Hessian itself
(``energy.linearized_action``, the operator the Newton solve linearizes
with); its residual decays at order 1 in 1D and order 2 in 2D once two
nodes are trimmed at each end of every axis.  Every collar is a number
of nodes cut off each end of every axis, so no pointwise check asks
which kind of grid it has.
"""

from __future__ import annotations

import math
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
from .geometry import ModelManifold, PolyEven, _gauss_kronrod, euclidean, warped
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
# nodal calculus helpers
# ---------------------------------------------------------------------------


def _closed_form(field: DiscreteField, order: int) -> list:
    """u', ..., u^(order) at the nodes from a radial field's descriptor."""
    a, t = field.analytic, field.grid.nodes
    return [np.asarray(d(t), float) for d in (a.du, a.d2u, a.d3u)[:order]]


def _dot(a, b):
    """Nodewise inner product of two gradients given as component lists."""
    return sum(x * y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Kato ratio
# ---------------------------------------------------------------------------


def kato_ratio(u: DiscreteField, p: float, collar: int = 2) -> VerifierReport:
    """Per-node |Hess u|^2 / |grad|grad u||^2 with degenerate nodes excluded.

    The pass threshold is 1 + kappa(p, m, RefinedKS) - 1e-3; nodes where
    |grad u| is at most 1e-8 of its maximum are degenerate, and nodes
    where the denominator vanishes count as +inf (the bound holds
    vacuously).
    """
    g = u.grid
    thr = 1.0 + kappa(p, g.dim, "RefinedKS") - 1e-3
    closed = u.analytic is not None and u.analytic.d2u is not None
    if closed:
        du, d2u = _closed_form(u, 2)
        grad, hess = [du], [d2u]
    else:
        grad = g.fd_gradient(u.values)
        hess = g.fd_hessian(grad)
    grad_mag = g.grad_norm(grad)
    num = g.hess_sq(grad, hess)
    # |grad f| for f = |grad u|: difference f itself, per the statement
    df = g.fd_gradient(grad_mag)
    den = _dot(df, df)
    sel = grad_mag > 1e-8 * float(np.max(grad_mag))
    if collar > 0 and not closed:
        # the collar cuts off the one-sided end stencils of a differenced jet
        inner = np.zeros(sel.shape, dtype=bool)
        inner[(slice(collar, -collar),) * sel.ndim] = True
        sel &= inner
    excluded = int(sel.size - sel.sum())
    if not sel.any():
        raise NoDataError("every node is gradient-degenerate or in the collar")
    num, den = num[sel], den[sel]
    ratio = np.full(num.shape, np.inf)
    nz = den > 0
    ratio[nz] = num[nz] / den[nz]
    finite = ratio[np.isfinite(ratio)]
    mean = float(finite.mean()) if finite.size else np.inf
    return VerifierReport(
        name="kato_ratio",
        minimum=float(ratio.min()), maximum=float(ratio.max()), mean=mean,
        threshold=thr, passed=bool(np.all(ratio >= thr)), excluded=excluded,
        details={"m": g.dim, "p": p, "vacuous": int(np.sum(~nz))})


# ---------------------------------------------------------------------------
# strong form
# ---------------------------------------------------------------------------


def strong_form_residual(u: DiscreteField, p: float) -> VerifierReport:
    """Nodewise f^2 Delta u + (p-2)/2 <grad f^2, grad u>; zero for strongly
    p-harmonic fields, decaying at 2nd order under refinement."""
    g = u.grid
    grad = g.fd_gradient(u.values)
    f2 = _dot(grad, grad)
    df2 = g.fd_gradient(f2)
    res = (f2 * g.laplacian(grad, g.fd_hessian(grad))
           + _dot([0.5 * (p - 2.0) * d for d in df2], grad))
    # drop two nodes at each end of every axis: nested one-sided
    # stencils there are only 1st order
    res = np.abs(res[(slice(2, -2),) * res.ndim]).ravel()
    return VerifierReport(
        name="strong_form_residual",
        minimum=float(res.min()), maximum=float(res.max()),
        mean=float(res.mean()), threshold=0.0, passed=True,
        details={"p": p})


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
    trim = (slice(2, -2),) * w.ndim
    res = np.abs(lhs - rhs)[trim]
    grad_mag = g.grad_norm(grad)[trim]
    theta = 1e-8 * float(np.max(grad_mag)) if np.max(grad_mag) > 0 else 0.0
    keep = grad_mag > theta
    excluded = int(keep.size - keep.sum())
    if not keep.any():
        res_kept = res  # fully degenerate field: keep everything (all zeros)
        excluded = 0
    else:
        res_kept = res[keep]
    return VerifierReport(
        name="bochner_residual",
        minimum=float(res_kept.min()), maximum=float(res_kept.max()),
        mean=float(res_kept.mean()), threshold=0.0, passed=True,
        excluded=excluded, details={"p": p, "eps": eps})


def bochner_s_residual(u: DiscreteField, p: float, s: float,
                       eps: float) -> VerifierReport:
    """Termwise residual of the generalized five-term identity

      1/2 L_{s,eps}(f^2) = s/4 f^{s-2}|grad f^2|^2
        + f^s (|Hess u|^2 + Ric(grad u, grad u))
        + (p-2)(s-p+2)/4 f^{s-4} <grad u, grad f^2>^2
        + eps (f^{s-2}<grad u, grad(Delta u)>
               + (p-4)/2 f^{s-4} <grad u, grad f^2> Delta u)

    Requires an analytic descriptor with third derivatives: everything
    is evaluated in closed form, so the residual must sit at rounding
    level for strongly p-harmonic u."""
    if eps <= 0:
        raise SingularityError("eps must be positive")
    a = u.analytic
    if a is None or a.d2u is None or a.d3u is None:
        raise InvalidInputError(
            "needs an analytic descriptor with u', u'', u'''")
    grid = u.grid
    if not isinstance(grid, Grid1D):
        raise InvalidInputError("analytic path is radial (Grid1D)")
    M = grid.manifold
    t = grid.nodes
    du, d2u, d3u = _closed_form(u, 3)
    if M is not None:
        ell = np.asarray(M.log_area_d1(t), float)
        ell1 = np.asarray(M.log_area_d2(t), float)
    else:
        ell = ell1 = np.zeros_like(t)
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
    res = np.abs(lhs - rhs)
    scale = float(np.max(np.abs(lhs)) + np.max(np.abs(rhs)) + 1.0)
    return VerifierReport(
        name="bochner_s_residual",
        minimum=float(res.min()), maximum=float(res.max()),
        mean=float(res.mean()), threshold=1e-8 * scale,
        passed=bool(np.max(res) <= 1e-8 * scale),
        details={"p": p, "s": s, "eps": eps, "scale": scale})


# ---------------------------------------------------------------------------
# Caccioppoli estimates
# ---------------------------------------------------------------------------


def _node_gradients(f: DiscreteField):
    """|grad u| at the nodes: exact for a radial field with a descriptor."""
    if isinstance(f.grid, Grid1D) and f.analytic is not None:
        return np.abs(_closed_form(f, 1)[0])
    return f.grid.grad_norm(f.grid.fd_gradient(f.values))


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
    gw = _node_gradients(w)
    gpsi = _node_gradients(psi)
    lhs = integrate_field((np.abs(psi.values) * gw) ** p, w.grid) ** (1.0 / p)
    rhs = integrate_field((gpsi * np.abs(w.values)) ** p, w.grid) ** (1.0 / p)
    tol = 1e-9
    ok = lhs <= p * rhs * (1.0 + tol) + tol
    return VerifierReport(
        name="caccioppoli", minimum=lhs, maximum=p * rhs, mean=lhs,
        threshold=p * rhs, passed=bool(ok),
        details={"lhs": lhs, "rhs": p * rhs, "p": p})


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
    rho = np.asarray(M.weight_rho(t), float)
    # Ric >= -tau rho must hold pointwise for the estimate's hypotheses
    ric_unit = np.asarray(M.radial_ricci_term(t, np.ones_like(t)), float)
    if np.any(ric_unit < -tau * rho - 1e-12 * (1.0 + np.abs(rho))):
        raise InvalidInputError("Ric >= -tau rho fails on the grid")
    B, C = weighted_caccioppoli_constants(p, kappa_val, tau, eps1, eps2)
    (du,) = grid.fd_gradient(u_eps.values)
    inner = np.abs(t) <= R
    shell = (np.abs(t) > R) & (np.abs(t) <= 2.0 * R)
    lhs = C * integrate_field(np.where(inner, rho * np.abs(du) ** p, 0.0), grid)
    rhs = (100.0 * B / R**2) * integrate_field(
        np.where(shell, (du * du + eps) ** (p / 2.0), 0.0), grid)
    margin = rhs - lhs
    return VerifierReport(
        name="weighted_caccioppoli", minimum=lhs, maximum=rhs, mean=margin,
        threshold=rhs, passed=bool(lhs <= rhs * (1.0 + 1e-9)),
        details={"B": B, "C": C, "lhs": lhs, "rhs": rhs, "margin": margin})


# ---------------------------------------------------------------------------
# vector inequalities
# ---------------------------------------------------------------------------


def monotonicity_gap(X, Y, p: float) -> dict:
    """<X-Y, |X|^{p-2}X - |Y|^{p-2}Y> against the comparison term Psi;
    floats for a single pair of vectors, arrays over rows otherwise."""
    squeeze = max(np.ndim(X), np.ndim(Y)) <= 1
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape != Y.shape:
        raise InvalidInputError("X and Y must have equal shapes")
    nx = np.linalg.norm(X, axis=-1)
    ny = np.linalg.norm(Y, axis=-1)
    ax = np.where(nx > 0, nx ** (p - 2.0), 0.0)
    ay = np.where(ny > 0, ny ** (p - 2.0), 0.0)
    diff = X - Y
    lhs = np.sum(diff * (ax[..., None] * X - ay[..., None] * Y), axis=-1)
    d = np.linalg.norm(diff, axis=-1)
    if p >= 2:
        psi = d**p
    else:
        psi = (p - 1.0) * d**2 / (1.0 + nx**2 + ny**2) ** ((2.0 - p) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(psi > 0, lhs / psi, np.inf)
    out = {"lhs": lhs, "psi": psi, "ratio": ratio}
    if squeeze:
        out = {k: float(v.reshape(-1)[0]) for k, v in out.items()}
    return out


def monotonicity_suite(p_values=(1.5, 2.0, 3.0, 4.0), n: int = 100_000,
                       seed: int = 0) -> dict:
    """Random-pair sweep over vectors in R^3: lhs >= 0, zero only at
    X = Y, and the empirical constant C_emp = min ratio re-verified at
    half strength on a fresh sample.  Adversarial near-equal and
    near-collinear pairs included."""
    if n < 1:
        raise InvalidInputError("monotonicity_suite needs n >= 1")
    dim = 3
    results = {}
    for ip, p in enumerate(p_values):
        rng = np.random.default_rng(seed + 1000 * ip)
        X = rng.normal(scale=3.0, size=(n, dim))
        Y = rng.normal(scale=3.0, size=(n, dim))
        n_adv = n // 10
        X[:n_adv] = rng.normal(scale=3.0, size=(n_adv, dim))
        Y[:n_adv] = X[:n_adv] * (1.0 + rng.normal(scale=1e-6, size=(n_adv, 1)))
        X[n_adv:2 * n_adv] = rng.normal(scale=3.0, size=(n_adv, dim))
        Y[n_adv:2 * n_adv] = X[n_adv:2 * n_adv] * rng.uniform(
            -1.5, 1.5, size=(n_adv, 1))
        # clip to |X|, |Y| <= 10
        for Z in (X, Y):
            nz = np.linalg.norm(Z, axis=1, keepdims=True)
            np.divide(Z, nz / 10.0, out=Z, where=nz > 10.0)
        g = monotonicity_gap(X, Y, p)
        lhs, psi, ratio = g["lhs"], g["psi"], g["ratio"]
        # per-pair rounding floor: lhs is assembled by subtraction, so
        # values below eps_mach * (|X|+|Y|)^p are indistinguishable from 0
        scale = (np.linalg.norm(X, axis=1) + np.linalg.norm(Y, axis=1)) ** p
        floor = 1e-12 * (scale + 1.0)
        neg = int(np.sum(lhs < -floor))
        eq = np.all(X == Y, axis=1)
        zero_bad = int(np.sum((lhs <= 0) & ~eq & (psi > floor)))
        finite = np.isfinite(ratio) & (psi > floor)
        c_emp = float(np.min(ratio[finite]))
        rng2 = np.random.default_rng(seed + 1000 * ip + 1)
        X2 = rng2.normal(scale=3.0, size=(n, dim))
        Y2 = rng2.normal(scale=3.0, size=(n, dim))
        g2 = monotonicity_gap(X2, Y2, p)
        recheck = bool(np.all(g2["lhs"] >= 0.5 * c_emp * g2["psi"]
                              - 1e-13 * (1.0 + np.abs(g2["lhs"]))))
        results[p] = {"violations": neg, "zero_off_diagonal": zero_bad,
                      "C_emp": c_emp, "half_constant_recheck": recheck,
                      "ok": neg == 0 and zero_bad == 0 and recheck}
    results["ok"] = all(results[p]["ok"] for p in p_values)
    return results


def regularization_gap(X, Y, eps: float, p: float,
                       delta1: float) -> VerifierReport:
    """(|X|^2+eps)^{p/2} - (|Y|^2+eps)^{p/2} <= a (|X|^p - |Y|^p) + delta
    with the proof's explicit (a, delta) for the branch 2q < p <= 2q+2."""
    if eps < 0 or delta1 <= 0:
        raise InvalidInputError("need eps >= 0 and delta1 > 0")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    nx = float(np.linalg.norm(X))
    ny = float(np.linalg.norm(Y))
    if nx < ny:
        raise InvalidInputError("requires |X| >= |Y|")
    if p < 1:
        raise InvalidInputError("p must be >= 1")
    if p <= 2:
        a, delta = 1.0, 0.0
    else:
        q = int(np.ceil(p / 2.0)) - 1
        x = p * eps / delta1**2
        series = sum(x**k for k in range(1, q + 1))
        a = 1.0 + sum(x**k / math.factorial(k) for k in range(1, q + 1))
        delta = series * delta1**p
    lhs = (nx**2 + eps) ** (p / 2.0) - (ny**2 + eps) ** (p / 2.0)
    rhs = a * (nx**p - ny**p) + delta
    ok = lhs <= rhs + 1e-12 * (1.0 + abs(rhs))
    return VerifierReport(
        name="regularization_gap", minimum=lhs, maximum=rhs, mean=rhs - lhs,
        threshold=rhs, passed=bool(ok),
        details={"a": a, "delta": delta, "lhs": lhs, "rhs": rhs})


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
        rho = np.asarray(M.weight_rho(grid.nodes), float)
        lhs = integrate_field(rho * f.values**2, grid)
        g = _node_gradients(f)
        rhs = integrate_field(g * g, grid)
        rows.append((lhs, rhs))
    margins = [r - l for l, r in rows]
    scale = max(abs(r) for _, r in rows) + 1.0
    ok = all(l <= r + 1e-9 * scale for l, r in rows)
    return VerifierReport(
        name="weighted_poincare",
        minimum=float(min(margins)), maximum=float(max(margins)),
        mean=float(np.mean(margins)), threshold=0.0, passed=bool(ok),
        details={"pairs": rows})


# ---------------------------------------------------------------------------
# examples with closed forms
# ---------------------------------------------------------------------------


def analytic_q_energy(M: ModelManifold, du, q: float,
                      a: float = -np.inf, b: float = np.inf) -> float:
    """int_a^b |u'(t)|^q A(t) dt by the geometry's adaptive quadrature:
    the continuum q-energy of a radial profile given in closed form."""

    def integrand(t):
        with np.errstate(over="ignore"):
            return np.abs(du(t)) ** q * M.area(t)

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
