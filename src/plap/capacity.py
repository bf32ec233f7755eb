"""p-capacities of condensers, end barriers, and tail decay checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import energy as en
from .energy import EnergySpec
from .errors import (
    DomainError,
    InternalInconsistencyError,
    InvalidInputError,
    NonConvergenceError,
    UnsupportedVariantError,
)
from .geometry import EndKind, ModelManifold
from .grid import DiscreteField, Grid1D, Grid2D
from .solver import eps0_minimizer, eps_path, radial_p_harmonic


@dataclass(frozen=True)
class Condenser:
    """Regions where the potential is pinned: 1 on the inner set, 0 on
    the outer set, which the grid's boundary joins.  Both are intervals
    of the grid's ``radius``: t on a 1D grid, |x| on a 2D grid."""

    inner: tuple[float, float]
    outer: tuple[float, float]

    def __post_init__(self):
        for iv in (self.inner, self.outer):
            if not iv[0] <= iv[1]:
                raise InvalidInputError("condenser intervals must be ordered")
        lo = max(self.inner[0], self.outer[0])
        hi = min(self.inner[1], self.outer[1])
        if lo <= hi:
            raise InvalidInputError("condenser regions must be disjoint")


@dataclass(frozen=True)
class CapacityResult:
    value: float
    p: float
    method: str
    extremal: Optional[DiscreteField] = None

    def __post_init__(self):
        if self.value < 0:
            raise InvalidInputError("capacity must be nonnegative")


def _power(x: float, y: float, what: str) -> float:
    """x ** y for a float x >= 0; where it overflows, or x = 0 meets a
    negative y, the inputs are out of range: invalid input."""
    try:
        return x ** y
    except (OverflowError, ZeroDivisionError):
        raise InvalidInputError(f"{what} is out of floating-point range "
                                "at these inputs") from None


def capacity_analytic(M: ModelManifold, p: float, a: float, b: float) -> CapacityResult:
    """Cap_p of the condenser ((-inf,a], [b,inf)) inside [a,b]:
    (int_a^b A^{-1/(p-1)})^{1-p}."""
    if not a < b:
        raise InvalidInputError("need a < b")
    val = _power(M.phi_integral(p, a, b), 1.0 - p, "Phi^(1-p)")
    return CapacityResult(value=val, p=p, method="analytic")


def capacity_numeric(domain, p: float, condenser: Condenser) -> CapacityResult:
    """Cap_p(K, Omega) of the condenser on the grid: E_p of the discrete
    minimizer that is 1 on the inner plate and 0 on the outer one.  The
    grid's boundary joins the outer plate and the inner plate wins where
    they meet, so Omega is the grid's box, on either grid.

    On a Grid1D the extremal is the eps = 0 minimizer itself, in closed
    form (``solver.eps0_minimizer``; method "eps0").  On a Grid2D it is
    the last field of the decade eps path down to 2^-19 (method
    "numeric"): every eps before the last is a loose step of the path,
    stopped at ``SolveConfig.path_tol``, and the last solves to
    ``residual_tol``.  A p-energy that is not finite, as where |D u|^p
    overflows, raises NonConvergenceError.
    """
    if not isinstance(domain, (Grid1D, Grid2D)):
        raise InvalidInputError("domain must be a Grid1D or Grid2D")
    r = domain.radius
    in_inner = (r >= condenser.inner[0]) & (r <= condenser.inner[1])
    in_outer = (r >= condenser.outer[0]) & (r <= condenser.outer[1])
    in_outer |= domain.boundary_mask()
    # the inner plate wins where the plates meet, so a node is grounded
    # only outside it; with none, K covers Omega and no field is admissible
    if not in_inner.any() or not (in_outer & ~in_inner).any():
        raise InvalidInputError("condenser regions resolve to empty node sets")
    mask = in_inner | in_outer
    vals = np.zeros(mask.shape, dtype=float)
    vals[in_inner] = 1.0
    if isinstance(domain, Grid1D):
        EnergySpec(p)  # p's input rules, as for a solve
        final = DiscreteField(domain, eps0_minimizer(p, domain, mask, vals))
        method = "eps0"
    else:
        final = eps_path(p, domain, (mask, vals), loose=True)[0][-1]
        method = "numeric"
    with np.errstate(over="ignore", invalid="ignore"):
        value = en.q_energy(final, p)
    if not np.isfinite(value):
        raise NonConvergenceError(f"p-energy {value:.3e} is not finite",
                                  best=final)
    return CapacityResult(value=value, p=p, method=method, extremal=final)


def capacity_monotonicity_suite(M: ModelManifold, p: float,
                                intervals: Sequence[tuple[float, float]]) -> dict:
    """Monotonicity of Cap_p(a, b) in each endpoint over nested intervals.

    Larger gap [a,b] means smaller capacity; enlarging the inner plate
    (raising a) can only raise it.  Also checks the exhaustion limit on
    the supplied family: capacities of a shrinking gap increase to the
    final value.
    """
    if len(intervals) < 2:
        raise InvalidInputError("need at least two intervals")
    caps = [capacity_analytic(M, p, a, b).value for a, b in intervals]
    checks = []
    for (a1, b1), c1, (a2, b2), c2 in zip(intervals, caps, intervals[1:], caps[1:]):
        if a2 <= a1 and b2 >= b1:  # wider gap
            checks.append(("gap widened", c2 <= c1 * (1 + 1e-12)))
        elif a2 >= a1 and b2 <= b1:  # narrower gap
            checks.append(("gap narrowed", c2 >= c1 * (1 - 1e-12)))
        else:
            checks.append(("incomparable", True))
    same = capacity_analytic(M, p, *intervals[0]).value
    checks.append(("repeatable", same == caps[0]))
    return {"capacities": caps, "checks": checks,
            "ok": all(ok for _, ok in checks)}


# ---------------------------------------------------------------------------
# end barriers
# ---------------------------------------------------------------------------


def end_barrier_sweep(M: ModelManifold, p: float, R0: float,
                      R_list: Sequence[float], n: int = 513) -> dict:
    """Barriers u_i = 1 at R0, 0 at R_i for an increasing list of R_i.

    Diagnoses the end toward +infinity: Parabolic when the barriers rise
    to 1 on the collar [R0, R0+1], Hyperbolic when they settle on a
    limit with positive finite p-energy and infimum tending to 0.
    Cross-checked against the area-integral classification.
    """
    R_list = list(R_list)
    if len(R_list) < 2:
        raise InvalidInputError("need at least two radii")
    if any(r <= R0 for r in R_list) or any(
            r2 <= r1 for r1, r2 in zip(R_list, R_list[1:])):
        raise InvalidInputError("R_list must be increasing and exceed R0")
    fields = [radial_p_harmonic(M, p, R0, R, 1.0, 0.0, n=n) for R in R_list]

    collar_hi = min(R0 + 1.0, R_list[0])
    # sample the closed-form barriers densely on the collar: the grid to
    # R_max may have no nodes there
    ts = np.linspace(R0, collar_hi, 101)
    devs = [float(np.max(np.abs(np.asarray(f.analytic.u(ts)) - 1.0)))
            for f in fields]
    sup_dev = devs[-1]
    energies = [en.q_energy(f, p) for f in fields]
    inf_vals = [float(f.values.min()) for f in fields]

    # a parabolic end can approach the constant barrier arbitrarily
    # slowly (logarithmically for A ~ t^{p-1}), so besides the absolute
    # threshold we accept a clear downward trend of both the collar
    # deviation and the barrier energy
    dev_ratio = devs[-1] / devs[-2] if devs[-2] > 0 else 0.0
    e_ratio = energies[-1] / energies[-2] if energies[-2] > 0 else 0.0
    if sup_dev < 1e-3 or (dev_ratio < 0.9 and e_ratio < 0.95):
        diagnosis = EndKind.PARABOLIC
    elif (dev_ratio >= 0.9 and e_ratio >= 0.95 and energies[-1] > 0
          and np.isfinite(energies[-1]) and inf_vals[-1] < 1e-12):
        diagnosis = EndKind.HYPERBOLIC
    else:
        raise InternalInconsistencyError(
            f"barrier sweep inconclusive (sup deviation {sup_dev:.3e}, "
            f"deviation ratio {dev_ratio:.3f}, energy ratio {e_ratio:.3f})")

    expected = M.classify_end(p, +1)
    if diagnosis != expected:
        raise InternalInconsistencyError(
            f"barrier diagnosis {diagnosis} disagrees with the integral "
            f"test {expected}; extend the R range or refine the grid")
    return {"fields": fields, "energies": energies, "infima": inf_vals,
            "sup_deviation_on_collar": sup_dev, "diagnosis": diagnosis}


# ---------------------------------------------------------------------------
# decay and volume bounds
# ---------------------------------------------------------------------------


def _radii_and_rate(p, lambda_p, R_values):
    """The sorted R values and the rate lambda_p^{1/p}/(p+1) of both end
    bounds, after their input rules: lambda_p finite and >= 0, and at
    least two R values, finite and positive."""
    if not 0 <= lambda_p < np.inf:
        raise InvalidInputError("lambda_p lower bound must be finite and >= 0")
    R_values = sorted(R_values)
    if len(R_values) < 2:
        raise InvalidInputError("need at least two R values")
    if not np.all(np.isfinite(R_values)):
        raise InvalidInputError("R values must be finite")
    if not R_values[0] > 0:
        raise InvalidInputError("R values must be positive")
    return R_values, lambda_p ** (1.0 / p) / (p + 1.0)


def _fitted_bound(R_values, values, shape, key, what, const, lower=False):
    """({"rows", const: C}, all rows pass), C = value/shape at the smallest
    R, where the ``what`` must be positive and the shape a positive float
    that leaves C a float (C is inf only for an infinite value); a row
    passes when its value is finite and within C*shape (above it if
    ``lower``) to 1e-9 relative."""
    if not values[0] > 0:
        raise InvalidInputError(f"the {what} at the smallest R is not "
                                f"positive: no {const} can be fitted")
    with np.errstate(over="ignore", divide="ignore"):
        C = values[0] / shape[0]
    if not (0 < shape[0] < np.inf and (C < np.inf or values[0] == np.inf)):
        raise InvalidInputError(
            f"the bound's shape at the smallest R is {shape[0]:.3g}: no "
            f"{const} can be fitted in floating point at this p")
    bounds = C * shape
    passed = (values >= bounds * (1 - 1e-9) if lower
              else values <= bounds * (1 + 1e-9)) & np.isfinite(values)
    rows = [{"R": r, key: v, "bound": b, "pass": ok}
            for r, v, b, ok in zip(R_values, values, bounds, passed)]
    return {"rows": rows, const: float(C)}, bool(passed.all())


def tail_energy_profile(M: ModelManifold, p: float, R0: float,
                        lambda_p: float, R_values: Sequence[float]) -> dict:
    """Tail p-energy of the limit barrier past each R, against the decay
    bound C3 R^p exp(-lambda_p^{1/p} (R-1)/(p+1)), C3 fitted at the
    smallest R, where the tail must be positive; the measured log-tail
    slope must not exceed -lambda_p^{1/p}/(p+1) either."""
    if M.classify_end(p, +1) != EndKind.HYPERBOLIC:
        raise UnsupportedVariantError("tail profile needs a hyperbolic end")
    R_values, rate = _radii_and_rate(p, lambda_p, R_values)
    if len(set(R_values)) < len(R_values):
        raise InvalidInputError("R values must be distinct")
    if R_values[0] <= R0:
        raise DomainError("R values must exceed R0")
    # limit barrier: w = (Phi(inf)-Phi(t)) / D with D = Phi(inf)-Phi(R0),
    # so the tail energy past R is (Phi(inf)-Phi(R)) / D^p
    Dp = _power(M.phi_integral(p, R0, np.inf), p, "D^p")
    tails = np.array([M.phi_integral(p, R, np.inf) / Dp for R in R_values])
    shape = np.array([_power(R, p, "R^p") * np.exp(-rate * (R - 1.0))
                      for R in R_values])
    fit, ok_bound = _fitted_bound(R_values, tails, shape, "tail", "tail", "C3")
    live = tails[:-1] > 0  # a pair already at 0 has no slope
    with np.errstate(divide="ignore"):  # a tail that fell to 0 reads -inf
        logs = np.log(tails[1:][live]) - np.log(tails[:-1][live])
    slopes = logs / np.diff(np.asarray(R_values, float))[live]
    ok_slope = bool(np.all(slopes <= -rate + 1e-12))
    return {**fit, "rate": rate, "slopes": slopes.tolist(),
            "bound_ok": ok_bound, "slope_ok": ok_slope,
            "ok": ok_bound and ok_slope}


def volume_growth_check(M: ModelManifold, p: float, lambda_p: float,
                        R_values: Sequence[float]) -> dict:
    """Shell-volume growth (hyperbolic) or tail-volume decay (parabolic)
    against the exponential bounds, with the constant fitted at the
    smallest R, where the volume must be positive; each row's "measured"
    is the shell or the tail volume."""
    R_values, rate = _radii_and_rate(p, lambda_p, R_values)
    kind = M.classify_end(p, +1)
    if kind == EndKind.HYPERBOLIC:
        measured = np.array([M.volume_between(R, R + 1.0) for R in R_values])
        # where e^((p-1) rate R) overflows, the bound is inf, or NaN
        # against an R^(-p(p-1)) that underflowed, and its row fails
        with np.errstate(over="ignore", invalid="ignore"):
            shape = np.array([_power(R, -p * (p - 1.0), "R^(-p(p-1))")
                              * np.exp((p - 1.0) * rate * (R - 1.0))
                              for R in R_values])
    else:
        if lambda_p <= 0:
            raise InvalidInputError(
                "parabolic volume bound needs lambda_p > 0")
        measured = np.array([M.volume_between(R, M.domain[1]) for R in R_values])
        shape = np.array([_power(R, p, "R^p") * np.exp(-rate * (R - 1.0))
                          for R in R_values])
    fit, ok = _fitted_bound(R_values, measured, shape, "measured", "volume",
                            "C", lower=kind == EndKind.HYPERBOLIC)
    return {"kind": kind, **fit, "rate": rate, "ok": ok}


def p_poincare_bound(lambda2: float, p: float) -> float:
    """Lower bound lambda_p >= (2 sqrt(lambda2) / p)^p, valid for p >= 2."""
    if not 0 <= lambda2 < np.inf:
        raise InvalidInputError("lambda2 must be finite and >= 0")
    if p < 2:
        raise UnsupportedVariantError(
            "the spectral comparison is only available for p >= 2")
    return (2.0 * np.sqrt(lambda2) / p) ** p
