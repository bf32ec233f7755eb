"""Model manifolds: warped products I x_eta N, radial Euclidean space included.

Every radial quantity reduces to the area function A(t) = vol_N eta(t)^(m-1)
of the warp eta and the fibre volume vol_N, normalized to 1 on a warped
product.  Radial Euclidean space is (0, inf) x_t S^{m-1}: eta(t) = t and
vol_N = omega_{m-1}, so A(t) = omega_{m-1} t^(m-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import integrate
from scipy.interpolate import CubicSpline

from .errors import (
    DomainError,
    InvalidInputError,
    NeedsAsymptoticsError,
    UnsupportedVariantError,
)

INF = math.inf


def sphere_area(m: int) -> float:
    """Area of the unit (m-1)-sphere, 2 pi^(m/2) / Gamma(m/2)."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


# ---------------------------------------------------------------------------
# Warp functions
# ---------------------------------------------------------------------------


class WarpFunction:
    """Positive warp eta(t) with first and second derivatives.

    ``tail(direction)`` describes the asymptotic behaviour toward
    direction = +1 or -1 infinity as ("power", e) meaning eta ~ c|t|^e,
    ("exp", r) meaning eta ~ c e^{r t}, or None when unknown.
    """

    domain: tuple[float, float] = (-INF, INF)

    def value(self, t):
        raise NotImplementedError

    def d1(self, t):
        raise NotImplementedError

    def d2(self, t):
        raise NotImplementedError

    def tail(self, direction: int):
        return None

    def check_point(self, t):
        lo, hi = self.domain
        if np.any(np.asarray(t) < lo) or np.any(np.asarray(t) > hi):
            raise DomainError(f"t={t} outside warp domain [{lo}, {hi}]")


@dataclass(frozen=True)
class Power(WarpFunction):
    """eta(t) = (t^2 + sigma^2)^(alpha/2); sigma = 0 needs 0 not in domain."""

    alpha: float
    sigma: float = 0.0
    domain: tuple[float, float] = (-INF, INF)

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidInputError("smoothing radius sigma must be >= 0")
        lo, hi = self.domain
        if self.sigma == 0.0 and lo <= 0.0 <= hi:
            raise InvalidInputError(
                "Power warp with sigma=0 is singular at t=0; exclude 0 "
                "from the domain or set sigma > 0"
            )

    def _s(self, t):
        return t * t + self.sigma**2

    def value(self, t):
        return self._s(t) ** (self.alpha / 2.0)

    def d1(self, t):
        return self.alpha * t * self._s(t) ** (self.alpha / 2.0 - 1.0)

    def d2(self, t):
        s = self._s(t)
        a = self.alpha
        return a * s ** (a / 2.0 - 2.0) * (s + (a - 2.0) * t * t)

    def tail(self, direction):
        return ("power", self.alpha)


@dataclass(frozen=True)
class Exponential(WarpFunction):
    """eta(t) = e^(beta t)."""

    beta: float
    domain: tuple[float, float] = (-INF, INF)

    def value(self, t):
        return np.exp(self.beta * t)

    def d1(self, t):
        return self.beta * np.exp(self.beta * t)

    def d2(self, t):
        return self.beta**2 * np.exp(self.beta * t)

    def tail(self, direction):
        return ("exp", self.beta)


@dataclass(frozen=True)
class Cosh(WarpFunction):
    """eta(t) = cosh(t)."""

    domain: tuple[float, float] = (-INF, INF)

    def value(self, t):
        return np.cosh(t)

    def d1(self, t):
        return np.sinh(t)

    def d2(self, t):
        return np.cosh(t)

    def tail(self, direction):
        # cosh t ~ e^{|t|}/2, i.e. rate +1 toward +inf and -1 toward -inf
        return ("exp", float(direction))


@dataclass(frozen=True)
class PolyEven(WarpFunction):
    """eta(t) = (1 + t^2)^(alpha/2)."""

    alpha: float
    domain: tuple[float, float] = (-INF, INF)

    def value(self, t):
        return (1.0 + t * t) ** (self.alpha / 2.0)

    def d1(self, t):
        return self.alpha * t * (1.0 + t * t) ** (self.alpha / 2.0 - 1.0)

    def d2(self, t):
        s = 1.0 + t * t
        a = self.alpha
        return a * s ** (a / 2.0 - 2.0) * (s + (a - 2.0) * t * t)

    def tail(self, direction):
        return ("power", self.alpha)


@dataclass(frozen=True)
class Tabulated(WarpFunction):
    """Warp given by samples (t_i, eta_i); clamped cubic interpolation."""

    samples: Sequence[tuple[float, float]] = ()
    domain: tuple[float, float] = None  # type: ignore[assignment]
    _spline: CubicSpline = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        pts = sorted(self.samples)
        if len(pts) < 4:
            raise InvalidInputError("Tabulated warp needs at least 4 samples")
        t = np.array([p[0] for p in pts], dtype=float)
        v = np.array([p[1] for p in pts], dtype=float)
        if np.any(np.diff(t) <= 0):
            raise InvalidInputError("Tabulated samples must be strictly increasing in t")
        if np.any(v <= 0):
            raise InvalidInputError("eta(t) must be positive at every sample")
        object.__setattr__(self, "_spline", CubicSpline(t, v, bc_type="clamped"))
        if self.domain is None:
            object.__setattr__(self, "domain", (float(t[0]), float(t[-1])))

    def value(self, t):
        self.check_point(t)
        return self._spline(t)

    def d1(self, t):
        self.check_point(t)
        return self._spline(t, 1)

    def d2(self, t):
        self.check_point(t)
        return self._spline(t, 2)


@dataclass(frozen=True)
class Linear(WarpFunction):
    """eta(t) = t on [0, inf): the warp of radial Euclidean space."""

    domain = (0.0, INF)

    def value(self, t):
        return np.asarray(t, dtype=float)

    def d1(self, t):
        return np.ones_like(t, dtype=float)

    def d2(self, t):
        return np.zeros_like(t, dtype=float)

    def tail(self, direction):
        return ("power", 1.0)


# ---------------------------------------------------------------------------
# Model manifolds
# ---------------------------------------------------------------------------


class EndKind:
    PARABOLIC = "Parabolic"
    HYPERBOLIC = "Hyperbolic"


@dataclass(frozen=True)
class ModelManifold:
    """Radial model geometry.  variant is "euclidean" (eta = t) or "warped"."""

    variant: str
    m: int
    warp: WarpFunction | None = None
    ricci_N_lower: float = 0.0
    vol_N: float = 1.0
    domain: tuple[float, float] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.variant not in ("euclidean", "warped"):
            raise InvalidInputError(f"unknown variant {self.variant!r}")
        if self.m < 2:
            raise InvalidInputError(f"{self.variant} variant needs m >= 2")
        if self.variant == "euclidean":
            if self.domain is not None and self.domain[0] < 0:
                raise InvalidInputError("radial Euclidean domain must lie in t >= 0")
            object.__setattr__(self, "warp", Linear())
            object.__setattr__(self, "vol_N", sphere_area(self.m))
        elif self.warp is None:
            raise InvalidInputError("warped product needs a warp function")
        elif self.vol_N != 1.0:
            raise InvalidInputError("fiber volume is normalized to vol_N = 1")
        dom = self.domain if self.domain is not None else self.warp.domain
        object.__setattr__(self, "domain", (float(dom[0]), float(dom[1])))

    # -- basic queries ------------------------------------------------------

    def check_point(self, t):
        lo, hi = self.domain
        if np.any(np.asarray(t) < lo) or np.any(np.asarray(t) > hi):
            raise DomainError(f"t={t} outside manifold domain [{lo}, {hi}]")

    def area(self, t):
        """A(t) = vol_N eta^(m-1)."""
        self.check_point(t)
        t = np.asarray(t, dtype=float)
        out = self.vol_N * np.asarray(self.warp.value(t)) ** (self.m - 1)
        return float(out) if out.ndim == 0 else out

    def area_d1(self, t):
        """dA/dt, analytic."""
        self.check_point(t)
        t = np.asarray(t, dtype=float)
        k = self.m - 1
        out = (self.vol_N * k * np.asarray(self.warp.value(t)) ** (k - 1)
               * self.warp.d1(t))
        return float(out) if out.ndim == 0 else out

    def _d2_ratio(self, t):
        """eta''/eta, kept at eta'' where eta'' = 0 (no 0/0 at eta = 0)."""
        d2 = np.array(self.warp.d2(t), dtype=float)
        return np.divide(d2, self.warp.value(t), out=d2, where=d2 != 0)

    def weight_rho(self, t):
        """rho = (m-2) eta'' / eta (warped products only)."""
        if self.variant != "warped":
            raise UnsupportedVariantError("weight rho is defined on warped products")
        self.check_point(t)
        out = (self.m - 2) * np.asarray(self.warp.d2(t)) / np.asarray(self.warp.value(t))
        return float(out) if out.ndim == 0 else out

    def radial_ricci_term(self, t, grad_sq):
        """Ric(grad u, grad u) for radial u: -(m-1) eta''/eta |grad u|^2.

        Equals -(m-1)/(m-2) rho |grad u|^2 for m > 2 and stays finite at
        m = 2, where rho vanishes identically.
        """
        self.check_point(t)
        out = -(self.m - 1) * self._d2_ratio(t) * np.asarray(grad_sq)
        return float(out) if np.ndim(out) == 0 else out

    def log_area_d1(self, t):
        """(log A)' = A'/A."""
        self.check_point(t)
        t = np.asarray(t, dtype=float)
        k = self.m - 1
        out = k * np.asarray(self.warp.d1(t)) / np.asarray(self.warp.value(t))
        return float(out) if out.ndim == 0 else out

    def log_area_d2(self, t):
        """(log A)'' = (A'/A)'."""
        self.check_point(t)
        t = np.asarray(t, dtype=float)
        k = self.m - 1
        r1 = np.asarray(self.warp.d1(t)) / np.asarray(self.warp.value(t))
        out = k * (self._d2_ratio(t) - r1 * r1)
        return float(out) if out.ndim == 0 else out

    def metric_factor(self, t):
        """eta'/eta: the non-radial Hessian factor (1/t on Euclidean space)."""
        self.check_point(t)
        t = np.asarray(t, dtype=float)
        out = np.asarray(self.warp.d1(t)) / np.asarray(self.warp.value(t))
        return float(out) if out.ndim == 0 else out

    # -- admissibility ------------------------------------------------------

    def admissibility_check(self, t_samples):
        """Check eta'' > 0 and (m-2)(log eta)'' + eta^{-2} Ric_N >= 0."""
        if self.variant != "warped":
            raise UnsupportedVariantError("admissibility applies to warped products")
        t = np.asarray(t_samples, dtype=float)
        if t.size == 0:
            raise InvalidInputError("empty sample list")
        self.check_point(t)
        eta = np.asarray(self.warp.value(t), dtype=float)
        d1 = np.asarray(self.warp.d1(t), dtype=float)
        d2 = np.asarray(self.warp.d2(t), dtype=float)
        log_dd = d2 / eta - (d1 / eta) ** 2
        cond2 = (self.m - 2) * log_dd + self.ricci_N_lower / eta**2
        violations = []
        for i, ti in enumerate(t):
            if not d2[i] > 0:
                violations.append((float(ti), "eta'' <= 0"))
            if cond2[i] < -1e-12 * (1.0 + abs(cond2[i])):
                violations.append((float(ti), "(m-2)(log eta)'' + Ric_N/eta^2 < 0"))
        return {"ok": not violations, "violations": violations}

    # -- end classification -------------------------------------------------

    def _area_tail(self, direction: int):
        """Asymptotics of A toward the given infinity, same encoding as warp.tail."""
        w = self.warp.tail(direction)
        if w is None:
            return None
        kind, e = w
        return (kind, (self.m - 1) * e)

    def classify_end(self, p: float, direction: int) -> str:
        """Hyperbolic iff int^inf A^{-1/(p-1)} dt converges toward the end."""
        if p <= 1:
            raise InvalidInputError("p must exceed 1")
        direction = 1 if direction > 0 else -1
        lo, hi = self.domain
        if direction > 0 and hi != INF:
            raise InvalidInputError("domain bounded toward +infinity")
        if direction < 0 and lo != -INF:
            raise InvalidInputError("domain bounded toward -infinity")
        tail = self._area_tail(direction)
        if tail is not None:
            kind, e = tail
            if kind == "power":
                # integrand |t|^{-e/(p-1)}: converges iff e/(p-1) > 1 strictly
                return (
                    EndKind.HYPERBOLIC
                    if e / (p - 1.0) > 1.0
                    else EndKind.PARABOLIC
                )
            # integrand e^{-e t/(p-1)}: converges toward the end iff the
            # exponent decays in that direction
            return (
                EndKind.HYPERBOLIC
                if e * direction > 0
                else EndKind.PARABOLIC
            )
        return self._classify_by_slope(p, direction)

    def _classify_by_slope(self, p: float, direction: int) -> str:
        """Log-log slope test on the integrand A^{-1/(p-1)} up to t = 1e6."""
        ts = np.geomspace(1e2, 1e6, 9) * direction
        try:
            g = np.array([self.area(t) ** (-1.0 / (p - 1.0)) for t in ts])
        except DomainError as exc:
            raise NeedsAsymptoticsError(
                "domain too short for numeric tail-slope test"
            ) from exc
        slopes = np.diff(np.log(g)) / np.diff(np.log(np.abs(ts)))
        s = slopes[-3:]
        if np.ptp(s) > 1e-2:
            raise NeedsAsymptoticsError("integrand log-log slope has not stabilized")
        slope = float(np.mean(s))
        if slope < -1.0 - 1e-3:
            return EndKind.HYPERBOLIC
        if slope > -1.0 + 1e-3:
            return EndKind.PARABOLIC
        raise NeedsAsymptoticsError(
            f"tail slope {slope:.6f} too close to -1 to decide"
        )

    # -- volume ---------------------------------------------------------------

    def volume_between(self, r1: float, r2: float) -> float:
        """int_{r1}^{r2} A(t) dt: the volume of the shell r1 <= t <= r2."""
        if r1 > r2:
            raise InvalidInputError("volume_between needs R1 <= R2")
        self.check_point([r1, r2])
        if r1 == r2:
            return 0.0
        val, _ = integrate.quad(lambda t: self.area(t), r1, r2, limit=200)
        return val

    def phi_integral(self, p: float, a: float, b: float) -> float:
        """int_a^b A(t)^{-1/(p-1)} dt; a, b may be infinite."""
        if not a < b:
            raise InvalidInputError("need a < b")
        expo = -1.0 / (p - 1.0)

        def integrand(t):
            # A may overflow to inf deep in the tail; inf**expo -> 0.0
            with np.errstate(over="ignore"):
                return self.area(t) ** expo

        val, _ = integrate.quad(integrand, a, b, limit=400)
        return val


def euclidean(m: int, domain=(0.0, INF)) -> ModelManifold:
    return ModelManifold("euclidean", m, domain=domain)


def warped(m: int, warp: WarpFunction, ricci_N_lower: float = 0.0,
           domain=None) -> ModelManifold:
    return ModelManifold("warped", m, warp=warp, ricci_N_lower=ricci_N_lower,
                         domain=domain)
