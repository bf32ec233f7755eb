"""Model manifolds: warped products I x_eta N, radial Euclidean space included.

Every radial quantity reduces to the area function A(t) = vol_N eta(t)^(m-1)
of the warp eta and the fibre volume vol_N, normalized to 1 on a warped
product.  Radial Euclidean space is (0, inf) x_t S^{m-1}: eta(t) = t and
vol_N = omega_{m-1}, so A(t) = omega_{m-1} t^(m-1).

Radial integrals (the Phi integral of A^{-1/(p-1)}, shell volumes) go
through one quadrature helper, ``_gauss_kronrod``: adaptive G7/K15 on
all intervals at once, infinite ends mapped onto finite ones, with
scipy's ``quad`` only for pieces that do not converge (singular
endpoints).  An infinite end over which the integral diverges, as the
asymptotics of A tell, gives +inf without being integrated; so does Phi
from a zero of eta where A^{-1/(p-1)} is not integrable (the origin of
Euclidean space for p <= m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

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
# Quadrature
# ---------------------------------------------------------------------------

# a piece is accepted once its error estimate |K15 - G7| is at most RTOL
# times the running total of its interval's integral
RTOL = 1e-13
# bisections before a piece goes to quad; only singular endpoints get there
_MAX_LEVEL = 40

# Kronrod 15-point rule on [-1, 1] (QUADPACK qk15; the halves list the
# nodes x >= 0 from 1 down to 0); its odd-indexed nodes carry the 7-point
# Gauss rule
_XK_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WK_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG_HALF = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_XK = np.concatenate([-_XK_HALF, _XK_HALF[-2::-1]])
_WK = np.concatenate([_WK_HALF, _WK_HALF[-2::-1]])
_WG = np.concatenate([_WG_HALF, _WG_HALF[-2::-1]])


def _levels(f, owner, a, b, total):
    """Adaptive G7/K15 on the pieces [a, b] of the intervals ``owner``.

    Each level evaluates f once, on the 15 nodes of every open piece,
    adds the pieces whose |K15 - G7| is at most RTOL times the running
    total of their interval to ``total``, and bisects the rest.  Returns
    the pieces still open after _MAX_LEVEL levels as (owner, a, b).
    """
    for _ in range(_MAX_LEVEL):
        if not owner.size:
            break
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        fx = f((c[:, None] + h[:, None] * _XK).ravel()).reshape(-1, _XK.size)
        k15 = h * (fx * _WK).sum(axis=1)
        est = total + np.bincount(owner, k15, minlength=total.size)
        # written as "not above" so that an infinite total (or a NaN from
        # inf - inf) stops refinement instead of bisecting forever
        with np.errstate(invalid="ignore"):
            err = np.abs(k15 - h * (fx[:, 1::2] * _WG).sum(axis=1))
            done = ~(err > RTOL * np.abs(est[owner]))
        total += np.bincount(owner[done], k15[done], minlength=total.size)
        a, b, owner = a[~done], b[~done], owner[~done]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        owner = np.concatenate([owner, owner])
    return owner, a, b


def _gauss_kronrod(f, lo, hi) -> np.ndarray:
    """int_lo^hi f for each pair of interval ends (lo <= hi, broadcast).

    f maps an array of points to an array of values.  Adaptive G7/K15
    (Piessens et al., QUADPACK, 1983) runs on all intervals together, in
    three batches of ``_levels``.  An infinite interval is split at
    |t| = r = max(|finite end|, 1): its finite part joins the finite
    intervals, and each tail beyond r becomes int_0^{1/r} f(+-1/s)/s^2 ds
    (QUADPACK's qagi substitution), one batch for the upward tails and one
    for the downward ones.  Pieces still open after _MAX_LEVEL levels (an
    integrable singular endpoint, such as t = 0 on Euclidean space or the
    end of a tail that decays barely fast enough) go to scipy's quad,
    whose extrapolation handles them, at epsabs = 0 and epsrel = 1e-12.
    """
    lo, hi = (x.ravel() for x in np.broadcast_arrays(
        np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)))
    total = np.zeros(lo.size)
    finite = np.isfinite(lo) & np.isfinite(hi)
    owner = np.flatnonzero(finite & (lo < hi))
    a, b = lo[owner], hi[owner]
    ends = np.flatnonzero(~finite & (lo < hi))
    tails = []
    if ends.size:
        x, y = lo[ends], hi[ends]
        # r from the finite end, or 1 on (-inf, inf)
        r = np.maximum(np.abs(np.where(np.isfinite(x), x, np.where(
            np.isfinite(y), y, 0.0))), 1.0)
        x, y = np.maximum(x, -r), np.minimum(y, r)
        part = x < y
        owner = np.concatenate([owner, ends[part]])
        a, b = np.concatenate([a, x[part]]), np.concatenate([b, y[part]])
        for sign, side in ((1.0, hi), (-1.0, lo)):
            on = side[ends] == sign * INF
            if on.any():
                tails.append((lambda s, sign=sign: f(sign / s) / (s * s),
                              ends[on], 1.0 / r[on]))
    rest = [(f, *_levels(f, owner, a, b, total))]
    rest += [(g, *_levels(g, i, np.zeros(i.size), top, total))
             for g, i, top in tails]
    if any(o.size for _, o, _, _ in rest):
        from scipy.integrate import quad
        for g, owner, a, b in rest:
            for i, x, y in zip(owner, a, b):
                total[i] += quad(g, x, y, epsabs=0.0, epsrel=1e-12, limit=400)[0]
    return total


# ---------------------------------------------------------------------------
# Warp functions
# ---------------------------------------------------------------------------


class WarpFunction:
    """Positive warp eta(t) with first and second derivatives.

    ``tail(direction)`` describes the asymptotic behaviour toward
    direction = +1 or -1 infinity as ("power", e) meaning eta ~ c|t|^e,
    ("exp", r) meaning eta ~ c e^{r t}, or None when unknown.  ``zero``
    is (t0, k) where eta vanishes at t0 in its domain like |t - t0|^k.
    """

    domain: tuple[float, float] = (-INF, INF)
    zero: tuple[float, float] | None = None

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
class PolyEven(Power):
    """eta(t) = (1 + t^2)^(alpha/2): the Power warp with sigma = 1."""

    sigma: float = field(default=1.0, init=False)


@dataclass(frozen=True)
class Tabulated(WarpFunction):
    """Warp given by samples (t_i, eta_i); clamped cubic interpolation."""

    samples: Sequence[tuple[float, float]] = ()
    domain: tuple[float, float] = None  # type: ignore[assignment]
    _spline: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        # imported here, its only use: scipy.interpolate pulls in
        # scipy.special, optimize, fft and spatial, most of a launch's import
        from scipy.interpolate import CubicSpline

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
    zero = (0.0, 1.0)

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
        if not p > 1:
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

    def _divergent(self, lo, hi, diverges):
        """Mask of the intervals [lo, hi] whose infinite end toward
        direction d has diverges(d, kind, e) for the asymptotics (kind, e)
        of A there (``_area_tail``).  Where those are unknown the tail is
        integrated as any other."""
        div = np.zeros(lo.shape, dtype=bool)
        for d, end, bound in ((1, hi, self.domain[1]), (-1, lo, self.domain[0])):
            on = end == d * INF
            if bound == d * INF and on.any():
                tail = self._area_tail(d)
                if tail is not None and diverges(d, *tail):
                    div |= on
        return div

    def volume_between(self, r1: float, r2: float) -> float:
        """int_{r1}^{r2} A(t) dt: the volume of the shell r1 <= t <= r2.

        Infinite toward an end where A is not integrable: A ~ |t|^e with
        e >= -1, or A ~ e^{r t} not decaying toward that end.
        """
        if r1 > r2:
            raise InvalidInputError("volume_between needs R1 <= R2")
        self.check_point([r1, r2])
        if self._divergent(np.array(r1, dtype=float), np.array(r2, dtype=float),
                           lambda d, kind, e: e >= -1.0 if kind == "power"
                           else e * d >= 0.0):
            return INF
        return float(_gauss_kronrod(self.area, r1, r2)[0])

    def phi_integral(self, p: float, a, b):
        """int_a^b A(t)^{-1/(p-1)} dt; a, b may be infinite.

        Array ends give one integral per pair (lo, hi), all in one batched
        quadrature; scalar ends give a float.  An infinite end that
        ``classify_end`` calls parabolic gives inf, and so does an end at
        a zero of eta of order k with k (m-1) >= p-1.
        """
        if not p > 1:
            raise InvalidInputError("p must exceed 1")
        if not np.all(np.less(a, b)):
            raise InvalidInputError("need a < b")
        expo = -1.0 / (p - 1.0)
        scale, power = self.vol_N**expo, (self.m - 1) * expo

        def integrand(t):
            # A^expo formed as vol_N^expo eta^((m-1) expo): it stays finite
            # where A itself overflows; eta may still overflow deep in a
            # tail, and inf**power -> 0.0
            self.check_point(t)
            with np.errstate(over="ignore"):
                return scale * np.asarray(self.warp.value(t)) ** power

        lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float),
                                     np.asarray(b, dtype=float))
        div = self._divergent(lo, hi, lambda d, kind, e: self.classify_end(
            p, d) == EndKind.PARABOLIC)
        zero = self.warp.zero
        if zero is not None and zero[1] * (self.m - 1) >= p - 1.0:
            # A^expo ~ |t - t0|^(-k (m-1)/(p-1)) next to a zero t0 of order k
            div |= (lo <= zero[0]) & (zero[0] <= hi)
        # a divergent interval is made empty for the quadrature
        out = _gauss_kronrod(integrand, lo, np.where(div, lo, hi))
        out[div.ravel()] = INF
        return float(out[0]) if np.ndim(a) == np.ndim(b) == 0 else out


def euclidean(m: int, domain=(0.0, INF)) -> ModelManifold:
    return ModelManifold("euclidean", m, domain=domain)


def warped(m: int, warp: WarpFunction, ricci_N_lower: float = 0.0,
           domain=None) -> ModelManifold:
    return ModelManifold("warped", m, warp=warp, ricci_N_lower=ricci_N_lower,
                         domain=domain)
