"""Model manifolds: warped products I x_eta N, radial Euclidean space included.

Every radial quantity reduces to the area function A(t) = vol_N eta(t)^(m-1)
of the warp eta and the fibre volume vol_N, normalized to 1 on a warped
product.  Radial Euclidean space is (0, inf) x_t S^{m-1}: eta(t) = t and
vol_N = omega_{m-1}, so A(t) = omega_{m-1} t^(m-1).

A manifold's domain is an interval inside its warp's.  Every pointwise
query (A, A', rho, Ricci, (log A)', (log A)'', eta'/eta) reads t as
floats, checks it once against the domain (NaN fails) and returns a float
for a scalar t.  One rule decides whether int A^{1/q} dt converges toward
an end (q = 1 - p for the Phi integrand A^{-1/(p-1)}, q = 1 for shell
volumes): toward an infinite end it reads the warp's declared ``tail``
(NeedsAsymptoticsError if there is none), at a zero of eta its ``zero``.
Phi and volumes are one integral of A^{1/q}: +inf over a divergent end,
without integrating, else one quadrature helper, ``_gauss_kronrod``:
adaptive G7/K15 on all intervals at once, infinite ends mapped onto
finite ones, with scipy's ``quad`` only for pieces that do not converge
(singular endpoints).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, fields, is_dataclass
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
    try:
        return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)
    except OverflowError:  # Gamma(m/2) overflows from m = 344 on
        raise InvalidInputError(f"m = {m} is too large") from None


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


def _decays(f, end: float, r: float) -> bool:
    """Whether f falls faster than 1/|t| toward the infinite ``end``, so
    that its integral converges there, for a power tail.  The exponent is
    read between the last two of the points r, 2r, ..., 2^_MAX_LEVEL r
    (the far end of the tail ``_gauss_kronrod`` resolves, r as it sets
    it) where it is known: a value that underflows to 0 falls, one that
    overflows grows, and 0/0 or inf/inf gives no exponent.  With none
    known, f counts as decaying."""
    t = math.copysign(r, end) * 2.0 ** np.arange(_MAX_LEVEL + 1)
    with np.errstate(all="ignore"):
        fx = np.abs(np.asarray(f(t), dtype=float))
        slope = np.log2(fx[1:] / fx[:-1])
    known = slope[~np.isnan(slope)]
    return not known.size or bool(known[-1] < -1.0)


# ---------------------------------------------------------------------------
# Warp functions
# ---------------------------------------------------------------------------


class WarpFunction:
    """Positive warp eta(t) with first and second derivatives.

    ``tail(direction)`` describes the asymptotic behaviour toward
    direction = +1 or -1 infinity as ("power", e) meaning eta ~ c|t|^e,
    ("exp", r) meaning eta ~ c e^{r t}, or None when undeclared.  ``zero``
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
        _check_inside(t, self.domain, "warp")


def warp_parameters(kind: type) -> tuple:
    """The dataclass fields a warp class's constructor takes, but domain."""
    return tuple(f for f in (fields(kind) if is_dataclass(kind) else ())
                 if f.init and f.name != "domain")


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
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise InvalidInputError("Tabulated samples must be finite")
        if np.any(np.diff(t) <= 0):
            raise InvalidInputError("Tabulated samples must be strictly increasing in t")
        if np.any(v <= 0):
            raise InvalidInputError("eta(t) must be positive at every sample")
        object.__setattr__(self, "_spline", CubicSpline(t, v, bc_type="clamped"))
        if self.domain is None:
            object.__setattr__(self, "domain", (float(t[0]), float(t[-1])))
        elif not t[0] <= self.domain[0] < self.domain[1] <= t[-1]:
            # past the samples the spline extrapolates, maybe below zero
            raise InvalidInputError(
                f"Tabulated domain {tuple(self.domain)} must be an interval "
                f"inside the samples' range [{t[0]}, {t[-1]}]")

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


def _check_inside(t, domain, what):
    lo, hi = domain
    # written so that NaN fails
    if not np.all(np.less_equal(lo, t) & np.less_equal(t, hi)):
        raise DomainError(f"t={t} outside {what} domain [{lo}, {hi}]")


def _pointwise(query):
    """Query at t as floats, checked once against the domain; float if scalar.
    An infinite end is inside the closed domain, but no query has a
    finite answer there."""
    @functools.wraps(query)
    def at(self, t, *args):
        t = np.asarray(t, dtype=float)
        self.check_point(t)
        if not np.all(np.isfinite(t)):
            raise DomainError(f"t={t} is not finite")
        out = query(self, t, *args)
        return float(out) if np.ndim(out) == 0 else out
    return at


class EndKind:
    PARABOLIC = "Parabolic"
    HYPERBOLIC = "Hyperbolic"


@dataclass(frozen=True)
class ModelManifold:
    """Radial model geometry.  variant is "euclidean" (eta = t) or "warped".

    vol_N is derived, not given: omega_{m-1} on Euclidean space, 1 on a
    warped product.  ricci_N_lower, the bound Ric_N >= ricci_N_lower of
    the fibre, and every parameter of the warp (``warp_parameters``) must
    be finite, NaN failing (InvalidInputError).  The domain defaults to
    the warp's."""

    variant: str
    m: int
    warp: WarpFunction | None = None
    ricci_N_lower: float = 0.0
    vol_N: float = field(default=1.0, init=False)
    domain: tuple[float, float] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.variant not in ("euclidean", "warped"):
            raise InvalidInputError(f"unknown variant {self.variant!r}")
        if self.m < 2:
            raise InvalidInputError(f"{self.variant} variant needs m >= 2")
        if self.variant == "euclidean":
            object.__setattr__(self, "warp", Linear())
            object.__setattr__(self, "vol_N", sphere_area(self.m))
        elif self.warp is None:
            raise InvalidInputError("warped product needs a warp function")
        for key, v in [("ricci_N_lower", self.ricci_N_lower)] + [
                ("warp." + f.name, getattr(self.warp, f.name))
                for f in warp_parameters(type(self.warp))]:
            # written so that NaN fails
            if isinstance(v, numbers.Real) and not -INF < v < INF:
                raise InvalidInputError(f"{key} = {v} must be finite")
        w_lo, w_hi = self.warp.domain
        dom = self.domain if self.domain is not None else self.warp.domain
        lo, hi = map(float, dom)
        # written so that a NaN end fails too.  An empty or reversed domain
        # gets its own message: a warp built on it shares it, and the
        # inside-the-warp message would name the same interval twice
        if not lo < hi:
            raise InvalidInputError(f"domain ({lo}, {hi}) must have lo < hi")
        if not w_lo <= lo < hi <= w_hi:
            raise InvalidInputError(
                f"domain ({lo}, {hi}) must be an interval inside the warp's "
                f"domain ({w_lo}, {w_hi})")
        object.__setattr__(self, "domain", (lo, hi))

    # -- basic queries ------------------------------------------------------

    def check_point(self, t):
        _check_inside(t, self.domain, "manifold")

    @_pointwise
    def area(self, t):
        """A(t) = vol_N eta^(m-1)."""
        return self.vol_N * np.asarray(self.warp.value(t)) ** (self.m - 1)

    @_pointwise
    def area_d1(self, t):
        """dA/dt, analytic."""
        k = self.m - 1
        return (self.vol_N * k * np.asarray(self.warp.value(t)) ** (k - 1)
                * self.warp.d1(t))

    def _d2_ratio(self, t):
        """eta''/eta, kept at eta'' where eta'' = 0 (no 0/0 at eta = 0)."""
        d2 = np.array(self.warp.d2(t), dtype=float)
        return np.divide(d2, self.warp.value(t), out=d2, where=d2 != 0)

    @_pointwise
    def weight_rho(self, t):
        """rho = (m-2) eta'' / eta (warped products only)."""
        if self.variant != "warped":
            raise UnsupportedVariantError("weight rho is defined on warped products")
        return (self.m - 2) * self._d2_ratio(t)

    @_pointwise
    def radial_ricci_term(self, t, grad_sq):
        """Ric(grad u, grad u) for radial u: -(m-1) eta''/eta |grad u|^2,
        that is -(m-1)/(m-2) rho |grad u|^2 for m > 2, and finite at m = 2,
        where rho vanishes identically."""
        return -(self.m - 1) * self._d2_ratio(t) * np.asarray(grad_sq)

    @_pointwise
    def log_area_d1(self, t):
        """(log A)' = A'/A."""
        k = self.m - 1
        return k * np.asarray(self.warp.d1(t)) / np.asarray(self.warp.value(t))

    @_pointwise
    def log_area_d2(self, t):
        """(log A)'' = (A'/A)'."""
        r1 = self.metric_factor(t)
        return (self.m - 1) * (self._d2_ratio(t) - r1 * r1)

    @_pointwise
    def metric_factor(self, t):
        """eta'/eta: the non-radial Hessian factor (1/t on Euclidean space)."""
        return np.asarray(self.warp.d1(t)) / np.asarray(self.warp.value(t))

    # -- admissibility ------------------------------------------------------

    def admissibility_check(self, t_samples):
        """Check eta'' > 0 and (m-2)(log eta)'' + eta^{-2} Ric_N >= 0."""
        if self.variant != "warped":
            raise UnsupportedVariantError("admissibility applies to warped products")
        t = np.atleast_1d(np.asarray(t_samples, dtype=float))
        if t.size == 0:
            raise InvalidInputError("empty sample list")
        self.check_point(t)
        eta = np.asarray(self.warp.value(t), dtype=float)
        d2 = np.asarray(self.warp.d2(t), dtype=float)
        log_dd = self._d2_ratio(t) - self.metric_factor(t) ** 2
        cond2 = (self.m - 2) * log_dd + self.ricci_N_lower / eta**2
        violations = []
        for i, ti in enumerate(t):
            if not d2[i] > 0:
                violations.append((float(ti), "eta'' <= 0"))
            if cond2[i] < -1e-12 * (1.0 + abs(cond2[i])):
                violations.append((float(ti), "(m-2)(log eta)'' + Ric_N/eta^2 < 0"))
        return {"ok": not violations, "violations": violations}

    # -- the one integrability rule -----------------------------------------

    def _converges(self, q: float, end: float) -> bool:
        """Whether int A^{1/q} dt converges toward ``end``: +-inf, read from
        the warp's ``tail``, or the zero of eta, read from its ``zero``.
        The tests divide by q: e / (1 - p) is -(e / (p - 1)) bit for bit,
        while e * (1 / q) rounds twice and can flip a critical exponent."""
        if end in (INF, -INF):
            d = 1 if end > 0 else -1
            tail = self.warp.tail(d)
            if tail is None:
                raise NeedsAsymptoticsError(
                    f"the warp declares no asymptotics toward {end}")
            kind, e = tail
            # A ~ |t|^e or e^{e t}, so the integrand is |t|^{e/q} or e^{e t/q}
            e = (self.m - 1) * e
            return e / q < -1.0 if kind == "power" else e * d / q < 0.0
        # A^{1/q} ~ |t - t0|^{k (m-1)/q} next to a zero t0 of order k
        return self.warp.zero[1] * (self.m - 1) / q > -1.0

    def _integral(self, q: float, lo, hi) -> np.ndarray:
        """int_lo^hi A^{1/q} dt for each pair of ends (lo <= hi, broadcast,
        inside the domain), flattened; +inf where an end (an infinite one,
        or a zero of eta inside [lo, hi]) makes it diverge."""
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                     np.asarray(hi, dtype=float))
        self.check_point(np.stack([lo, hi]))
        ends = [(INF, hi == INF), (-INF, lo == -INF)]
        if self.warp.zero is not None:
            t0 = self.warp.zero[0]
            ends.append((t0, (lo <= t0) & (t0 <= hi)))
        div = np.zeros(lo.shape, dtype=bool)
        for end, on in ends:
            if on.any() and not self._converges(q, end):
                div |= on
        expo = 1.0 / q
        scale, power = self.vol_N**expo, (self.m - 1) * expo

        def integrand(t):
            # A^expo formed as vol_N^expo eta^((m-1) expo): for q < 0 it
            # stays finite where A itself overflows; eta may still overflow
            # deep in a tail, and inf**power -> 0.0
            with np.errstate(over="ignore"):
                return scale * np.asarray(self.warp.value(t)) ** power

        # a divergent interval is made empty for the quadrature
        out = _gauss_kronrod(integrand, lo, np.where(div, lo, hi))
        out[div.ravel()] = INF
        return out

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
        return (EndKind.HYPERBOLIC if self._converges(1.0 - p, direction * INF)
                else EndKind.PARABOLIC)

    def volume_between(self, r1: float, r2: float) -> float:
        """int_{r1}^{r2} A(t) dt: the volume of the shell r1 <= t <= r2.

        Infinite toward an end where A is not integrable: A ~ |t|^e with
        e >= -1, or A ~ e^{r t} not decaying toward that end.
        """
        if not r1 <= r2:
            raise InvalidInputError("volume_between needs R1 <= R2")
        return float(self._integral(1.0, r1, r2)[0])

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
        out = self._integral(1.0 - p, a, b)
        return float(out[0]) if np.ndim(a) == np.ndim(b) == 0 else out


def euclidean(m: int, domain=None) -> ModelManifold:
    return ModelManifold("euclidean", m, domain=domain)


def warped(m: int, warp: WarpFunction, ricci_N_lower: float = 0.0,
           domain=None) -> ModelManifold:
    return ModelManifold("warped", m, warp=warp, ricci_N_lower=ricci_N_lower,
                         domain=domain)
