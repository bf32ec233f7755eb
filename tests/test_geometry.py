import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from plap.capacity import capacity_analytic
from plap.errors import (
    DomainError,
    InvalidInputError,
    NeedsAsymptoticsError,
    UnsupportedVariantError,
)
from plap.geometry import (
    Cosh,
    EndKind,
    Exponential,
    Linear,
    ModelManifold,
    PolyEven,
    Power,
    Tabulated,
    WarpFunction,
    euclidean,
    sphere_area,
    warp_parameters,
    warped,
)


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2 * np.pi)
    assert sphere_area(3) == pytest.approx(4 * np.pi)
    assert sphere_area(4) == pytest.approx(2 * np.pi**2)


def test_sphere_area_of_a_huge_dimension_is_invalid():
    # Gamma(m/2) overflows from m = 344 on; it raised OverflowError
    assert sphere_area(343) == 3.848314693351256e-223
    with pytest.raises(InvalidInputError, match="m = 344"):
        sphere_area(344)
    with pytest.raises(InvalidInputError):
        euclidean(400)


def test_euclidean_area():
    M = euclidean(3)
    assert M.area(2.0) == pytest.approx(16 * np.pi)
    assert M.area_d1(2.0) == pytest.approx(16 * np.pi)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6),
       st.floats(0.0, 1e4, exclude_min=True, allow_subnormal=False))
def test_property_euclidean_is_linear_warp(m, t):
    # R^m minus the origin as (0, inf) x_t S^{m-1}: eta = t, vol_N = omega_{m-1}
    M = euclidean(m)
    k = m - 1
    w = sphere_area(m)
    x = np.asarray(t, dtype=float)
    assert M.vol_N == w
    assert M.area(t) == w * x**k
    assert M.area_d1(t) == w * k * x ** (k - 1)
    # near the origin both sides overflow alike: 1/t^2 from t ~ 1e-154 on
    with np.errstate(over="ignore"):
        assert M.log_area_d1(t) == k / t
        assert M.metric_factor(t) == 1.0 / t
        got, want = M.log_area_d2(t), -(k / x) / x
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)
    assert M.radial_ricci_term(t, 1.0) == 0.0
    assert M.radial_ricci_term(0.0, 1.0) == 0.0


def test_warped_exponential_area_and_rho():
    M = warped(3, Exponential(beta=1.0))
    assert M.area(2.0) == pytest.approx(np.e**4)
    # rho = (m-2) eta''/eta = 1 here
    assert M.weight_rho(5.0) == pytest.approx(1.0)
    assert M.admissibility_check(np.linspace(-3, 3, 31))["ok"]


def test_warped_cosh_rho():
    M = warped(4, Cosh())
    assert M.weight_rho(0.7) == pytest.approx(2.0)


def test_log_area_derivatives_match_fd():
    M = warped(4, Cosh())
    t = np.linspace(-2, 2, 9)
    h = 1e-5
    fd1 = (np.log(M.area(t + h)) - np.log(M.area(t - h))) / (2 * h)
    fd2 = (M.log_area_d1(t + h) - M.log_area_d1(t - h)) / (2 * h)
    assert np.allclose(M.log_area_d1(t), fd1, rtol=1e-8)
    assert np.allclose(M.log_area_d2(t), fd2, rtol=1e-7)


def test_radial_ricci_term_consistency():
    # for m > 2 the radial Ricci term equals -(m-1)/(m-2) rho |grad u|^2
    M = warped(4, Cosh())
    t = np.linspace(-1.5, 1.5, 7)
    g2 = 0.3 + t**2
    lhs = M.radial_ricci_term(t, g2)
    rhs = -(M.m - 1) / (M.m - 2) * M.weight_rho(t) * g2
    assert np.allclose(lhs, rhs)


def test_radial_ricci_term_m2():
    M = warped(2, Exponential(beta=2.0))
    # eta''/eta = 4, so Ric term = -(m-1)*4*g2 = -4 g2
    assert M.radial_ricci_term(1.0, 1.0) == pytest.approx(-4.0)


def test_euclidean_classification_table():
    for m in (2, 3, 4):
        M = euclidean(m)
        for p in (1.5, 2.0, 3.0, 4.0, float(m)):
            want = EndKind.PARABOLIC if p >= m else EndKind.HYPERBOLIC
            assert M.classify_end(p, +1) == want, (m, p)


def test_exponential_and_cosh_classification():
    Mexp = warped(2, Exponential(beta=1.0))
    assert Mexp.classify_end(2.0, +1) == EndKind.HYPERBOLIC
    assert Mexp.classify_end(2.0, -1) == EndKind.PARABOLIC
    Mc = warped(3, Cosh())
    for p in (1.5, 2.0, 4.0):
        assert Mc.classify_end(p, +1) == EndKind.HYPERBOLIC
        assert Mc.classify_end(p, -1) == EndKind.HYPERBOLIC


@pytest.mark.parametrize("alpha", [-2.0, 0.5, 2.0, 3.3])
def test_polyeven_is_power_with_unit_sigma(alpha):
    t = np.linspace(-40.0, 40.0, 8001)
    P, Q = PolyEven(alpha), Power(alpha, 1.0)
    for k in ("value", "d1", "d2"):
        assert np.array_equal(getattr(P, k)(t), getattr(Q, k)(t))
    assert P.tail(+1) == Q.tail(+1) and P.tail(-1) == Q.tail(-1)


def test_polyeven_classification():
    # A = (1+t^2)^2: power tail with exponent 4
    M = warped(3, PolyEven(2.0))
    assert M.classify_end(3.0, +1) == EndKind.HYPERBOLIC
    assert M.classify_end(5.0, +1) == EndKind.PARABOLIC
    assert M.classify_end(5.0, -1) == EndKind.PARABOLIC


def test_classify_end_bounded_domain_rejected():
    M = euclidean(3, domain=(1.0, 2.0))
    with pytest.raises(InvalidInputError):
        M.classify_end(2.0, +1)


def test_classify_end_bad_p():
    with pytest.raises(InvalidInputError):
        euclidean(3).classify_end(1.0, +1)
    # NaN once passed the check and gave "parabolic"
    with pytest.raises(InvalidInputError):
        euclidean(3).classify_end(np.nan, +1)


def test_tabulated_interpolation_and_asymptotics():
    ts = np.linspace(0.5, 20.0, 200)
    tab = Tabulated(list(zip(ts, np.cosh(ts))))
    # a manifold reaching past its warp's samples has no asymptotics to
    # read, and is rejected when built
    with pytest.raises(InvalidInputError):
        warped(3, tab, domain=(0.5, np.inf))
    M = warped(3, tab)
    assert M.domain == tab.domain == (0.5, 20.0)
    for t in (0.5, 3.0, 20.0):
        assert M.area(t) == pytest.approx(np.cosh(t) ** 2, rel=1e-6)
    assert M.volume_between(1.0, 2.0) == pytest.approx(
        (np.sinh(4.0) - np.sinh(2.0)) / 4.0 + 0.5, rel=1e-6)


def test_tabulated_rejects_bad_samples():
    with pytest.raises(InvalidInputError):
        Tabulated([(0, 1), (1, 2), (2, 3)])  # too few
    with pytest.raises(InvalidInputError):
        Tabulated([(0, 1), (1, 2), (2, -1), (3, 2), (4, 3)])  # nonpositive


@pytest.mark.parametrize("samples", [
    [(0, 1), (1, 2), (2, 3), (np.nan, 4)],
    [(0, 1), (1, 2), (2, 3), (3, np.inf)],
])
def test_tabulated_rejects_non_finite_samples(samples):
    # scipy's CubicSpline raised its own ValueError
    with pytest.raises(InvalidInputError, match="must be finite"):
        Tabulated(samples)


def test_tabulated_domain_inside_samples():
    ts = np.linspace(0.5, 20.0, 200)
    samples = list(zip(ts, np.cosh(ts)))
    # past the samples the spline extrapolates: eta(60) = -1.19e15 on this
    # domain, and A = eta^2 hid the sign as a positive area
    for dom in ((-50.0, 60.0), (0.5, 20.5), (0.4, 20.0), (3.0, 2.0),
                (np.nan, 20.0)):
        with pytest.raises(InvalidInputError):
            Tabulated(samples, domain=dom)
    assert Tabulated(samples, domain=(1.0, 10.0)).domain == (1.0, 10.0)


@pytest.mark.parametrize("make", [
    lambda: euclidean(3, domain=(2.0, 1.0)),
    lambda: euclidean(3, domain=(1.0, 1.0)),
    lambda: euclidean(3, domain=(np.nan, 2.0)),
    lambda: euclidean(3, domain=(1.0, np.nan)),
    lambda: euclidean(3, domain=(-1.0, np.inf)),
    lambda: warped(3, Cosh(), domain=(np.inf, np.inf)),
    lambda: warped(2, Power(1.0, domain=(1.0, np.inf)), domain=(0.5, 2.0)),
], ids=["reversed", "empty", "nan-lo", "nan-hi", "past-origin", "at-infinity",
        "past-warp"])
def test_manifold_domain_inside_warp_domain(make):
    with pytest.raises(InvalidInputError):
        make()


@pytest.mark.parametrize("domain", [(2.0, 1.0), (1.0, 1.0), (np.nan, 2.0)])
def test_empty_or_reversed_domain_is_named_once(domain):
    # the warp takes the domain too, so the inside-the-warp message named
    # the same interval twice
    lo, hi = map(float, domain)
    with pytest.raises(InvalidInputError) as exc:
        warped(3, Power(2.0, domain=domain))
    assert str(exc.value) == f"domain ({lo}, {hi}) must have lo < hi"


def test_integrals_reject_ends_outside_domain():
    # Phi once gave +inf here, from the zero of eta = t at the origin
    for a in (-1.0, -np.inf):
        with pytest.raises(DomainError):
            euclidean(3).phi_integral(2.0, a, 1.0)
    with pytest.raises(DomainError):
        warped(2, Power(1.0, domain=(1.0, np.inf))).volume_between(0.5, 2.0)
    # a NaN end once passed the R1 <= R2 check and gave a volume of 0.0
    for r1, r2 in ((np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(InvalidInputError):
            euclidean(3).volume_between(r1, r2)


class _Untailed(Cosh):
    """cosh, with no asymptotics declared toward either infinity."""

    def tail(self, direction):
        return None


def test_tail_less_warp_needs_asymptotics():
    M, ref = warped(3, _Untailed()), warped(3, Cosh())
    for direction in (+1, -1):
        with pytest.raises(NeedsAsymptoticsError):
            M.classify_end(2.0, direction)
    for a, b in ((0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf)):
        with pytest.raises(NeedsAsymptoticsError):
            M.phi_integral(2.0, a, b)
        with pytest.raises(NeedsAsymptoticsError):
            M.volume_between(a, b)
    with pytest.raises(NeedsAsymptoticsError):
        M.phi_integral(2.0, np.array([0.0, 1.0]), np.array([1.0, np.inf]))
    # finite intervals still integrate, to the same numbers
    assert M.phi_integral(2.0, -1.0, 2.0) == ref.phi_integral(2.0, -1.0, 2.0)
    assert M.volume_between(-1.0, 2.0) == ref.volume_between(-1.0, 2.0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 10, 17, 50])
def test_critical_exponent_is_parabolic_euclidean(m):
    # p = m: A^{-1/(p-1)} ~ t^{-1} at infinity and at the origin.  The
    # rule divides by 1 - p; a product with 1/(1 - p) gives
    # 49 * (1/-49) = -0.9999999999999999 at m = 50, a finite Phi at the origin
    M, p = euclidean(m), float(m)
    assert M.classify_end(p, +1) == EndKind.PARABOLIC
    assert M.phi_integral(p, 1.0, np.inf) == np.inf
    assert M.phi_integral(p, 0.0, 1.0) == np.inf


@pytest.mark.parametrize("alpha", [0.25, 0.5, 2.0, 6.125, 12.25, 24.5])
def test_critical_exponent_is_parabolic_polyeven(alpha):
    # A ~ |t|^{2 alpha} on m = 3, critical at p = 1 + 2 alpha (exact here)
    M, p = warped(3, PolyEven(alpha)), 1.0 + 2.0 * alpha
    for direction in (+1, -1):
        assert M.classify_end(p, direction) == EndKind.PARABOLIC
    assert M.phi_integral(p, 0.0, np.inf) == np.inf


def test_power_warp_rejects_singular_origin():
    with pytest.raises(InvalidInputError):
        Power(alpha=1.0, sigma=0.0, domain=(-1.0, np.inf))


def test_manifold_invariants():
    with pytest.raises(InvalidInputError):
        euclidean(1)
    with pytest.raises(InvalidInputError):
        warped(1, Exponential(1.0))
    with pytest.raises(TypeError):  # vol_N is derived, not a parameter
        ModelManifold("warped", 3, warp=Exponential(1.0), vol_N=2.0)
    with pytest.raises(InvalidInputError):
        euclidean(3, domain=(-1.0, np.inf))


@pytest.mark.parametrize("m", [2, 3, 5])
def test_fibre_volume_is_derived(m):
    assert euclidean(m).vol_N == sphere_area(m)
    assert euclidean(m, domain=(1.0, 2.0)).vol_N == sphere_area(m)
    assert warped(m, Cosh()).vol_N == 1.0
    assert warped(m, Power(2.0, 0.5), ricci_N_lower=1.0).vol_N == 1.0


def test_warp_parameters():
    # what a config's warp.<param> keys are read from
    names = {kind: tuple(f.name for f in warp_parameters(kind))
             for kind in (Power, Exponential, Cosh, PolyEven, Tabulated,
                          Linear, WarpFunction)}
    assert names == {Power: ("alpha", "sigma"), Exponential: ("beta",),
                     Cosh: (), PolyEven: ("alpha",), Tabulated: ("samples",),
                     Linear: (), WarpFunction: ()}


_NON_FINITE = {
    "warp.alpha": [lambda v: warped(3, Power(alpha=v, sigma=1.0)),
                   lambda v: warped(3, PolyEven(alpha=v))],
    "warp.beta": [lambda v: warped(3, Exponential(beta=v))],
    "ricci_N_lower": [
        lambda v: warped(3, Cosh(), ricci_N_lower=v),
        lambda v: warped(4, Power(alpha=2.0, domain=(0.1, np.inf)),
                         ricci_N_lower=v),
        lambda v: ModelManifold("euclidean", 3, ricci_N_lower=v)],
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf,
                                   np.float32("nan")],
                         ids=["nan", "inf", "-inf", "float32-nan"])
@pytest.mark.parametrize("key", list(_NON_FINITE))
def test_non_finite_parameters_are_invalid(key, value):
    # a NaN beta classified as Parabolic and an infinite one divided by
    # zero; a NaN Ric_N bound passed the admissibility check
    for build in _NON_FINITE[key]:
        with pytest.raises(InvalidInputError,
                           match=r"^%s = %s must be finite$" % (key, value)):
            build(value)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_sigma_is_invalid(value):
    # (sigma < 0 is refused by Power itself)
    with pytest.raises(InvalidInputError,
                       match=r"^warp.sigma = %s must be finite$" % value):
        warped(3, Power(alpha=2.0, sigma=value))


def test_domain_enforced():
    M = euclidean(3, domain=(1.0, 2.0))
    with pytest.raises(DomainError):
        M.area(3.0)
    with pytest.raises(DomainError):
        euclidean(3).radial_ricci_term(-1.0, 1.0)


_QUERIES = {
    "area": lambda M, t: M.area(t),
    "area_d1": lambda M, t: M.area_d1(t),
    "weight_rho": lambda M, t: M.weight_rho(t),
    "radial_ricci_term": lambda M, t: M.radial_ricci_term(t, 2.0),
    "log_area_d1": lambda M, t: M.log_area_d1(t),
    "log_area_d2": lambda M, t: M.log_area_d2(t),
    "metric_factor": lambda M, t: M.metric_factor(t),
}


@pytest.mark.parametrize("M", [warped(3, Cosh()), euclidean(3)],
                         ids=["cosh", "euclidean"])
@pytest.mark.parametrize("name", sorted(_QUERIES))
def test_pointwise_query_checks_t_and_returns_floats(M, name):
    # NaN passed the domain check and came back as nan; an infinite end
    # is in the closed domain, and came back as inf or as nan with a warning
    query = _QUERIES[name]
    for t in (np.nan, np.array([1.0, np.nan]), np.inf, np.array([1.0, np.inf])):
        with pytest.raises(DomainError):
            query(M, t)
    t = np.array([[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]])
    if M.variant == "euclidean" and name == "weight_rho":
        with pytest.raises(UnsupportedVariantError):
            query(M, t)
        return
    for scalar in (1.5, np.float64(1.5), np.array(1.5)):
        assert type(query(M, scalar)) is float
    out = query(M, t)
    assert isinstance(out, np.ndarray) and out.shape == t.shape
    assert out[1, 2] == query(M, 5.0)


def test_scalar_admissibility_sample_and_tabulated_nan():
    # a scalar sample raised TypeError (iteration over a 0-d array)
    for M in (warped(3, Cosh()), warped(3, PolyEven(0.5))):
        assert M.admissibility_check(2.0) == M.admissibility_check([2.0])
    ts = np.linspace(-3.0, 3.0, 13)
    warp = Tabulated(samples=[(t, math.cosh(t)) for t in ts])
    for f in (warp.value, warp.d1, warp.d2):
        with pytest.raises(DomainError):
            f(np.nan)


def test_admissibility_only_for_warped():
    with pytest.raises(UnsupportedVariantError):
        euclidean(3).admissibility_check([1.0, 2.0])
    with pytest.raises(UnsupportedVariantError):
        euclidean(3).weight_rho(1.0)


def test_admissibility_violation_reported():
    # eta = (1+t^2)^{1/2} has eta'' = (1+t^2)^{-3/2} > 0 but the second
    # condition fails for m=3 with Ric_N = 0 at t != 0
    M = warped(3, PolyEven(0.5))
    out = M.admissibility_check([2.0])
    assert not out["ok"]


def test_volume_between():
    M = warped(2, Exponential(1.0))
    R = 3.0
    assert M.volume_between(R, R + 1.0) == pytest.approx(
        np.exp(R) * np.expm1(1.0), rel=1e-13, abs=0.0)
    assert M.volume_between(1.0, 1.0) == 0.0
    # A = (1+t^2)^{-2} has a finite tail volume
    want = np.pi / 4 - R / (2 * (1 + R * R)) - np.arctan(R) / 2
    assert warped(3, PolyEven(-2.0)).volume_between(R, np.inf) == pytest.approx(
        want, rel=1e-12, abs=0.0)
    # an area that overflows gives an infinite volume, not an endless bisection
    with np.errstate(over="ignore"):
        assert M.volume_between(0.0, 800.0) == np.inf
    with pytest.raises(InvalidInputError):
        M.volume_between(2.0, 1.0)


def test_phi_integral_oracles():
    # Euclidean m=3, p=2: int_1^2 (4 pi t^2)^{-1} dt = 1/(8 pi)
    M = euclidean(3)
    assert M.phi_integral(2.0, 1.0, 2.0) == pytest.approx(1 / (8 * np.pi))
    assert M.phi_integral(2.0, 1.0, np.inf) == pytest.approx(1 / (4 * np.pi))
    with pytest.raises(InvalidInputError):
        M.phi_integral(2.0, 2.0, 1.0)


def _euclidean_phi(m, p, a, b):
    # int_a^b (omega t^{m-1})^{-1/(p-1)} dt, written with expm1 so that it
    # stays accurate at and near the critical exponent e = 1
    e = (m - 1) / (p - 1)
    x = (1 - e) * math.log(b / a)
    rel = math.expm1(x) / x if x != 0 else 1.0
    return sphere_area(m) ** (-1 / (p - 1)) * a ** (1 - e) * math.log(b / a) * rel


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6), st.floats(1.1, 6.0), st.floats(-2.0, 2.0),
       st.floats(1e-3, 3.0), st.booleans(), st.floats(0.1, 4.0))
def test_property_phi_integral_closed_forms(m, p, log_a, log_ratio, exponential,
                                            beta):
    # tiny integrals included: an absolute quadrature floor loses them
    if not exponential:
        a = 10.0**log_a
        b = a * 10.0**log_ratio
        got, want = euclidean(m).phi_integral(p, a, b), _euclidean_phi(m, p, a, b)
    else:
        # A = e^{(m-1) beta t}: int_a^b e^{-c t} dt, ends in units of 1/c,
        # kept where neither A nor the integrand leaves the float range
        c = (m - 1) * beta / (p - 1)
        a, b = 50.0 * log_a / c, (50.0 * log_a + 10.0**log_ratio / 30.0) / c
        got = warped(m, Exponential(beta)).phi_integral(p, a, b)
        want = math.exp(-c * a) * -math.expm1(-c * (b - a)) / c
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_phi_integral_pinned_cases():
    # singular endpoint: euclidean(3), p=4 integrates (4 pi)^{-1/3} t^{-2/3}
    want = 3.0 * (4 * np.pi) ** (-1 / 3) * 2.0 ** (1 / 3)
    got = euclidean(3).phi_integral(4.0, 0.0, 2.0)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # two-sided infinite: A = (1+t^2)^2, p=3 integrates 1/(1+t^2) to pi
    M = warped(3, PolyEven(2.0))
    got = M.phi_integral(3.0, -np.inf, np.inf)
    assert got == pytest.approx(np.pi, rel=1e-12, abs=0.0)
    # the case an absolute floor got 39% wrong: Phi ~ 1.9e-15
    got = euclidean(5).phi_integral(1.13345, 1.2301, 92.922)
    want = _euclidean_phi(5, 1.13345, 1.2301, 92.922)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # A = e^{4 beta t} overflows on [88.83, 95.81], the integrand does not:
    # int_a^b e^{-c t} dt with c = 4 beta / (p - 1)
    beta, p, a, b = 2.944, 4.777, 88.83, 95.81
    c = 4 * beta / (p - 1)
    want = math.exp(-c * a) * -math.expm1(-c * (b - a)) / c
    got = warped(5, Exponential(beta)).phi_integral(p, a, b)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("m", [2, 3, 5])
def test_phi_from_origin_diverges_for_p_up_to_m(m):
    # A^{-1/(p-1)} ~ t^{-(m-1)/(p-1)} is not integrable at t = 0 for p <= m,
    # so a point has p-capacity 0; on euclidean(3), quad returned 0.158,
    # -0.555 and 88.0 at p = 2, 2.5 and 3 (and a capacity of 6.34 at p = 2)
    M = euclidean(m)
    for p in (1.5, float(m)):
        assert M.phi_integral(p, 0.0, 1.0) == np.inf
        assert capacity_analytic(M, p, 0.0, 1.0).value == 0.0
        got = M.phi_integral(p, np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        assert got[0] == np.inf
        assert got[1] == M.phi_integral(p, 1.0, 2.0)


@pytest.mark.parametrize("R", [10.0, 20.0, 40.0])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_phi_integral_exponential_tail(R, beta):
    # m=2, p=2: int_R^inf e^{-beta t} dt = e^{-beta R}/beta
    got = warped(2, Exponential(beta)).phi_integral(2.0, R, np.inf)
    assert got == pytest.approx(np.exp(-beta * R) / beta, rel=1e-12, abs=0.0)


def test_phi_integral_array_ends():
    M = warped(3, Cosh())
    lo, hi = np.array([-3.0, 0.0, 1.0]), np.array([-1.0, 2.0, np.inf])
    got = M.phi_integral(2.0, lo, hi)
    assert got.shape == (3,)
    for g, a, b in zip(got, lo, hi):
        assert g == M.phi_integral(2.0, a, b)
    with pytest.raises(InvalidInputError):
        M.phi_integral(2.0, lo, lo)


def test_infinite_tails_need_no_quad(monkeypatch):
    def no_quad(*args, **kwargs):
        raise AssertionError("a tail reached quad")

    monkeypatch.setattr(scipy.integrate, "quad", no_quad)
    # m=2, p=2: int_R^inf e^{-beta t} dt = e^{-beta R}/beta, and the mirror
    # image toward -inf on the warp e^{-beta t}
    for beta in (0.5, 1.0, 2.0):
        for R in (-3.0, 0.0, 0.5, 10.0, 40.0):
            want = math.exp(-beta * R) / beta
            got = warped(2, Exponential(beta)).phi_integral(2.0, R, np.inf)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            got = warped(2, Exponential(-beta)).phi_integral(2.0, -np.inf, -R)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # two-sided: A = (1+t^2)^2, p=3 integrates 1/(1+t^2) to pi
    got = warped(3, PolyEven(2.0)).phi_integral(3.0, -np.inf, np.inf)
    assert got == pytest.approx(np.pi, rel=1e-12, abs=0.0)
    # A = cosh^2, p=2: int_8^inf sech^2 = 1 - tanh 8, on either side
    M = warped(3, Cosh())
    want = 2.0 / (math.exp(16.0) + 1.0)
    got = M.phi_integral(2.0, np.array([8.0, -np.inf]), np.array([np.inf, -8.0]))
    np.testing.assert_allclose(got, [want, want], rtol=1e-12, atol=0.0)
    # a finite tail volume: A = (1+t^2)^{-2}
    R = 3.0
    want = np.pi / 4 - R / (2 * (1 + R * R)) - np.arctan(R) / 2
    got = warped(3, PolyEven(-2.0)).volume_between(R, np.inf)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [2.9, 2.99])
def test_near_critical_tail_falls_back_to_quad(monkeypatch, p):
    # euclidean(3): int_1^inf (4 pi t^2)^{-1/(p-1)} dt = (4 pi)^{-1/(p-1)}/(alpha-1)
    # with alpha = 2/(p-1) barely above 1; the tail's end at s = 0 stays open
    calls = []
    quad = scipy.integrate.quad

    def counted(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    alpha = 2.0 / (p - 1.0)
    want = (4 * np.pi) ** (-1.0 / (p - 1.0)) / (alpha - 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        got = euclidean(3).phi_integral(p, 1.0, np.inf)
    assert calls
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("M, p, a, b", [
    (euclidean(3), 3.0, 1.0, np.inf),      # A = 4 pi t^2, critical p = m
    (euclidean(3), 3.01, 1.0, np.inf),     # once -57.1 from the tail in s
    (euclidean(3), 4.0, 1.0, np.inf),
    (warped(3, PolyEven(2.0)), 5.0, 0.0, np.inf),  # A ~ t^4, 4/(p-1) = 1
    (warped(3, PolyEven(2.0)), 5.0, -np.inf, 0.0),
    (warped(3, PolyEven(2.0)), 6.0, -np.inf, np.inf),
    (warped(2, Power(1.0, domain=(1.0, np.inf))), 2.0, 1.0, np.inf),
    (warped(2, Exponential(1.0)), 2.0, -np.inf, 0.0),  # e^{-t} toward -inf
])
def test_phi_integral_parabolic_end_is_infinite(M, p, a, b):
    assert M.classify_end(p, 1 if b == np.inf else -1) == EndKind.PARABOLIC
    assert M.phi_integral(p, a, b) == np.inf
    # array ends: only the divergent interval is infinite, the others are
    # what they are on their own
    got = M.phi_integral(p, np.array([a, 1.0]), np.array([b, 2.0]))
    assert got[0] == np.inf
    assert got[1] == M.phi_integral(p, 1.0, 2.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("M, r1, r2", [
    (euclidean(3), 1.0, np.inf),           # A ~ t^2; once 4.1e30
    (warped(3, PolyEven(2.0)), 2.0, np.inf),
    (warped(3, PolyEven(2.0)), -np.inf, -2.0),
    (warped(3, Power(-0.5, domain=(1.0, np.inf))), 1.0, np.inf),  # A = 1/t
    (warped(2, Exponential(1.0)), 0.0, np.inf),
    (warped(2, Exponential(-1.0)), -np.inf, 0.0),
])
def test_volume_of_nonintegrable_end_is_infinite(M, r1, r2):
    assert M.volume_between(r1, r2) == np.inf


def test_integrable_ends_stay_finite():
    # the ends just past each divergence threshold still integrate
    assert warped(3, PolyEven(2.0)).phi_integral(4.9, 0.0, np.inf) < np.inf
    M = warped(3, Power(-0.6, domain=(1.0, np.inf)))  # A = t^{-1.2}
    assert M.volume_between(1.0, np.inf) == pytest.approx(5.0, rel=1e-12)
    assert warped(2, Exponential(-1.0)).volume_between(0.0, np.inf) == \
        pytest.approx(1.0, rel=1e-12)
