import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    PolyEven,
    Power,
    Tabulated,
    euclidean,
    sphere_area,
    warped,
)


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2 * np.pi)
    assert sphere_area(3) == pytest.approx(4 * np.pi)
    assert sphere_area(4) == pytest.approx(2 * np.pi**2)


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


def test_tabulated_interpolation_and_asymptotics():
    ts = np.linspace(0.5, 20.0, 200)
    tab = Tabulated(list(zip(ts, np.cosh(ts))))
    M = warped(3, tab, domain=(0.5, np.inf))
    assert M.area(3.0) == pytest.approx(np.cosh(3.0) ** 2, rel=1e-6)
    with pytest.raises(NeedsAsymptoticsError):
        M.classify_end(2.0, +1)


def test_tabulated_rejects_bad_samples():
    with pytest.raises(InvalidInputError):
        Tabulated([(0, 1), (1, 2), (2, 3)])  # too few
    with pytest.raises(InvalidInputError):
        Tabulated([(0, 1), (1, 2), (2, -1), (3, 2), (4, 3)])  # nonpositive


def test_power_warp_rejects_singular_origin():
    with pytest.raises(InvalidInputError):
        Power(alpha=1.0, sigma=0.0, domain=(-1.0, np.inf))


def test_manifold_invariants():
    with pytest.raises(InvalidInputError):
        euclidean(1)
    with pytest.raises(InvalidInputError):
        warped(1, Exponential(1.0))
    with pytest.raises(InvalidInputError):
        from plap.geometry import ModelManifold

        ModelManifold("warped", 3, warp=Exponential(1.0), vol_N=2.0)
    with pytest.raises(InvalidInputError):
        euclidean(3, domain=(-1.0, np.inf))


def test_domain_enforced():
    M = euclidean(3, domain=(1.0, 2.0))
    with pytest.raises(DomainError):
        M.area(3.0)
    with pytest.raises(DomainError):
        euclidean(3).radial_ricci_term(-1.0, 1.0)


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
    assert M.volume_between(R, R + 1.0) == pytest.approx(np.e**R * (np.e - 1))
    assert M.volume_between(1.0, 1.0) == 0.0
    with pytest.raises(InvalidInputError):
        M.volume_between(2.0, 1.0)


def test_phi_integral_oracles():
    # Euclidean m=3, p=2: int_1^2 (4 pi t^2)^{-1} dt = 1/(8 pi)
    M = euclidean(3)
    assert M.phi_integral(2.0, 1.0, 2.0) == pytest.approx(1 / (8 * np.pi))
    assert M.phi_integral(2.0, 1.0, np.inf) == pytest.approx(1 / (4 * np.pi))
    with pytest.raises(InvalidInputError):
        M.phi_integral(2.0, 2.0, 1.0)
