import numpy as np
import pytest

import plap.capacity as cap
import plap.solver as sv
from plap.energy import EnergySpec
from plap.errors import (
    DomainError,
    InternalInconsistencyError,
    InvalidInputError,
    UnsupportedVariantError,
)
from plap.geometry import Cosh, EndKind, Exponential, PolyEven, euclidean, warped
from plap.grid import Grid1D, Grid2D


M3 = euclidean(3)
M2 = euclidean(2)


def test_condenser_validation():
    with pytest.raises(InvalidInputError):
        cap.Condenser(inner=(1.0, 2.0), outer=(1.5, 3.0))
    with pytest.raises(InvalidInputError):
        cap.Condenser(inner=(2.0, 1.0), outer=(3.0, 4.0))


def test_capacity_analytic_oracles():
    # 2-capacity of the m=3 annulus 1 < t < 2: (int 1/(4 pi t^2))^{-1} = 8 pi
    assert cap.capacity_analytic(M3, 2.0, 1.0, 2.0).value == pytest.approx(8 * np.pi)
    # m=2, p=2, annulus 1 < t < e: 2 pi
    assert cap.capacity_analytic(M2, 2.0, 1.0, np.e).value == pytest.approx(2 * np.pi)
    with pytest.raises(InvalidInputError):
        cap.capacity_analytic(M3, 2.0, 2.0, 1.0)


def test_capacity_arctan_model_oracle():
    # A = (1+t^2)^2, p = 3: Phi(-inf,inf) = int (1+t^2)^{-1} = pi,
    # so Cap_3 = pi^{-2}
    M = warped(3, PolyEven(2.0))
    got = M.phi_integral(3.0, -np.inf, np.inf) ** (1.0 - 3.0)
    assert got == pytest.approx(np.pi**-2)


def test_capacity_numeric_matches_analytic():
    g = Grid1D.uniform(1.0, 2.0, 513, manifold=M3)
    pad = 1e-9
    cond = cap.Condenser(inner=(1.0 - pad, 1.0 + pad),
                         outer=(2.0 - pad, 2.0 + pad))
    for p in (2.0, 3.0):
        num = cap.capacity_numeric(g, p, cond)
        ana = cap.capacity_analytic(M3, p, 1.0, 2.0)
        assert num.value == pytest.approx(ana.value, rel=5e-3), p
        assert num.extremal is not None


def test_capacity_numeric_thick_plates():
    # the grid reaches past the gap [1, 2] on both sides, so whole runs
    # of nodes are fixed on each plate and only the gap carries energy
    g = Grid1D.uniform(0.5, 2.5, 1025, manifold=M3)
    pad = 1e-9
    cond = cap.Condenser(inner=(0.5, 1.0 + pad), outer=(2.0 - pad, 2.5))
    for p in (2.0, 3.0):
        num = cap.capacity_numeric(g, p, cond)
        ana = cap.capacity_analytic(M3, p, 1.0, 2.0)
        assert num.value == pytest.approx(ana.value, rel=5e-3), p
        assert np.all(num.extremal.values[g.nodes <= 1.0] == 1.0)
        assert np.all(num.extremal.values[g.nodes >= 2.0] == 0.0)


def _ulps(x, y):
    return abs(x - y) / np.spacing(max(abs(x), abs(y)))


@pytest.mark.parametrize("grid, p", [
    (Grid1D.uniform(1.0, 2.0, 1025, manifold=M3), 1.55),
    (Grid1D.uniform(1.0, 2.0, 1025, manifold=M3), 3.0),
    (Grid1D.uniform(1.0, 2.0, 1025, manifold=M3), 3.95),
    (Grid2D(-2.0, 2.0, -2.0, 2.0, 33, 33), 1.55),
    (Grid2D(-2.0, 2.0, -2.0, 2.0, 33, 33), 3.95),
])
def test_capacity_numeric_decade_path_matches_halving(grid, p):
    # the default decade path ends at the same eps as the twenty halvings
    # of the continuation, and on the same minimizer to a few ulp
    if isinstance(grid, Grid1D):
        cond = cap.Condenser(inner=(1.0, 1.0), outer=(2.0, 2.0))
    else:
        cond = cap.Condenser(inner=(0.0, 0.5), outer=(1.5, np.inf))
    num = cap.capacity_numeric(grid, p, cond).value
    ref = cap.capacity_numeric(
        grid, p, cond,
        sv.SolveConfig(eps_schedule=sv.default_schedule(1.0, 20))).value
    assert _ulps(num, ref) <= 4


def test_capacity_numeric_2d_annulus_is_pinned():
    # the 0.5/1.5 annulus at 65^2, p=3: a change of ordering in the 2D
    # Newton solve moves it by rounding only
    grid = Grid2D(-2.0, 2.0, -2.0, 2.0, 65, 65)
    cond = cap.Condenser(inner=(0.0, 0.5), outer=(1.5, np.inf))
    assert _ulps(cap.capacity_numeric(grid, 3.0, cond).value,
                 5.122888710632457) <= 4


def test_capacity_numeric_1d_annulus_is_pinned():
    # the m=3 annulus 1 < t < 2 at 16385 nodes, p=3.2, plates on the end
    # nodes: a change in the 1D Newton solve moves it by rounding only
    grid = Grid1D.uniform(1.0, 2.0, 16385, manifold=M3)
    cond = cap.Condenser(inner=(1.0, 1.0), outer=(2.0, 2.0))
    assert _ulps(cap.capacity_numeric(grid, 3.2, cond).value,
                 26.25020996044399) <= 4


@pytest.mark.parametrize("M, p", [(warped(3, PolyEven(2.0)), 3.0),
                                  (warped(2, Cosh()), 2.4)])
def test_capacity_numeric_grounds_the_1d_grid_ends(M, p):
    # the outer plate covers only t = 4; the grid's other end at t = -4
    # is grounded with it, so this is Cap_p([-1, 1], [-4, 4]), whose
    # closed form is Phi(-4, -1)^{1-p} + Phi(1, 4)^{1-p}.  Plate ends are
    # nodes; the error is second order
    exact = (M.phi_integral(p, -4.0, -1.0) ** (1.0 - p)
             + M.phi_integral(p, 1.0, 4.0) ** (1.0 - p))
    cond = cap.Condenser(inner=(-1.0, 1.0), outer=(4.0, 5.0))
    errs = []
    for n in (257, 513):
        g = Grid1D.uniform(-4.0, 4.0, n, manifold=M)
        num = cap.capacity_numeric(g, p, cond)
        assert num.extremal.values[0] == num.extremal.values[-1] == 0.0
        errs.append(abs(num.value / exact - 1.0))
    assert errs[0] < 1e-3
    assert np.log2(errs[0] / errs[1]) > 1.9


@pytest.mark.parametrize("grid, cond", [
    (Grid2D(-2.0, 2.0, -2.0, 2.0, 33, 33), cap.Condenser((0.0, 10.0), (20.0, 30.0))),
    (Grid1D.uniform(-4.0, 4.0, 65, manifold=warped(2, Cosh())),
     cap.Condenser((-5.0, 5.0), (6.0, 7.0))),
])
def test_capacity_numeric_needs_a_grounded_node(grid, cond):
    # the inner plate covers the whole grid, boundary included: no node is
    # grounded, so no field is admissible (this returned 0.0)
    with pytest.raises(InvalidInputError):
        cap.capacity_numeric(grid, 3.0, cond)


def test_zero_potential_difference_has_zero_energy():
    # equal plate potentials: the minimizer is constant, p-energy 0
    g = Grid1D.uniform(1.0, 2.0, 65, manifold=M3)
    f, _ = sv.solve_dirichlet(EnergySpec(3.0, 1e-8), g, (1.0, 1.0))
    import plap.energy as en

    assert en.q_energy(f, 3.0) == 0.0


def test_capacity_numeric_2d_annulus():
    # planar annulus 0.3 < r < 1 inside the square [-1,1]^2 with the outer
    # plate including the square boundary
    g = Grid2D(-1, 1, -1, 1, 141, 141)
    cond = cap.Condenser(inner=(0.0, 0.3), outer=(0.999, 1.5))
    num = cap.capacity_numeric(g, 2.0, cond)
    assert num.value > 0


def test_monotonicity_suite():
    out = cap.capacity_monotonicity_suite(
        M3, 2.0, [(1.0, 2.0), (1.0, 3.0), (1.2, 3.0), (1.2, 2.5)])
    assert out["ok"]
    caps = out["capacities"]
    assert caps[1] < caps[0]  # wider gap, smaller capacity
    assert caps[2] > caps[1]
    with pytest.raises(InvalidInputError):
        cap.capacity_monotonicity_suite(M3, 2.0, [(1.0, 2.0)])


def test_end_barrier_sweep_hyperbolic():
    out = cap.end_barrier_sweep(M3, 2.0, 1.0, [4.0, 16.0, 64.0, 256.0])
    assert out["diagnosis"] == EndKind.HYPERBOLIC
    assert out["infima"][-1] == 0.0
    assert out["energies"][-1] > 0


def test_end_barrier_sweep_parabolic():
    out = cap.end_barrier_sweep(M2, 2.5, 1.0, [4.0, 16.0, 64.0, 256.0])
    assert out["diagnosis"] == EndKind.PARABOLIC


def test_end_barrier_sweep_borderline_parabolic():
    # p = m: the barriers approach 1 only logarithmically; the trend
    # diagnosis must still call it parabolic
    out = cap.end_barrier_sweep(M3, 3.0, 1.0, [10.0, 100.0, 1000.0])
    assert out["diagnosis"] == EndKind.PARABOLIC
    assert out["sup_deviation_on_collar"] > 1e-3


def test_end_barrier_sweep_validation():
    with pytest.raises(InvalidInputError):
        cap.end_barrier_sweep(M3, 2.0, 1.0, [4.0, 2.0])
    with pytest.raises(InvalidInputError):
        cap.end_barrier_sweep(M3, 2.0, 1.0, [0.5, 2.0])


def test_end_barrier_sweep_needs_two_radii():
    # one radius used to reach devs[-2] and raise IndexError
    with pytest.raises(InvalidInputError):
        cap.end_barrier_sweep(M3, 2.0, 1.0, [4.0])


def test_tail_energy_profile_euclid():
    # m=3, p=2, R0=1, lambda_p=0: tail(R) = 4 pi / R, bound C3 R^2
    out = cap.tail_energy_profile(M3, 2.0, 1.0, 0.0, [2.0, 4.0, 8.0])
    assert out["ok"]
    assert out["rows"][0]["tail"] == pytest.approx(4 * np.pi / 2.0, rel=1e-8)
    assert out["rate"] == 0.0


def test_tail_energy_profile_exponential():
    M = warped(2, Exponential(1.0))
    out = cap.tail_energy_profile(M, 2.0, 1.0, 0.25, [2, 3, 4, 5, 6])
    assert out["ok"]
    # actual tail decays like e^{-R}, bound rate is 1/6
    assert max(out["slopes"]) <= -out["rate"]


def test_tail_energy_profile_exponential_slopes():
    # on e^t the tail past R is e^{-R}/D^2, so every log-slope is exactly -1
    M = warped(2, Exponential(1.0))
    out = cap.tail_energy_profile(M, 2.0, 1.0, 0.25, list(range(2, 21)))
    assert np.max(np.abs(np.asarray(out["slopes"]) + 1.0)) <= 1e-9


def test_tail_energy_profile_errors():
    with pytest.raises(UnsupportedVariantError):
        cap.tail_energy_profile(M3, 3.0, 1.0, 0.0, [2.0, 4.0])  # parabolic
    with pytest.raises(DomainError):
        cap.tail_energy_profile(M3, 2.0, 1.0, 0.0, [0.5, 2.0])
    with pytest.raises(InvalidInputError):
        cap.tail_energy_profile(M3, 2.0, 1.0, -1.0, [2.0, 4.0])
    with pytest.raises(InvalidInputError):
        cap.tail_energy_profile(M3, 2.0, 1.0, 0.0, [2.0])


def test_volume_growth_hyperbolic():
    M = warped(2, Exponential(1.0))
    out = cap.volume_growth_check(M, 2.0, 0.25, [2, 4, 6, 8, 10])
    assert out["kind"] == EndKind.HYPERBOLIC
    assert out["ok"]
    assert out["rows"][0]["measured"] == M.volume_between(2.0, 3.0)


def test_volume_growth_parabolic():
    # A = (1+t^2)^{-2}: finite total volume toward +inf, parabolic for p=2
    M = warped(3, PolyEven(-2.0))
    out = cap.volume_growth_check(M, 2.0, 0.3, [2, 4, 6, 8])
    assert out["kind"] == EndKind.PARABOLIC
    assert out["ok"]
    assert out["rows"][0]["measured"] == M.volume_between(2.0, np.inf)
    with pytest.raises(InvalidInputError):
        cap.volume_growth_check(M, 2.0, 0.0, [2, 4, 6, 8])


@pytest.mark.filterwarnings("error")
def test_volume_growth_infinite_tail_fails():
    # euclidean(3) is parabolic at p = 3.5 and its tail volume is infinite:
    # inf <= C * shape holds when C is inf too, so the check must see it
    out = cap.volume_growth_check(M3, 3.5, 0.1, [1, 2, 4])
    assert out["kind"] == EndKind.PARABOLIC
    assert not out["ok"]
    assert all(r["measured"] == np.inf and not r["pass"] for r in out["rows"])


def test_p_poincare_bound():
    assert cap.p_poincare_bound(1.0, 4.0) == pytest.approx(1.0 / 16.0)
    assert cap.p_poincare_bound(0.0, 2.0) == 0.0
    # surface case: lambda2 = 1/4 gives lambda_2 >= 1/4 (sharp at p=2)
    assert cap.p_poincare_bound(0.25, 2.0) == pytest.approx(0.25)
    with pytest.raises(UnsupportedVariantError):
        cap.p_poincare_bound(1.0, 1.5)
    with pytest.raises(InvalidInputError):
        cap.p_poincare_bound(-1.0, 3.0)


def test_lambda_inf_is_invalid():
    # inf passed the lambda >= 0 checks, and inf/inf gave NaN bounds and rows
    M = warped(2, Exponential(1.0))
    with pytest.raises(InvalidInputError, match="finite"):
        cap.volume_growth_check(M, 2.0, np.inf, [2.0, 4.0])
    with pytest.raises(InvalidInputError, match="finite"):
        cap.tail_energy_profile(M, 2.0, 1.0, np.inf, [2.0, 4.0])
    with pytest.raises(InvalidInputError, match="finite"):
        cap.p_poincare_bound(np.inf, 3.0)


def test_lambda_nan_is_invalid():
    # NaN passed the lambda < 0 checks and gave NaN bounds and rows
    M = warped(2, Exponential(1.0))
    with pytest.raises(InvalidInputError):
        cap.volume_growth_check(M, 2.0, np.nan, [2.0, 4.0])
    with pytest.raises(InvalidInputError):
        cap.tail_energy_profile(M, 2.0, 1.0, np.nan, [2.0, 4.0])
    with pytest.raises(InvalidInputError):
        cap.p_poincare_bound(np.nan, 3.0)


def test_volume_growth_rejects_negative_lambda():
    # on a hyperbolic end lambda_p < 0 made the rate, and every bound,
    # complex
    with pytest.raises(InvalidInputError):
        cap.volume_growth_check(warped(2, Exponential(1.0)), 2.0, -0.1,
                                [2.0, 4.0])


@pytest.mark.parametrize("p", [1.0, 0.5, np.nan])
@pytest.mark.parametrize("call", [
    lambda p: M3.phi_integral(p, 1.0, 2.0),
    lambda p: cap.capacity_analytic(M3, p, 1.0, 2.0),
    lambda p: sv.radial_p_harmonic(M3, p, 1.0, 2.0, 1.0, 0.0),
], ids=["phi_integral", "capacity_analytic", "radial_p_harmonic"])
def test_phi_integral_needs_p_above_one(call, p):
    # p = 1 raised ZeroDivisionError; p = 0.5 gave a capacity of 31.29
    with pytest.raises(InvalidInputError):
        call(p)
