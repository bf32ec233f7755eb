import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plap.capacity as cap
import plap.energy as en
import plap.solver as sv
from plap.energy import EnergySpec
from plap.errors import (
    DomainError,
    InternalInconsistencyError,
    InvalidInputError,
    NonConvergenceError,
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


LOOSE_2D = Grid2D(-2.0, 2.0, -2.0, 2.0, 33, 33)
ANNULUS_2D = cap.Condenser(inner=(0.0, 0.5), outer=(1.5, np.inf))


def _plates(grid, cond):
    """The (mask, values) of capacity_numeric's extremal on ``grid``."""
    r = grid.radius
    inner = (r >= cond.inner[0]) & (r <= cond.inner[1])
    outer = (r >= cond.outer[0]) & (r <= cond.outer[1])
    return inner | outer | grid.boundary_mask(), np.where(inner, 1.0, 0.0)


# a 1D capacity has no eps path, so the cases are 2D only; their ids
# go on from those of the 1D cases the test had before them
@pytest.mark.parametrize("grid, p", [(LOOSE_2D, 1.55), (LOOSE_2D, 3.95)],
                         ids=["grid3-1.55", "grid4-3.95"])
def test_capacity_numeric_decade_path_matches_halving(grid, p):
    # the default decade path ends at the same eps as the twenty halvings
    # of the continuation, and on the same minimizer to a few ulp
    num = cap.capacity_numeric(grid, p, ANNULUS_2D).value
    fields, _ = sv.eps_path(
        p, grid, _plates(grid, ANNULUS_2D),
        sv.SolveConfig(eps_schedule=sv.default_schedule(1.0, 20)))
    assert _ulps(num, en.q_energy(fields[-1], p)) <= 4


@pytest.mark.parametrize("grid", [LOOSE_2D], ids=["grid1"])
@pytest.mark.parametrize("p", [1.55, 3.95, 20.0])
def test_capacity_numeric_loose_path_matches_full_path(monkeypatch, grid, p):
    # every eps of capacity_numeric's path but the last stops at path_tol;
    # the capacity stays within a few ulp of the full decade path's
    calls = []

    def recorded(*args, **kwargs):
        out = sv.eps_path(*args, **kwargs)
        calls.append((args, out[1]))
        return out

    monkeypatch.setattr(cap, "eps_path", recorded)
    num = cap.capacity_numeric(grid, p, ANNULUS_2D).value
    [(args, report)] = calls
    stops = [s["stop"] for s in report.steps]
    assert stops[:-1] == ["path"] * (len(sv.SolveConfig().eps_schedule) - 1)
    assert stops[-1] in ("tol", "floor")
    fields, full = sv.eps_path(*args)
    assert "path" not in [s["stop"] for s in full.steps]
    assert _ulps(num, en.q_energy(fields[-1], p)) <= 4


@pytest.mark.parametrize("M, a, b, p", [
    (warped(3, Cosh()), -3.0, 3.0, 16.0),
    (warped(3, Cosh()), -3.0, 3.0, 20.0),
    (warped(4, Exponential(2.0)), 0.0, 4.0, 40.0),
    (warped(4, Exponential(2.0)), 0.0, 4.0, 60.0),
    (euclidean(5), 1.0, 3.0, 60.0),
], ids=["16.0", "20.0", "exp4-40.0", "exp4-60.0", "euclid5-60.0"])
def test_capacity_numeric_at_large_p_matches_closed_form(M, a, b, p):
    # cosh, m=3, on [-3, 3]: the fluxes are far below 1, and a Newton stop
    # with an absolute part in its tolerance ended every step from
    # eps = 1e-2 on after 0 iterations, 12% high at p=16 and 22x at p=20.
    # The exponential and Euclidean cases did not converge from the
    # harmonic start; the eps = 0 minimizer of p starts them
    g = Grid1D.uniform(a, b, 4097, manifold=M)
    cond = cap.Condenser(inner=(a, a), outer=(b, b))
    num = cap.capacity_numeric(g, p, cond).value
    assert num == pytest.approx(cap.capacity_analytic(M, p, a, b).value,
                                rel=1e-5)


def test_capacity_numeric_2d_annulus_is_pinned():
    # the 0.5/1.5 annulus at 65^2, p=3: a change of ordering in the 2D
    # Newton solve moves it by rounding only
    grid = Grid2D(-2.0, 2.0, -2.0, 2.0, 65, 65)
    cond = cap.Condenser(inner=(0.0, 0.5), outer=(1.5, np.inf))
    assert _ulps(cap.capacity_numeric(grid, 3.0, cond).value,
                 5.122888710632457) <= 4


def test_capacity_numeric_1d_annulus_is_pinned():
    # the m=3 annulus 1 < t < 2 at 16385 nodes, p=3.2, plates on the end
    # nodes: the eps = 0 minimizer's p-energy, which a change in its
    # closed form moves by rounding only
    grid = Grid1D.uniform(1.0, 2.0, 16385, manifold=M3)
    cond = cap.Condenser(inner=(1.0, 1.0), outer=(2.0, 2.0))
    assert _ulps(cap.capacity_numeric(grid, 3.2, cond).value,
                 26.250209960440575) <= 4


COSH3 = warped(3, Cosh())
EXP4 = warped(4, Exponential(2.0))
EUCLID5 = euclidean(5)


def _end_plates(M, a, b, n=4097):
    """A uniform grid on [a, b] and the condenser with a plate on each end
    node."""
    return (Grid1D.uniform(a, b, n, manifold=M),
            cap.Condenser(inner=(a, a), outer=(b, b)))


@pytest.mark.parametrize("M, a, b, p, rel", [
    (COSH3, -10.0, 10.0, 3.0, 2e-5),
    (COSH3, -3.0, 3.0, 1.3, 2e-5),
    (COSH3, -3.0, 3.0, 1.55, 2e-5),
    (EXP4, 0.0, 4.0, 4.0, 2e-5),
    (EXP4, 0.0, 4.0, 2.5, 2e-5),
    (EUCLID5, 1.0, 3.0, 1.3, 2e-5),
    (EUCLID5, 1.0, 3.0, 1.1, 2e-5),
    # near p = 1 the last decade of the eps path left +2.1e-2
    (COSH3, -10.0, 10.0, 1.02, 1e-5),
    (EXP4, 0.0, 4.0, 100.0, 1e-5),
    (EUCLID5, 1.0, 3.0, 40.0, 1e-5),
    (EUCLID5, 1.0, 3.0, 100.0, 1e-5),
], ids=["cosh3-3", "cosh3-1.3", "cosh3-1.55", "exp4-4", "exp4-2.5",
        "euclid5-1.3", "euclid5-1.1", "cosh3-1.02", "exp4-100", "euclid5-40",
        "euclid5-100"])
def test_capacity_numeric_1d_is_the_eps0_minimizer(M, a, b, p, rel):
    # the 1D capacity is E_p of the eps = 0 minimizer, with no eps bias:
    # what is left is discretization error.  exp4 at p = 40 and 60 and
    # euclid5 at p = 60 are cases of the large-p test above
    grid, cond = _end_plates(M, a, b)
    num = cap.capacity_numeric(grid, p, cond)
    assert num.method == "eps0"
    assert np.isfinite(num.value)
    assert num.value == pytest.approx(cap.capacity_analytic(M, p, a, b).value,
                                      rel=rel)


@pytest.mark.parametrize("M, a, b, p", [
    (EXP4, 0.0, 4.0, 2.5),
    (EXP4, 0.0, 4.0, 4.0),
    (EUCLID5, 1.0, 3.0, 1.1),
    (EUCLID5, 1.0, 3.0, 1.3),
    (warped(2, Exponential(1.0)), 0.0, 4.0, 1.51),
], ids=["exp4-2.5", "exp4-4", "euclid5-1.1", "euclid5-1.3", "exp2-1.51"])
def test_eps0_extremal_has_rounding_residual(M, a, b, p):
    # each node is formed from its nearer plate: formed from the left
    # plate alone, the residual was 8.2e-7 of its scale on exp4 at
    # p = 2.5, and on euclid5 at p = 1.1 cells near the right plate had
    # no gradient at all, where the eps = 0 residual is not defined
    grid, cond = _end_plates(M, a, b)
    f = cap.capacity_numeric(grid, p, cond).extremal
    spec = EnergySpec(p, 0.0)
    r = en.weak_residual(spec, f, grid.boundary_mask())
    assert np.max(np.abs(r)) <= 1e-12 * en.residual_scale(spec, f)


@pytest.mark.parametrize("p, b, n", [(60.0, 1.0 + 1e-6, 65),
                                     (200.0, 1.01, 513)])
def test_capacity_numeric_nonfinite_energy_raises(p, b, n):
    # |u'| ~ 1/(b - 1) overflows |u'|^p: no inf is returned
    grid, cond = _end_plates(M3, 1.0, b, n)
    with pytest.raises(NonConvergenceError, match="not finite"):
        cap.capacity_numeric(grid, p, cond)


@pytest.mark.parametrize("p", [1.0, np.nan, np.inf])
def test_capacity_numeric_1d_checks_p(p):
    grid, cond = _end_plates(M3, 1.0, 2.0, 65)
    with pytest.raises(InvalidInputError):
        cap.capacity_numeric(grid, p, cond)


def test_capacity_numeric_2d_method():
    grid = Grid2D(-2.0, 2.0, -2.0, 2.0, 17, 17)
    assert cap.capacity_numeric(grid, 3.0, ANNULUS_2D).method == "numeric"


RANDOM_MODELS = [
    lambda s: euclidean(2 + int(3 * s)),
    lambda s: warped(3, Cosh()),
    lambda s: warped(2, Exponential(4.0 * s - 2.0)),
    lambda s: warped(3, PolyEven(4.0 * s - 2.0)),
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(RANDOM_MODELS), st.floats(0.0, 1.0),
       st.floats(1.2, 6.0), st.floats(0.5, 2.0), st.floats(1.0, 4.0),
       st.lists(st.integers(0, 1000), min_size=4, max_size=4, unique=True),
       st.integers(33, 200))
def test_property_1d_capacity_is_the_minimum(model, s, p, a, width, cuts, n):
    # one inner and one outer plate anywhere on the grid, its ends
    # grounded too: up to four runs of free nodes.  The eps = 0 minimizer
    # has at most the p-energy of any admissible field, the decade eps
    # path's last one included; it keeps the plates' values exactly and
    # the maximum principle
    M = model(s)
    grid = Grid1D.uniform(a, a + width, n, manifold=M)
    c = a + width * np.sort(cuts) / 1000.0
    inner, outer = ((c[0], c[1]), (c[2], c[3])) if s < 0.5 else (
        (c[2], c[3]), (c[0], c[1]))
    cond = cap.Condenser(inner=inner, outer=outer)
    plates = _plates(grid, cond)
    if not plates[1].any():  # no node on the inner plate
        with pytest.raises(InvalidInputError):
            cap.capacity_numeric(grid, p, cond)
        return
    num = cap.capacity_numeric(grid, p, cond)
    mask, vals = plates
    assert np.array_equal(num.extremal.values[mask], vals[mask])
    assert sv.maximum_principle_holds(num.extremal, plates)
    fields, _ = sv.eps_path(p, grid, plates)
    assert num.value <= en.q_energy(fields[-1], p) * (1.0 + 1e-12)


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
    # a repeated R made a 0/0 log-slope and a failed slope check
    with pytest.raises(InvalidInputError, match="distinct"):
        cap.tail_energy_profile(M3, 2.0, 1.0, 0.0, [2.0, 3.0, 3.0, 4.0])


@pytest.mark.parametrize("R0", [np.nan, np.inf, -np.inf])
def test_tail_energy_profile_nonfinite_r0(R0):
    # a NaN R0 passed "R values must exceed R0" and failed inside the
    # Phi integral with "need a < b"
    with pytest.raises(InvalidInputError, match="R0 must be finite"):
        cap.tail_energy_profile(warped(2, Exponential(1.0)), 2.0, R0, 0.25,
                                [2.0, 4.0])


def test_tail_energy_profile_underflowed_tail():
    # by R = 800 the tail on e^t has underflowed to 0: the step down to
    # 0 reads slope -inf, the step from 0 to 0 has none, and log(0) warns
    # nowhere (pytest turns a RuntimeWarning into an error)
    M = warped(2, Exponential(1.0))
    out = cap.tail_energy_profile(M, 2.0, 1.0, 0.25, [2.0, 800.0, 900.0])
    assert [r["tail"] for r in out["rows"]][1:] == [0.0, 0.0]
    assert out["slopes"] == [-np.inf]
    assert out["slope_ok"] and out["ok"]


def test_tail_energy_profile_vanished_tail_is_invalid():
    # on e^t the tail at R = 800 has underflowed to 0: C3 = 0 made every
    # row 0 <= 0 and passed
    M = warped(2, Exponential(1.0))
    with pytest.raises(InvalidInputError, match="not positive"):
        cap.tail_energy_profile(M, 2.0, 1.0, 0.25, [800.0, 900.0])


def test_volume_growth_vanished_tail_is_invalid():
    # on e^-t the tail volume past R = 800 has underflowed to 0: C = 0
    # made every row 0 <= 0 and passed; from R = 2 the check holds
    M = warped(2, Exponential(-1.0))
    with pytest.raises(InvalidInputError, match="not positive"):
        cap.volume_growth_check(M, 2.0, 0.25, [800.0, 900.0])
    out = cap.volume_growth_check(M, 2.0, 0.25, [2.0, 4.0, 6.0])
    assert out["kind"] == EndKind.PARABOLIC
    assert out["ok"]


@pytest.mark.parametrize("call", [
    lambda M, R: cap.tail_energy_profile(M, 2.0, -1.0, 0.25, R),
    lambda M, R: cap.volume_growth_check(M, 2.0, 0.25, R),
], ids=["tail", "volume"])
@pytest.mark.parametrize("radii", [[0.0, 2.0], [-5.0, 2.0]])
def test_nonpositive_radius_is_invalid(call, radii):
    # R^p has no meaning at R <= 0: complex bounds, 0 ** -2, or C3 = inf
    with pytest.raises(InvalidInputError, match="R values must be positive"):
        call(warped(2, Exponential(1.0)), radii)


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


def test_out_of_range_numbers_are_invalid():
    # Phi^(1-p) and the tail's D^p raised a bare OverflowError; the volume
    # bound's R^(-p(p-1)) underflowed to 0 at p = 40 (a divide-by-zero
    # warning, then NaN bounds reported as a failed check), and at p = 33
    # it is subnormal and C overflows
    with pytest.raises(InvalidInputError, match="Phi\\^\\(1-p\\) is out of"):
        cap.capacity_analytic(M3, 60.0, 1.0, 1.000001)
    E2 = warped(2, Exponential(1.0))
    # the slow tail e^(-t/149) fell back to quad here, which warned
    with pytest.raises(InvalidInputError, match="D\\^p is out of"):
        cap.tail_energy_profile(E2, 150.0, 1.0, 0.25, [2.0, 3.0])
    for p in (40.0, 33.0):
        with pytest.raises(InvalidInputError, match="no C can be fitted"):
            cap.volume_growth_check(E2, p, 0.25, [2.0, 4.0])


def test_volume_bound_overflow_past_the_smallest_radius_fails():
    # e^((p-1) rate (R-1)) overflowed with a RuntimeWarning at R = 5000,
    # where the shell volume of e^t is infinite too: the row fails
    out = cap.volume_growth_check(warped(2, Exponential(1.0)), 2.0, 0.25,
                                  [2.0, 5000.0])
    assert [r["pass"] for r in out["rows"]] == [True, False]
    assert out["rows"][1]["bound"] == np.inf
    assert not out["ok"]


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
