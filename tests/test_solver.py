from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import LinAlgError, solve_banded

import plap.energy as en
import plap.solver as sv
import plap.verifiers as vf
from plap.energy import EnergySpec
from plap.errors import InvalidInputError, NoBarrierError, NonConvergenceError
from plap.geometry import Cosh, Exponential, PolyEven, euclidean, warped
from plap.grid import DiscreteField, Grid1D, Grid2D, wp_distance


M3 = euclidean(3)


def annulus(n=129):
    return Grid1D.uniform(1.0, 2.0, n, manifold=M3)


def _tol(spec, f):
    """The solver's residual tolerance at f: residual_tol times the
    residual scale, with no absolute part."""
    return sv.SolveConfig.residual_tol * en.residual_scale(spec, f)


def test_default_schedule():
    s = sv.default_schedule(1.0, 5)
    assert np.allclose(s, [1, 0.5, 0.25, 0.125, 0.0625])


def test_default_config_is_decade_path():
    sched = sv.SolveConfig().eps_schedule
    assert sched[-1] == 0.5**19 == sv.default_schedule(1.0, 20)[-1]
    assert list(sched) == [1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5, 0.5**19]
    assert list(sv.decade_schedule(1e-6)) == [1.0, 0.1, 0.01, 1e-3, 1e-4,
                                              1e-5, 1e-6]
    assert list(sv.decade_schedule(3.49e-7))[-2:] == [1e-6, 3.49e-7]
    assert list(sv.decade_schedule(1.0)) == [1.0]
    assert list(sv.decade_schedule(2.0)) == [2.0]


def test_config_validation():
    with pytest.raises(InvalidInputError):
        sv.SolveConfig(eps_schedule=[1.0, 2.0])
    with pytest.raises(InvalidInputError):
        sv.SolveConfig(eps_schedule=[1.0, -0.5])
    with pytest.raises(InvalidInputError):
        sv.SolveConfig(max_newton_iters=0)


def test_nan_inputs_rejected():
    # each check is written so that NaN fails it; the solve used to
    # "converge" on NaN
    with pytest.raises(InvalidInputError):
        EnergySpec(np.nan, 1e-3)
    with pytest.raises(InvalidInputError):
        EnergySpec(3.0, np.nan)
    with pytest.raises(InvalidInputError):
        sv.SolveConfig(eps_schedule=[1.0, np.nan])


def test_p2_matches_harmonic_solution():
    g = annulus(257)
    f, rep = sv.solve_dirichlet(EnergySpec(2.0, 1e-12), g, (1.0, 0.0))
    exact = 2.0 / g.nodes - 1.0
    assert np.max(np.abs(f.values - exact)) < 2e-5
    assert rep.steps[-1]["residual"] <= 1e-8


def test_constant_boundary_data():
    # Newton answers constant data itself: the 1D cold start is the
    # constant, so it stops at once
    g = annulus()
    f, rep = sv.solve_dirichlet(EnergySpec(3.0, 1e-6), g, (0.7, 0.7))
    assert np.all(f.values == 0.7)
    assert rep.steps[-1]["iterations"] == 0


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("eps", [1e-3, 1e-9])
def test_constant_boundary_data_2d(p, eps):
    # the 2D cold start's harmonic solve begins at the mean of the fixed
    # values, which misses 0.1 here; its Newton step lands on 0.1 exactly,
    # so the solve itself takes no step
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 17, 23)
    mask = g.boundary_mask()
    vals = np.where(mask, 0.1, 0.0)
    assert np.mean(vals[mask]) != 0.1
    f, rep = sv.solve_dirichlet(EnergySpec(p, eps), g, (mask, vals))
    assert np.all(f.values == 0.1)
    assert rep.steps[-1]["iterations"] == 0
    assert rep.steps[-1]["stop"] == "tol"


def test_maximum_principle_and_monotonicity():
    g = annulus(257)
    for p in (1.5, 3.0, 4.0):
        f, _ = sv.solve_dirichlet(EnergySpec(p, 1e-8), g, (1.0, 0.0))
        assert sv.maximum_principle_holds(f, (1.0, 0.0))
        assert np.all(np.diff(f.values) <= 1e-12)


def test_solution_matches_closed_form_p3():
    g = annulus(513)
    f, _ = sv.solve_dirichlet(EnergySpec(3.0, 1e-12), g, (1.0, 0.0))
    exact = sv.radial_p_harmonic(M3, 3.0, 1.0, 2.0, 1.0, 0.0, n=513)
    assert np.max(np.abs(f.values - exact.values)) < 5e-5


def test_eps_zero_rejected():
    with pytest.raises(InvalidInputError):
        sv.solve_dirichlet(EnergySpec(3.0, 0.0), annulus(), (1.0, 0.0))


def test_nonconvergence_carries_best_iterate():
    # from the eps = 0 minimizer, eps = 1e-2 takes 3 iterations (1e-8 and
    # 1e-6 take 1)
    cfg = sv.SolveConfig(max_newton_iters=1)
    with pytest.raises(NonConvergenceError) as exc:
        sv.solve_dirichlet(EnergySpec(4.0, 1e-2), annulus(), (1.0, 0.0), cfg)
    err = exc.value
    assert err.best is not None
    assert err.report.steps == [err.report.steps[-1]]
    assert err.report.steps[-1]["eps"] == 1e-2
    assert err.report.steps[-1]["iterations"] == 1
    assert err.report.steps[-1]["stop"] == "max_iters"


@pytest.mark.parametrize("p, b, n", [(60.0, 1.0 + 1e-6, 65),
                                     (200.0, 1.01, 513)])
def test_nonfinite_energy_raises(p, b, n):
    # |u'| ~ 1/(b - 1) overflows (|u'|^2 + eps)^(p/2): energy inf and
    # residual NaN, which once stopped as "floor" after 0 iterations
    grid = Grid1D.uniform(1.0, b, n, manifold=M3)
    with pytest.raises(NonConvergenceError, match="not finite"):
        sv.solve_dirichlet(EnergySpec(p, 1e-6), grid, (1.0, 0.0))


EXP_SURFACE = warped(2, Exponential(1.0))


@pytest.mark.parametrize("p, eps", [(1.5097, 3.49e-7), (1.5, 1e-6)])
def test_cold_start_converges_at_small_p_and_eps(p, eps):
    # damped Newton from the linear interpolant stalled here (residual 0.37
    # and 0.88 after 50 iterations); from the eps = 0 minimizer it
    # converges in a few steps
    g = Grid1D.uniform(0.0, 4.0, 1025, manifold=EXP_SURFACE)
    spec = EnergySpec(p, eps)
    f, rep = sv.solve_dirichlet(spec, g, (1.0, 0.0))
    assert len(rep.steps) == 1 and rep.steps[0]["eps"] == eps
    assert rep.steps[0]["stop"] == "tol"
    assert rep.steps[0]["iterations"] <= 6
    assert rep.steps[0]["residual"] <= _tol(spec, f)
    assert sv.maximum_principle_holds(f, (1.0, 0.0))


@pytest.mark.parametrize("manifold", [None, M3, EXP_SURFACE])
@pytest.mark.parametrize("p", [2.0, 3.0, 6.0])
def test_1d_cold_start_is_the_eps_zero_minimizer(manifold, p):
    # a plate six nodes wide, whose cells have no free node, a one-node
    # plate, and a run from it to the right end with no drop: every run
    # carries one flux, so the weak residual at eps = 0 is at rounding,
    # below the solver's own tolerance
    g = Grid1D.uniform(1.0, 3.0, 257, manifold=manifold)
    mask = g.boundary_mask()
    mask[[*range(100, 106), 200]] = True
    vals = np.where(mask, 1.0, 0.0)
    vals[0] = 0.25
    u = sv._cold_start(p, 1e-3, g, mask, vals, sv.SolveConfig())
    assert np.array_equal(u[mask], vals[mask])
    assert np.all(u[200:] == 1.0)
    f = DiscreteField(g, u)
    spec = EnergySpec(p, 0.0)
    r = en.weak_residual(spec, f, mask)
    assert np.max(np.abs(r)) <= sv.SolveConfig.residual_tol * en.residual_scale(
        spec, f)
    if manifold is None:
        interp = np.interp(g.nodes, g.nodes[mask], vals[mask])
        assert np.allclose(u, interp, rtol=0.0, atol=1e-15)


def test_2d_cold_solve_converges_at_small_p_and_eps():
    # the 0.5/1.5 annulus at 65^2: Newton from the mean of the fixed values
    # stopped at 50 iterations here; from the harmonic solve it converges
    g = Grid2D(-2.0, 2.0, -2.0, 2.0, 65, 65)
    inner = g.radius <= 0.5
    mask = inner | (g.radius >= 1.5) | g.boundary_mask()
    spec = EnergySpec(1.1, 1e-12)
    f, rep = sv.solve_dirichlet(spec, g, (mask, np.where(inner, 1.0, 0.0)))
    assert len(rep.steps) == 1 and rep.steps[0]["stop"] == "tol"
    assert rep.steps[0]["residual"] <= _tol(spec, f)


def test_stop_reason_tol():
    spec = EnergySpec(2.0, 1e-12)
    f, rep = sv.solve_dirichlet(spec, annulus(257), (1.0, 0.0))
    step = rep.steps[-1]
    assert step["stop"] == "tol"
    assert step["residual"] <= _tol(spec, f)


def _relative_decrement(spec, f, mask):
    """lambda^2 / (1 + |E|) of the Newton step from f, lambda^2 = -r.d."""
    r = en.weak_residual(spec, f, mask)
    d = sv._newton_direction(en._Cells(spec, f), mask, -r)
    return -float(np.sum(r * d)) / (1.0 + abs(en.energy(spec, f)))


def test_stop_reason_floor():
    # the rounding floor of this fine grid's residual sits above the
    # tolerance: the solve stops on the Newton decrement, and says so
    spec = EnergySpec(3.2, 1e-6)
    g = annulus(16385)
    f, rep = sv.solve_dirichlet(spec, g, (1.0, 0.0))
    step = rep.steps[-1]
    assert step["stop"] == "floor"
    assert step["residual"] > _tol(spec, f)
    assert _relative_decrement(spec, f, g.boundary_mask()) <= 1e-20


@settings(max_examples=12, deadline=None)
@given(st.floats(1.3, 4.5), st.sampled_from([257, 1025, 4097]),
       st.floats(-9.0, -2.0))
def test_property_stop_is_tol_or_decrement_floor(p, n, log_eps):
    spec = EnergySpec(p, 10.0 ** log_eps)
    g = annulus(n)
    try:
        f, rep = sv.solve_dirichlet(spec, g, (1.0, 0.0))
    except NonConvergenceError:
        return  # a cold start at small p and eps may not converge
    step = rep.steps[-1]
    tol = _tol(spec, f)
    if step["stop"] == "tol":
        assert step["residual"] <= tol
    else:
        assert step["stop"] == "floor"
        assert step["residual"] > tol
        assert _relative_decrement(spec, f, g.boundary_mask()) \
            <= sv.DECREMENT_FLOOR


SCALE_GRIDS = [annulus(257), Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)]


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(SCALE_GRIDS), st.floats(1.5, 4.5), st.floats(-3.0, 3.0),
       st.floats(-6.0, -2.0), st.booleans())
# the 2D jump data at lambda = 1e-3 and p = 4 was 1.2e-4 off while the
# stop had an absolute part
@example(SCALE_GRIDS[1], 4.0, -3.0, -4.0, False)
def test_property_path_is_scale_invariant(grid, p, log_lam, log_eps, loose):
    """E_{p,lam^2 eps}(lam u) = lam^p E_{p,eps}(u): data scaled by lam,
    solved at eps lam^2, gives lam u, for lam in [1e-3, 1e3].  The path
    is the decade path scaled by lam^2, on which every Newton iterate
    scales too.  eps lam^2 stays >= 1e-12 (eps >= 1e-6), because the
    solver floors eps at the absolute EPS_FLOOR = 1e-14: below it the
    scaled problem is solved at the floor, not at eps lam^2."""
    lam, eps = 10.0 ** log_lam, 10.0 ** log_eps
    mask = grid.boundary_mask()
    # jump data: 1 on the boundary nodes left of the middle, 0 on the rest
    x = next(iter(grid.coords.values()))
    vals = np.where(x < x.mean(), 1.0, 0.0)
    sched = sv.decade_schedule(eps)
    fields, _ = sv.eps_path(p, grid, (mask, vals),
                            sv.SolveConfig(eps_schedule=sched), loose=loose)
    scaled, _ = sv.eps_path(p, grid, (mask, lam * vals),
                            sv.SolveConfig(eps_schedule=lam**2 * sched),
                            loose=loose)
    u = fields[-1].values
    assert np.max(np.abs(scaled[-1].values / lam - u)) <= 1e-12


def test_2d_solve_p2():
    g = Grid2D(0, 1, 0, 1, 17, 17)
    mask = g.boundary_mask()
    f, _ = sv.solve_dirichlet(EnergySpec(2.0, 1e-10), g, (mask, g.X.copy()))
    # harmonic extension of x on the square is x itself
    assert np.max(np.abs(f.values - g.X)) < 1e-6


def test_continuation_monotone_distances():
    g = annulus(129)
    cfg = sv.SolveConfig(eps_schedule=sv.default_schedule(1.0, 24))
    fields, rep = sv.epsilon_continuation(3.0, g, (1.0, 0.0), cfg)
    d = rep.distances_to_final
    assert len(fields) == 24
    assert all(d[i + 1] <= d[i] * 1.1 + 1e-14 for i in range(len(d) - 1))
    assert d[-1] == 0.0
    assert all(s["pass"] for s in rep.sandwich)


def test_eps_path_is_continuation_without_checks():
    g = annulus(129)
    cfg = sv.SolveConfig(eps_schedule=sv.default_schedule(1.0, 12))
    fields, rep = sv.eps_path(3.5, g, (1.0, 0.0), cfg)
    ref_fields, ref = sv.epsilon_continuation(3.5, g, (1.0, 0.0), cfg)
    assert len(fields) == len(ref_fields) == 12
    for f, r in zip(fields, ref_fields):
        assert np.array_equal(f.values, r.values)
    assert rep.steps == ref.steps
    assert rep.distances_to_final == rep.sandwich == []
    assert len(ref.sandwich) == 12


def test_continuation_empty_schedule():
    with pytest.raises(InvalidInputError):
        sv.epsilon_continuation(3.0, annulus(),
                                (1.0, 0.0), sv.SolveConfig(eps_schedule=[]))
    with pytest.raises(InvalidInputError):
        sv.eps_path(3.0, annulus(), (1.0, 0.0), sv.SolveConfig(eps_schedule=[]))


@pytest.mark.parametrize("p", [1.0, np.nan])
def test_eps_path_checks_p_first(p):
    # the path's own cold start ran before any solve checked p: p = 1
    # raised ZeroDivisionError from -1/(p-1)
    with pytest.raises(InvalidInputError, match="p must exceed 1"):
        sv.eps_path(p, annulus(), (1.0, 0.0))


def test_sandwich_check_requires_matching_boundary():
    g = annulus()
    u = DiscreteField(g, np.linspace(1, 0, g.n))
    v = DiscreteField(g, np.linspace(2, 0, g.n))
    with pytest.raises(InvalidInputError):
        sv.sandwich_check(3.0, 1e-3, u, v)


def test_sandwich_chain_on_solver_output():
    g = annulus(129)
    eps = 1e-3
    u_eps, _ = sv.solve_dirichlet(EnergySpec(3.0, eps), g, (1.0, 0.0))
    u, _ = sv.solve_dirichlet(EnergySpec(3.0, 1e-13), g, (1.0, 0.0))
    out = sv.sandwich_check(3.0, eps, u, u_eps)
    assert out["pass"]
    assert out["E_p(u)"] <= out["E_p_eps(u)"]


def test_radial_p_harmonic_zero_residual():
    f = sv.radial_p_harmonic(M3, 3.0, 1.0, 2.0, 1.0, 0.0, n=257)
    import plap.verifiers as vf

    rep = vf.strong_form_residual(f, 3.0)
    assert rep.maximum < 1e-3  # FD truncation at n=257


RADIAL_MODELS = [M3, euclidean(2), warped(2, Exponential(1.5)), warped(3, Cosh()),
                 warped(3, PolyEven(2.0))]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(RADIAL_MODELS), st.floats(1.2, 5.0), st.floats(0.5, 3.0),
       st.floats(0.05, 4.0), st.integers(9, 300))
def test_property_radial_phi_and_descriptor(M, p, a, width, n):
    # the cumulative cell sums are Phi(a, t_k) at every node, the analytic
    # descriptor reproduces the field values exactly at the nodes, and
    # off them, below the grid too, it is u_a + scale Phi(a, t)
    b = a + width
    nodes = np.linspace(a, b, n)
    phi = sv._phi_on_nodes(M, p, nodes)
    assert phi[0] == 0.0
    np.testing.assert_allclose(phi[1:], M.phi_integral(p, a, nodes[1:]),
                               rtol=1e-12, atol=0.0)
    f = sv.radial_p_harmonic(M, p, a, b, 1.0, -0.5, n=n)
    assert np.array_equal(f.analytic.u(f.grid.nodes), f.values)
    t = np.linspace(a, b, 7)[1:]
    want = 1.0 - 1.5 * M.phi_integral(p, a, t) / M.phi_integral(p, a, b)
    np.testing.assert_allclose(f.analytic.u(t), want, rtol=0.0, atol=1e-12)
    below = 1.0 + 1.5 * M.phi_integral(p, a - 0.1, a) / M.phi_integral(p, a, b)
    np.testing.assert_allclose(f.analytic.u(a - 0.1), below,
                               rtol=1e-12, atol=1e-12)


def test_radial_p_harmonic_descriptor_off_the_grid():
    # u = 1 - log2 t on euclidean(3), p = 3, [1, 2]; below the first node
    # the descriptor held u(1) = 1
    f = sv.radial_p_harmonic(M3, 3.0, 1.0, 2.0, 1.0, 0.0, n=65)
    t = np.array([0.5, 0.9, 2.5, 3.0])
    np.testing.assert_allclose(f.analytic.u(t), 1.0 - np.log2(t),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("p, m, n", [(3.2, 4, 513), (2.4, 3, 257),
                                     (1.55, 3, 257), (4.0, 2, 129)])
def test_radial_p_harmonic_power_jet(p, m, n):
    # on euclidean(m) the extremal from 1 at t = 1 to 2^a at t = 2 is
    # u = t^a, a = (p - m)/(p - 1); its Kato ratio |Hess u|^2/|grad|grad u||^2
    # is 1 + (p-1)^2/(m-1) at every node, read off the closed-form jet
    a = (p - m) / (p - 1.0)
    f = sv.radial_p_harmonic(euclidean(m), p, 1.0, 2.0, 1.0, 2.0**a, n=n)
    t = f.grid.nodes
    np.testing.assert_allclose(f.analytic.du(t), a * t**(a - 1.0),
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(f.analytic.d2u(t), a * (a - 1.0) * t**(a - 2.0),
                               rtol=1e-12, atol=0.0)
    rep = vf.kato_ratio(f, p)
    assert rep.excluded == 0
    # |grad|grad u|| is differenced: 2nd order, 2.6e-4 relative at worst
    target = 1.0 + (p - 1.0)**2 / (m - 1.0)
    np.testing.assert_allclose([rep.minimum, rep.maximum], target, rtol=1e-3)


def test_radial_p_harmonic_constant_case():
    f = sv.radial_p_harmonic(M3, 3.0, 1.0, 2.0, 0.5, 0.5, n=9)
    assert np.all(f.values == 0.5)


def test_radial_p_harmonic_invalid_interval():
    with pytest.raises(InvalidInputError):
        sv.radial_p_harmonic(M3, 3.0, 2.0, 1.0, 1.0, 0.0)


def test_two_end_barrier_cosh():
    M = warped(3, Cosh())
    f, meta = sv.two_end_barrier(M, 2.0, -8.0, 8.0, n=257)
    assert 0.0 <= meta["inf"] < meta["sup"] <= 1.0
    assert meta["E_p"] == pytest.approx(1.0 / meta["phi_total"])
    assert np.all(np.diff(f.values) >= 0)


def test_two_end_barrier_descriptor_is_the_closed_form():
    # on the arctan model u = (arctan t + pi/2) / pi; the descriptor was a
    # linear interpolant, 2e-2 off at cell midpoints at 65 nodes
    M = warped(3, PolyEven(2.0))
    f, _ = sv.two_end_barrier(M, 3.0, -30.0, 30.0, n=65)
    t = f.grid.nodes
    assert np.array_equal(f.analytic.u(t), f.values)
    mid = 0.5 * (t[:-1] + t[1:])
    np.testing.assert_allclose(f.analytic.u(mid),
                               (np.arctan(mid) + np.pi / 2.0) / np.pi,
                               rtol=0.0, atol=1e-12)
    # off the grid at both ends (u(-40) held u(-30) = 0.010606)
    off = np.array([-40.0, -31.0, 31.0, 40.0])
    np.testing.assert_allclose(f.analytic.u(off),
                               (np.arctan(off) + np.pi / 2.0) / np.pi,
                               rtol=1e-12, atol=0.0)


def test_two_end_barrier_needs_hyperbolic_ends():
    M = warped(3, PolyEven(2.0))  # parabolic for p = 5
    with pytest.raises(NoBarrierError):
        sv.two_end_barrier(M, 5.0, -5.0, 5.0)


def test_warm_start_cheaper_than_cold():
    g = annulus(257)
    spec = EnergySpec(4.0, 1e-6)
    f_cold, rep_cold = sv.solve_dirichlet(spec, g, (1.0, 0.0))
    f_warm, rep_warm = sv.solve_dirichlet(spec, g, (1.0, 0.0),
                                          initial=f_cold.values)
    assert rep_warm.steps[-1]["iterations"] <= rep_cold.steps[-1]["iterations"]
    assert wp_distance(f_cold, f_warm, 4.0) < 1e-6


def test_energy_decreases_with_eps():
    g = annulus(129)
    vals = []
    for eps in (1e-1, 1e-3, 1e-6):
        f, _ = sv.solve_dirichlet(EnergySpec(3.0, eps), g, (1.0, 0.0))
        vals.append(en.energy(EnergySpec(3.0, eps), f))
    assert vals[0] > vals[1] > vals[2]


def test_exponential_surface_solve():
    M = warped(2, Exponential(1.0))
    g = Grid1D.uniform(0.0, 4.0, 257, manifold=M)
    f, _ = sv.solve_dirichlet(EnergySpec(2.0, 1e-12), g, (0.0, 1.0))
    # closed form: u = (1 - e^{-t}) / (1 - e^{-4})
    exact = (1 - np.exp(-g.nodes)) / (1 - np.exp(-4.0))
    assert np.max(np.abs(f.values - exact)) < 1e-4


class Grid1DWideStencil(Grid1D):
    """D = diff / 2h: a 1D stencil other than the stock one.  The energy,
    residual and Hessian follow its cell_scale, so the banded Newton
    direction has to as well."""

    def __init__(self, nodes, manifold=None):
        super().__init__(nodes, manifold=manifold)
        self.cell_scale = (2.0 * self.h,)


@st.composite
def newton_systems(draw):
    """A field, a fixed mask holding the grid boundary and a right-hand
    side.  1D masks get up to three fixed runs anywhere, interior ones
    included; 2D masks get random interior nodes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(9, 60))
        nodes = 1.0 + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1) / n)])
        kind = draw(st.sampled_from([Grid1D, Grid1DWideStencil]))
        grid = kind(nodes, manifold=M3 if draw(st.booleans()) else None)
        mask = grid.boundary_mask()
        for _ in range(draw(st.integers(0, 3))):
            start = draw(st.integers(0, n - 1))
            mask[start:start + draw(st.integers(1, 6))] = True
    else:
        grid = Grid2D(0.0, 1.0, 0.0, draw(st.floats(0.5, 2.0)),
                      draw(st.integers(8, 12)), draw(st.integers(8, 12)))
        mask = grid.boundary_mask() | (rng.random(grid.X.shape) < 0.2)
    field = DiscreteField(grid, rng.normal(size=mask.shape))
    return field, mask, rng.normal(size=mask.shape)


@settings(max_examples=40, deadline=None)
@given(newton_systems(), st.floats(1.0, 4.0, exclude_min=True),
       st.floats(1e-3, 1.0))
def test_property_newton_direction_solves_free_block(dense_hessian, system,
                                                     p, eps):
    field, mask, rhs = system
    spec = EnergySpec(p, eps)
    d = sv._newton_direction(en._Cells(spec, field), mask, rhs)
    assert d.shape == mask.shape
    assert np.all(d[mask] == 0.0)
    free = ~mask.ravel()
    H = dense_hessian(spec, field)[np.ix_(free, free)]
    lhs = H @ d.ravel()[free]
    b = rhs.ravel()[free]
    # a mask that fixes every node leaves an empty free block: nothing to solve
    scale = (np.max(np.abs(b), initial=0.0)
             + np.max(np.abs(H) @ np.abs(d.ravel()[free]), initial=0.0))
    assert np.all(np.abs(lhs - b) <= 1e-10 * scale)


def _banded_direction(cells, mask, rhs):
    """The 1D Newton direction through solve_banded, on the 3 x n band
    built as the solver once built it."""
    grid = cells.field.grid
    k = cells.blocks()[0][0] * grid.cell_measure / grid.cell_scale[0]**2
    sa, sb = grid.cell_signs[0]
    ab = np.zeros((3, grid.n))
    ab[1, :-1] += k
    ab[1, 1:] += k
    ab[1, mask] = 1.0
    off = np.where(mask[:-1] | mask[1:], 0.0, sa * sb * k)
    ab[0, 1:] = off
    ab[2, :-1] = off
    return solve_banded((1, 1), ab, np.where(mask, 0.0, rhs))


@settings(max_examples=40, deadline=None)
@given(newton_systems().filter(lambda s: isinstance(s[0].grid, Grid1D)),
       st.floats(1.0, 4.0, exclude_min=True), st.floats(1e-3, 1.0))
def test_property_1d_newton_direction_is_the_banded_solve(system, p, eps):
    # the tridiagonal solve is the one solve_banded makes: the same bits
    field, mask, rhs = system
    cells = en._Cells(EnergySpec(p, eps), field)
    assert np.array_equal(sv._newton_direction(cells, mask, rhs),
                          _banded_direction(cells, mask, rhs))


def test_1d_newton_direction_checks_its_system():
    grid = annulus(17)
    mask = grid.boundary_mask()
    cells = en._Cells(EnergySpec(3.0, 1e-3),
                      DiscreteField(grid, np.cos(grid.radius)))
    rhs = np.ones(grid.n)
    rhs[5] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        sv._newton_direction(cells, mask, rhs)
    # a zero Hessian on the free nodes is singular
    flat = SimpleNamespace(field=cells.field,
                           blocks=lambda: [[np.zeros(grid.n - 1)]])
    with pytest.raises(LinAlgError, match="singular"):
        sv._newton_direction(flat, mask, np.ones(grid.n))


def test_2d_newton_direction_checks_its_system():
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 11)
    mask = grid.boundary_mask()
    cells = en._Cells(EnergySpec(3.0, 1e-3),
                      DiscreteField(grid, np.cos(grid.radius)))
    rhs = np.ones(grid.shape)
    rhs[4, 5] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        sv._newton_direction(cells, mask, rhs)
    # zero cell blocks make the free block zero: not positive definite
    flat = en._Cells(cells.spec, cells.field)
    flat.blocks = lambda: [[np.zeros(grid.cells)] * 2] * 2
    with pytest.raises(LinAlgError, match="not positive definite"):
        sv._newton_direction(flat, mask, np.ones(grid.shape))


def test_2d_solve_builds_no_sparse_matrix(monkeypatch):
    # the band and the diagonal are summed straight from the cell blocks:
    # no sparse matrix is ever formed
    import scipy.sparse

    def no_sparse(*args, **kwargs):
        raise AssertionError("a sparse matrix was built")

    for name in ("csr_matrix", "coo_matrix"):
        monkeypatch.setattr(scipy.sparse, name, no_sparse)
    grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17)
    mask = grid.boundary_mask()
    spec = EnergySpec(3.0, 1e-3)
    f, rep = sv.solve_dirichlet(spec, grid, (mask, np.cos(3.0 * grid.radius)))
    assert rep.steps[-1]["stop"] == "tol" and rep.steps[-1]["iterations"] > 0
    assert np.all(en.hessian_diagonal(spec, f, fixed_mask=mask)[~mask] > 0)


@pytest.mark.parametrize("grid, boundary", [
    # a Grid2D has a ring of boundary nodes, not two ends
    (Grid2D(-1.0, 1.0, -1.0, 1.0, 9, 9), (1.0, 0.0)),
    (annulus(9), (1.0, 0.5, 0.0)),
    # mask and values of the wrong shape raised IndexError
    (annulus(9), (np.ones(8, bool), np.zeros(8))),
    (annulus(9), (np.ones(9, bool), np.zeros(8))),
])
def test_boundary_must_fit_the_grid(grid, boundary):
    with pytest.raises(InvalidInputError):
        sv.solve_dirichlet(EnergySpec(3.0, 1e-3), grid, boundary)


@pytest.mark.parametrize("grid, p", [
    (Grid1D.uniform(1.0, 2.0, 257, manifold=M3), 3.2),
    (Grid2D(-1.0, 1.0, -1.0, 1.0, 17, 17), 1.7),
])
def test_newton_forms_each_fields_cell_gradient_once(monkeypatch, grid, p):
    # D u is formed once per field the Newton loop builds (the start and
    # each line-search trial), not again for its residual, tolerance,
    # Hessian or closing q-energy
    counts = {"fields": 0, "gradients": 0}
    field_init = DiscreteField.__init__
    cell_gradient = type(grid).cell_gradient

    def counted_field(self, *args, **kwargs):
        counts["fields"] += 1
        field_init(self, *args, **kwargs)

    def counted_gradient(self, values):
        counts["gradients"] += 1
        return cell_gradient(self, values)

    monkeypatch.setattr(DiscreteField, "__init__", counted_field)
    monkeypatch.setattr(type(grid), "cell_gradient", counted_gradient)
    mask = grid.boundary_mask()
    vals = np.cos(3.0 * grid.radius)
    # the 1D cold start is the eps = 0 minimizer, 3 Newton steps from the
    # solution at eps = 0.1 and fewer from one at small eps
    eps = 0.1 if isinstance(grid, Grid1D) else 1e-3
    f, rep = sv.solve_dirichlet(EnergySpec(p, eps), grid, (mask, vals))
    assert len(rep.steps) == 1 and rep.steps[0]["iterations"] > 2
    assert counts["gradients"] == counts["fields"] > rep.steps[0]["iterations"]
