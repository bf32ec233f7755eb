import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plap.energy as en
import plap.solver as sv
import plap.verifiers as vf
from plap.energy import EnergySpec
from plap.errors import (
    ConstantsInfeasibleError,
    InvalidInputError,
    NoDataError,
    SingularityError,
    UnsupportedVariantError,
)
from plap.geometry import Cosh, Exponential, euclidean, warped
from plap.grid import Analytic1D, DiscreteField, Grid1D, Grid2D


# -- kappa -------------------------------------------------------------------


def test_kappa_values():
    assert vf.kappa(2.0, 3, "Theorem1") == pytest.approx(0.5)
    assert vf.kappa(3.0, 3, "Theorem1") == pytest.approx(1.0)
    assert vf.kappa(1.5, 4, "Theorem1") == pytest.approx(0.25 / 3)
    assert vf.kappa(3.0, 4, "RefinedKS") == pytest.approx(1.0)
    assert vf.kappa(1.5, 3, "RefinedKS") == pytest.approx(0.125)
    assert vf.kappa(3.0, 4, "WeakKa'") == pytest.approx(1.0 / 3)
    assert vf.kappa(1.5, 3, "WeakKa") == pytest.approx(0.125)


def test_kappa_validation():
    with pytest.raises(InvalidInputError, match="p > 1"):
        vf.kappa(1.0, 3)
    # NaN once gave kappa = nan and a Kato check that "failed"
    with pytest.raises(InvalidInputError, match="p > 1"):
        vf.kappa(np.nan, 3)
    with pytest.raises(InvalidInputError, match="dimension m >= 2"):
        vf.kappa(2.0, 1)
    with pytest.raises(InvalidInputError):
        vf.kappa(2.0, 3, "Nope")


# -- Kato ratio --------------------------------------------------------------


def test_kato_ratio_log_field():
    f = vf.log_radial_field(m=2)
    rep = vf.kato_ratio(f, 2.0)
    assert rep.minimum == pytest.approx(2.0, abs=1e-3)
    assert rep.passed


def test_kato_ratio_power_field():
    f = vf.power_radial_field(p=3.0, m=4)
    rep = vf.kato_ratio(f, 3.0)
    # 1 + (m-1)/(p-1)^2 restricted to... = 7/3 for radial extremals
    assert rep.minimum == pytest.approx(7.0 / 3.0, abs=1e-3)
    assert rep.passed


def test_kato_ratio_first_derivative_descriptor_keeps_collar():
    # without u'' the jet is differenced, so the one-sided end stencils
    # are cut off exactly as for a field with no descriptor
    f = vf.power_radial_field(p=3.0, m=4, n=65)
    ana = Analytic1D(u=f.analytic.u, du=f.analytic.du)
    du_only = DiscreteField(f.grid, f.values, analytic=ana)
    rep = vf.kato_ratio(du_only, 3.0)
    assert rep == vf.kato_ratio(DiscreteField(f.grid, f.values), 3.0)
    assert rep.excluded == 4
    assert rep.minimum == pytest.approx(7.0 / 3.0, abs=2e-3)
    assert rep.maximum == pytest.approx(7.0 / 3.0, abs=2e-3)


def test_kato_ratio_rejects_negative_collar():
    # a negative collar was taken as no collar
    with pytest.raises(InvalidInputError, match="collar"):
        vf.kato_ratio(vf.log_radial_field(m=2), 2.0, collar=-1)


def test_kato_ratio_flat_line_names_dimension():
    # the flat line has dimension 1: no Kato constant, whatever p is
    g = Grid1D.uniform(1.0, 2.0, 33)
    with pytest.raises(InvalidInputError, match="dimension m >= 2, got m = 1"):
        vf.kato_ratio(DiscreteField(g, g.nodes**2), 3.0)


def test_kato_ratio_vacuous_linear_2d():
    g = Grid2D(0, 1, 0, 1, 17, 17)
    f = DiscreteField.from_function(g, lambda x, y: 2 * x)
    rep = vf.kato_ratio(f, 3.0)
    assert rep.passed
    assert rep.minimum == np.inf


def test_kato_ratio_no_data():
    g = Grid2D(0, 1, 0, 1, 17, 17)
    with pytest.raises(NoDataError):
        vf.kato_ratio(DiscreteField(g, np.ones((17, 17))), 2.0)


def test_kato_ratio_2d_log_field():
    g = Grid2D(1.0, 2.0, 1.0, 2.0, 129, 129)
    f = DiscreteField.from_function(
        g, lambda x, y: 0.5 * np.log(x * x + y * y))
    rep = vf.kato_ratio(f, 2.0, collar=3)
    assert rep.minimum == pytest.approx(2.0, abs=1e-3)
    assert rep.passed


def test_kato_ratio_2d_power_field():
    # r^{1/2} is 3-harmonic in the plane; the radial extremal attains
    # the ratio 1 + (p-1)^2/(m-1) = 5
    g = Grid2D(1.0, 2.0, 1.0, 2.0, 129, 129)
    f = DiscreteField.from_function(
        g, lambda x, y: (x * x + y * y) ** 0.25)
    rep = vf.kato_ratio(f, 3.0, collar=3)
    assert rep.minimum == pytest.approx(5.0, abs=1e-3)
    assert rep.passed


# -- strong form and Bochner --------------------------------------------------


def test_strong_form_zero_for_extremals():
    # FD truncation level at n=257 on a unit interval
    for f, p in ((vf.log_radial_field(m=2), 2.0),
                 (vf.power_radial_field(3.0, 4), 3.0)):
        rep = vf.strong_form_residual(f, p)
        assert rep.maximum < 1e-3


def test_strong_form_second_order():
    maxes = []
    for n in (65, 129, 257):
        f = vf.power_radial_field(3.0, 4, n=n)
        f = DiscreteField(f.grid, f.values)  # FD path, pure truncation
        maxes.append(vf.strong_form_residual(f, 3.0).maximum)
    order = np.log2(maxes[0] / maxes[1])
    assert order > 1.8
    assert np.log2(maxes[1] / maxes[2]) > 1.8


@pytest.mark.parametrize("p", [3.0, 1.5])
def test_strong_form_second_order_2d(p):
    # r^alpha with alpha = (p-2)/(p-1) is p-harmonic in the plane
    al = (p - 2.0) / (p - 1.0)
    maxes = []
    for n in (65, 129, 257):
        g = Grid2D(1.0, 2.0, 1.0, 2.0, n, n)
        f = DiscreteField.from_function(
            g, lambda x, y: (x * x + y * y) ** (al / 2.0))
        maxes.append(vf.strong_form_residual(f, p).maximum)
    assert np.log2(maxes[0] / maxes[1]) > 1.7
    assert np.log2(maxes[1] / maxes[2]) > 1.7


def test_bochner_rejects_eps_zero():
    f = vf.power_radial_field(3.0, 4)
    with pytest.raises(SingularityError):
        vf.bochner_residual(f, 3.0, 0.0)
    with pytest.raises(SingularityError):
        vf.bochner_s_residual(f, 3.0, 1.0, 0.0)
    with pytest.raises(InvalidInputError):
        vf.bochner_residual(f, 0.5, 1e-3)


@pytest.mark.parametrize("eps", [np.inf, np.nan])
def test_bochner_rejects_nonfinite_eps(eps):
    # it reported "field values must be finite", about f_eps^2
    f = vf.power_radial_field(3.0, 4)
    with pytest.raises(InvalidInputError, match="eps must be finite"):
        vf.bochner_residual(f, 3.0, eps)


def test_bochner_2d_linear_field():
    g = Grid2D(0, 1, 0, 1, 33, 33)
    f = DiscreteField.from_function(g, lambda x, y: x + 2 * y)
    rep = vf.bochner_residual(f, 3.0, 1e-2)
    assert rep.maximum < 1e-10


@pytest.mark.parametrize("p, eps, u", [
    (2.0, 1e-2, lambda x, y: 0.5 * np.log(x * x + y * y)),
    (3.0, 1e-8, lambda x, y: (x * x + y * y) ** 0.25),
], ids=["log_r_p2", "sqrt_r_p3"])
def test_bochner_2d_second_order(p, eps, u):
    # p-harmonic fields, so the identity is exact: what is left is the
    # truncation of the nested differences away from the collar
    maxes = []
    for n in (65, 129, 257):
        g = Grid2D(1.0, 2.0, 1.0, 2.0, n, n)
        f = DiscreteField.from_function(g, u)
        maxes.append(vf.bochner_residual(f, p, eps).maximum)
    assert np.log2(maxes[0] / maxes[1]) >= 1.5
    assert np.log2(maxes[1] / maxes[2]) >= 1.5


def test_bochner_residual_decays_on_solver_output():
    M3 = euclidean(3)
    maxes = []
    for n in (257, 513, 1025):
        grid = Grid1D.uniform(1.0, 2.0, n, manifold=M3)
        f, _ = sv.solve_dirichlet(EnergySpec(3.0, 1e-4), grid, (1.0, 0.0))
        maxes.append(vf.bochner_residual(f, 3.0, 1e-4).maximum)
    h = np.log([1.0 / 256, 1.0 / 512, 1.0 / 1024])
    slope = np.polyfit(h, np.log(maxes), 1)[0]
    assert slope > 0.8


def test_bochner_s_rejects_nan():
    f = vf.power_radial_field(3.0, 4)
    with pytest.raises(SingularityError):
        vf.bochner_s_residual(f, 3.0, 1.0, np.nan)
    for s in (np.nan, np.inf):
        with pytest.raises(InvalidInputError):
            vf.bochner_s_residual(f, 3.0, s, 1e-3)


def test_bochner_s_rejects_infinite_eps():
    # eps = inf ran and gave NaN residuals
    f = vf.power_radial_field(3.0, 4)
    with pytest.raises(InvalidInputError, match="finite"):
        vf.bochner_s_residual(f, 3.0, 1.0, np.inf)


def test_bochner_s_rounding_level():
    f = vf.power_radial_field(3.0, 4)
    rep = vf.bochner_s_residual(f, 3.0, 1.0, 1e-3)
    assert rep.passed
    assert rep.maximum <= rep.threshold
    # closed form: every node is read, at rounding level of scale
    assert rep.excluded == 0
    assert rep.threshold == vf._EXACT_TOL * rep.details["scale"]


def test_bochner_s_p2_collapse():
    # for p = 2 and a harmonic u the eps terms vanish identically,
    # so the identity holds for every s
    M3 = euclidean(3)
    grid = Grid1D.uniform(1.0, 2.0, 65, manifold=M3)
    from plap.grid import Analytic1D

    ana = Analytic1D(u=lambda t: 2.0 / t - 1.0, du=lambda t: -2.0 / t**2,
                     d2u=lambda t: 4.0 / t**3, d3u=lambda t: -12.0 / t**4)
    f = DiscreteField(grid, 2.0 / grid.nodes - 1.0, analytic=ana)
    for s in (0.5, 1.0, 3.0):
        rep = vf.bochner_s_residual(f, 2.0, s, 0.37)
        assert rep.passed, s


def test_bochner_s_matches_bochner_at_s_p_minus_2():
    # at s = p-2 the generalized identity is the perturbed one; the
    # closed-form residual must sit at rounding level and the FD version
    # within its truncation error of zero
    f = vf.power_radial_field(3.0, 4, n=513)
    eps = 1e-8
    rs = vf.bochner_s_residual(f, 3.0, 1.0, eps)
    rb = vf.bochner_residual(f, 3.0, eps)
    assert rs.maximum <= rs.threshold
    assert rb.maximum < 1e-3


def _gallery(name):
    return next(it for it in vf.example_gallery() if it["name"] == name)


@pytest.mark.parametrize("name", ["log_annulus_m2", "power_p3_m4",
                                  "arctan_warped"])
def test_identity_checks_pass_at_the_fields_own_p(name):
    it = _gallery(name)
    for rep in (vf.strong_form_residual(it["field"], it["p"]),
                vf.bochner_residual(it["field"], it["p"], 1e-3)):
        assert rep.passed, rep
        assert rep.threshold == vf._DIFFERENCED_TOL * rep.details["scale"]


def test_identity_checks_fail_at_a_wrong_p():
    # the p = 3 power field is not 5-harmonic; both checks passed with
    # threshold 0 whatever the residual
    f = _gallery("power_p3_m4")["field"]
    for rep in (vf.strong_form_residual(f, 5.0),
                vf.bochner_residual(f, 5.0, 1e-3)):
        assert not rep.passed
        assert rep.maximum > 10.0 * rep.threshold


def test_nodal_checks_count_collar_and_degenerate_nodes():
    # |grad u| vanishes at the middle node: no check reads it, nor the
    # two nodes at each end of the axis
    g = Grid1D.uniform(1.0, 2.0, 65, manifold=euclidean(3))
    f = DiscreteField(g, ((np.arange(65) - 32.0) / 64.0) ** 2)
    assert vf.kato_ratio(f, 3.0).excluded == 5
    assert vf.strong_form_residual(f, 3.0).excluded == 5
    assert vf.bochner_residual(f, 3.0, 1e-3).excluded == 5
    g2 = Grid2D(1.0, 2.0, 1.0, 2.0, 33, 33)
    f2 = DiscreteField.from_function(g2, lambda x, y: 0.5 * np.log(x * x + y * y))
    n_read = 29 * 29
    assert vf.strong_form_residual(f2, 2.0).excluded == 33 * 33 - n_read
    assert vf.bochner_residual(f2, 2.0, 1e-2).excluded == 33 * 33 - n_read


def test_identity_checks_read_a_flat_field_outside_the_collar():
    # both sides vanish: a constant passes with zero residual, read at
    # every node outside the collar
    g = Grid2D(0, 1, 0, 1, 17, 17)
    f = DiscreteField(g, np.ones((17, 17)))
    for rep in (vf.strong_form_residual(f, 2.0),
                vf.bochner_residual(f, 2.0, 1e-3)):
        assert rep.passed and rep.maximum == 0.0
        assert rep.excluded == 17 * 17 - 13 * 13


def test_bochner_s_needs_analytic():
    g = Grid1D.uniform(1, 2, 33, manifold=euclidean(3))
    f = DiscreteField(g, g.nodes.copy())
    with pytest.raises(InvalidInputError):
        vf.bochner_s_residual(f, 3.0, 1.0, 1e-3)


# -- Caccioppoli --------------------------------------------------------------


def _cutoff(grid, lo, hi, ramp):
    t = grid.nodes
    up = np.clip((t - lo) / ramp, 0.0, 1.0)
    down = np.clip((hi - t) / ramp, 0.0, 1.0)
    return DiscreteField(grid, np.minimum(up, down))


def test_caccioppoli_three_cutoffs():
    # w = 1/t is positive and 2-harmonic (hence subharmonic) on m=3
    M3 = euclidean(3)
    grid = Grid1D.uniform(1.0, 10.0, 721, manifold=M3)
    w = DiscreteField(grid, 1.0 / grid.nodes)
    for ramp in (1.0, 2.0, 3.0):
        psi = _cutoff(grid, 2.0, 9.0, ramp)
        rep = vf.caccioppoli_check(w, psi, 2.0)
        assert rep.passed, ramp
        assert rep.details["lhs"] <= rep.details["rhs"]


def test_caccioppoli_zero_cutoff():
    M3 = euclidean(3)
    grid = Grid1D.uniform(1.0, 10.0, 121, manifold=M3)
    w = DiscreteField(grid, 1.0 / grid.nodes)
    psi = DiscreteField(grid, np.zeros(grid.n))
    rep = vf.caccioppoli_check(w, psi, 2.0)
    assert rep.passed
    assert rep.details["lhs"] == 0.0


def test_caccioppoli_rejects_nonpositive_w():
    M3 = euclidean(3)
    grid = Grid1D.uniform(1.0, 10.0, 121, manifold=M3)
    w = DiscreteField(grid, 1.0 / grid.nodes - 0.5)
    psi = _cutoff(grid, 2.0, 9.0, 1.0)
    with pytest.raises(InvalidInputError):
        vf.caccioppoli_check(w, psi, 2.0)


def test_weighted_caccioppoli_constants():
    B, C = vf.weighted_caccioppoli_constants(2.0, 1.0, 1.5, 0.01, 0.01)
    assert C > 0
    assert B > 0
    with pytest.raises(ConstantsInfeasibleError):
        vf.weighted_caccioppoli_constants(2.0, 1.0, 1.5, 0.01, 1 - 1e-7)
    with pytest.raises(ConstantsInfeasibleError):
        vf.weighted_caccioppoli_constants(2.0, 1.0 / 3.0, 1.5, 0.01, 0.01)
    with pytest.raises(InvalidInputError):
        vf.weighted_caccioppoli_constants(2.0, 1.0, 1.5, -0.1, 0.5)


def test_weighted_caccioppoli_check_cosh():
    M = warped(4, Cosh())
    grid = Grid1D.uniform(-8.0, 8.0, 1025, manifold=M)
    eps = 1e-4
    f, _ = sv.solve_dirichlet(EnergySpec(2.0, eps), grid, (0.0, 1.0))
    rep = vf.weighted_caccioppoli_check(M, 2.0, f, eps, kappa_val=1.0,
                                        tau=1.5, eps1=0.01, eps2=0.01, R=4.0)
    assert rep.passed
    assert rep.details["margin"] > 0


def test_weighted_caccioppoli_check_needs_coverage():
    M = warped(4, Cosh())
    grid = Grid1D.uniform(-4.0, 4.0, 129, manifold=M)
    f = DiscreteField(grid, np.tanh(grid.nodes))
    with pytest.raises(InvalidInputError):
        vf.weighted_caccioppoli_check(M, 2.0, f, 1e-4, 1.0, 1.5, 0.01,
                                      0.01, R=4.0)


def test_inequality_reports_are_margins():
    # threshold 0, and minimum, mean and maximum are the margin rhs - lhs
    M3 = euclidean(3)
    grid = Grid1D.uniform(1.0, 10.0, 121, manifold=M3)
    w = DiscreteField(grid, 1.0 / grid.nodes)
    M = warped(4, Cosh())
    gc = Grid1D.uniform(-8.0, 8.0, 257, manifold=M)
    reps = [vf.caccioppoli_check(w, _cutoff(grid, 2.0, 9.0, 1.0), 2.0),
            vf.weighted_caccioppoli_check(
                M, 2.0, DiscreteField(gc, np.tanh(gc.nodes)), 1e-4,
                kappa_val=1.0, tau=1.5, eps1=0.01, eps2=0.01, R=4.0),
            vf.regularization_gap([3.0, 4.0], [1.0, 0.0], 0.1, 3.0, 0.5)]
    for rep in reps:
        margin = rep.details["rhs"] - rep.details["lhs"]
        assert rep.threshold == 0.0
        assert rep.minimum == rep.mean == rep.maximum == margin, rep.name
    rep = vf.regularization_suite(n=200, seed=1)
    assert rep.threshold == 0.0
    assert rep.minimum <= rep.mean <= rep.maximum


# -- vector inequalities -------------------------------------------------------


def test_monotonicity_gap_examples():
    out = vf.monotonicity_gap([1.0, 0.0], [0.0, 0.0], 3.0)
    assert out["lhs"] == pytest.approx(1.0)
    assert out["psi"] == pytest.approx(1.0)
    out = vf.monotonicity_gap([1.0, 0.0], [1.0, 0.0], 3.0)
    assert out["lhs"] == 0.0
    out = vf.monotonicity_gap([1.0, 0.0], [-1.0, 0.0], 2.0)
    assert out["lhs"] == pytest.approx(4.0)
    assert out["psi"] == pytest.approx(4.0)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_monotonicity_gap_zero_rows(p):
    # |0|^{p-2} was evaluated before np.where discarded it: a RuntimeWarning
    # at p < 2, an error under the test filter
    X = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [0.0, 0.0, 0.0]])
    Y = np.array([[0.0, 3.0, 4.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = vf.monotonicity_gap(X, Y, p)
    # one vector V zero: lhs = |V|^p, and Psi has |X-Y| = |V|
    for i, v in ((0, 5.0), (1, 3.0)):
        psi = v**p if p >= 2 else (p - 1.0) * v**2 / (1.0 + v**2) ** ((2.0 - p) / 2.0)
        assert out["lhs"][i] == pytest.approx(v**p, rel=1e-14)
        assert out["psi"][i] == pytest.approx(psi, rel=1e-14)
    assert out["lhs"][2] == out["psi"][2] == 0.0


_rows = st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d),
              st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d),
              st.sampled_from(["random", "x_zero", "y_zero", "equal"])),
    min_size=1, max_size=12))


@settings(max_examples=60, deadline=None)
@given(_rows, st.sampled_from([1.13, 1.5, 2.0, 2.4, 3.0, 3.95, 7.0]))
def test_property_monotonicity_gap_batch_is_rowwise(rows, p):
    # a batch evaluates each row exactly as a single pair, and the gap is
    # nonnegative up to rounding of its size
    X = np.array([x for x, _, _ in rows])
    Y = np.array([y for _, y, _ in rows])
    for i, (_, _, kind) in enumerate(rows):
        if kind == "x_zero":
            X[i] = 0.0
        elif kind == "y_zero":
            Y[i] = 0.0
        elif kind == "equal":
            Y[i] = X[i]
    batch = vf.monotonicity_gap(X, Y, p)
    for i in range(len(rows)):
        one = vf.monotonicity_gap(X[i], Y[i], p)
        for k in ("lhs", "psi", "ratio"):
            assert batch[k][i] == one[k]
    size = np.linalg.norm(X, axis=1) + np.linalg.norm(Y, axis=1)
    assert np.all(batch["lhs"] >= -1e-12 * size**p)


def test_monotonicity_one_sample():
    # one pair as a (1, 3) block stays an array: n = 1 raised a TypeError
    # at ratio[finite]
    out = vf.monotonicity_gap(np.ones((1, 3)), np.zeros((1, 3)), 3.0)
    assert all(v.shape == (1,) for v in out.values())
    res = vf.monotonicity_suite(p_values=(1.5, 3.0), n=1, seed=0)
    assert res[1.5]["violations"] == res[3.0]["violations"] == 0
    with pytest.raises(InvalidInputError):
        vf.monotonicity_suite(n=0)


def test_monotonicity_suite_small():
    out = vf.monotonicity_suite(p_values=(1.5, 3.0), n=20_000, seed=7)
    assert out["ok"]
    for p in (1.5, 3.0):
        assert out[p]["violations"] == 0
        assert out[p]["C_emp"] > 0
        assert out[p]["half_constant_recheck"]
    # pinned: the sample is fixed by the seed, and evaluating it in row
    # blocks moves no bit of the minimum
    assert out[1.5]["C_emp"] == 1.190691850728282
    assert out[3.0]["C_emp"] == 0.4999999999999998


def test_monotonicity_suite_deterministic():
    a = vf.monotonicity_suite(p_values=(2.5,), n=5_000, seed=3)
    b = vf.monotonicity_suite(p_values=(2.5,), n=5_000, seed=3)
    assert a[2.5]["C_emp"] == b[2.5]["C_emp"]


@pytest.mark.parametrize("seed", [0, 7])
def test_monotonicity_suite_is_one_task_per_p(monkeypatch, seed):
    # the p at index ip is the single-p suite at seed + 1000 ip, and the
    # worker count moves no bit
    ps = (1.5, 2.0, 3.0, 4.0)
    out = vf.monotonicity_suite(p_values=ps, n=30_001, seed=seed)
    for ip, p in enumerate(ps):
        alone = vf.monotonicity_suite(p_values=(p,), n=30_001,
                                      seed=seed + 1000 * ip)
        assert out[p] == alone[p]
    monkeypatch.setattr(vf, "_usable_cpus", lambda: 1)
    assert vf.monotonicity_suite(p_values=ps, n=30_001, seed=seed) == out


def test_monotonicity_suite_keeps_caller_errstate():
    # each p runs in a copy of the caller's context: a pool thread of its
    # own starts from numpy's default errstate and only warns
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            vf.monotonicity_suite(p_values=(400.0,), n=1000)


def test_monotonicity_suite_p_values_order():
    assert vf.monotonicity_suite(p_values=(), n=10) == {"ok": True}
    # keys in p_values order; a repeated p keeps its later index's result
    out = vf.monotonicity_suite(p_values=(3.0, 2.0, 3.0), n=2000, seed=5)
    assert list(out) == [3.0, 2.0, "ok"]
    later = vf.monotonicity_suite(p_values=(3.0,), n=2000, seed=5 + 2000)
    assert out[3.0] == later[3.0]


def test_regularization_gap_p2_exact():
    rep = vf.regularization_gap([3.0, 4.0], [1.0, 0.0], 0.1, 2.0, 0.5)
    assert rep.details["a"] == 1.0 and rep.details["delta"] == 0.0
    # lhs = rhs exactly when p = 2
    assert rep.details["lhs"] == pytest.approx(rep.details["rhs"])
    assert rep.passed


def test_regularization_gap_branches():
    rng = np.random.default_rng(11)
    for p in (1.5, 3.0, 5.0):
        for _ in range(200):
            X = rng.normal(size=3)
            Y = rng.normal(size=3)
            if np.linalg.norm(X) < np.linalg.norm(Y):
                X, Y = Y, X
            rep = vf.regularization_gap(X, Y, 1e-2, p, 0.3)
            assert rep.passed, (p, X, Y)


def test_regularization_gap_validation():
    with pytest.raises(InvalidInputError):
        vf.regularization_gap([1.0], [2.0], 0.1, 3.0, 0.5)  # |X| < |Y|
    with pytest.raises(InvalidInputError):
        vf.regularization_gap([1.0], [0.5], -0.1, 3.0, 0.5)
    with pytest.raises(InvalidInputError):
        vf.regularization_gap([1.0], [0.5], 0.1, 3.0, 0.0)


@pytest.mark.parametrize("X, Y, eps, p, delta1", [
    ([1.0], [0.5], np.nan, 3.0, 0.5),
    ([1.0], [0.5], 0.1, np.nan, 0.5),
    ([1.0], [0.5], 0.1, 3.0, np.nan),
    ([3.0, 4.0], [1.0, 0.0], np.inf, 3.0, 0.5),
    ([3.0, 4.0], [1.0, 0.0], 0.1, np.inf, 0.5),
    ([3.0, 4.0], [1.0, 0.0], 0.1, 3.0, np.inf),
    ([np.nan, 1.0], [0.5], 0.1, 3.0, 0.5),
    ([1.0], [np.nan], 0.1, 3.0, 0.5),
    ([np.inf], [0.5], 0.1, 3.0, 0.5),
    ([np.inf], [np.inf], 0.1, 3.0, 0.5),
    ([3.0, 4.0], [1.0, 0.0], 0.1, 2000.0, 0.5),
    ([3.0, 4.0], [1.0, 0.0], 0.0, 500.0, 0.5),
    ([3.0, 4.0], [1.0, 0.0], 0.1, 3.0, 1e-200),
    ([1e200, 1e200], [1.0, 0.0], 0.1, 3.0, 0.5)],
    ids=["eps", "p", "delta1", "inf-eps", "inf-p", "inf-delta1",
         "nan-X", "nan-Y", "inf-X", "inf-both", "large-p", "large-p-eps0",
         "tiny-delta1", "overflowing-norm"])
def test_regularization_gap_rejects_nan(X, Y, eps, p, delta1):
    # NaN p raised a bare ValueError and infinite p an OverflowError; a
    # non-finite eps, delta1 or norm gave a NaN report, a failed check.
    # Finite input whose terms leave the float range raised a bare
    # OverflowError or ZeroDivisionError, and an overflowing norm warned
    # (an error under the test config) before it was rejected
    with pytest.raises(InvalidInputError):
        vf.regularization_gap(X, Y, eps, p, delta1)


def test_regularization_suite_matches_pairwise_loop():
    # the same stream drawn pair by pair: p, X, Y, the swap, eps, delta1;
    # the suite's margins must equal regularization_gap's bit for bit
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        margins, bad = [], 0
        for _ in range(500):
            p = rng.uniform(1.0, 6.0)
            X = rng.normal(size=3)
            Y = rng.normal(size=3)
            if np.linalg.norm(X) < np.linalg.norm(Y):
                X, Y = Y, X
            eps, delta1 = rng.uniform(0, 1), rng.uniform(0.1, 2.0)
            rep = vf.regularization_gap(X, Y, eps, p, delta1)
            margins.append(rep.details["rhs"] - rep.details["lhs"])
            bad += not rep.passed
        rep = vf.regularization_suite(n=500, seed=seed)
        assert rep.name == "regularization_gap" and rep.threshold == 0.0
        assert rep.details["violations"] == bad == 0 and rep.passed
        assert rep.minimum == min(margins) and rep.maximum == max(margins)
        assert rep.mean == np.mean(margins), seed
    with pytest.raises(InvalidInputError):
        vf.regularization_suite(n=0)


def test_weighted_poincare_cosh():
    M = warped(4, Cosh())
    grid = Grid1D.uniform(-6.0, 6.0, 513, manifold=M)
    bump = np.exp(-grid.nodes**2)
    bump[0] = bump[-1] = 0.0
    out = vf.weighted_poincare_check(M, [DiscreteField(grid, bump)])
    assert out.passed


def test_weighted_poincare_zero_function():
    M = warped(4, Cosh())
    grid = Grid1D.uniform(-6.0, 6.0, 65, manifold=M)
    out = vf.weighted_poincare_check(M, [DiscreteField(grid, np.zeros(65))])
    assert out.passed


def test_weighted_poincare_validation():
    with pytest.raises(UnsupportedVariantError):
        vf.weighted_poincare_check(euclidean(3), [])
    M = warped(4, Cosh())
    with pytest.raises(InvalidInputError):
        vf.weighted_poincare_check(M, [])
    grid = Grid1D.uniform(-6.0, 6.0, 65, manifold=M)
    with pytest.raises(InvalidInputError):
        vf.weighted_poincare_check(M, [DiscreteField(grid, np.ones(65))])


# -- gallery and model fields --------------------------------------------------


def test_equality_case_hessian_structure():
    # radial extremal u = t^alpha: u'' / (u'/t) = alpha - 1 = (1-m)/(p-1)
    p, m = 1.5, 4  # (p-1)^2 < m-1
    f = vf.power_radial_field(p, m)
    t = f.grid.nodes
    ratio = f.analytic.d2u(t) / (f.analytic.du(t) / t)
    assert np.allclose(ratio, (1 - m) / (p - 1))


def test_power_field_rejects_p_equal_m():
    with pytest.raises(InvalidInputError):
        vf.power_radial_field(3.0, 3)


def test_arctan_field_energy_is_pi():
    f, M = vf.arctan_model_field()
    val = vf.analytic_q_energy(M, f.analytic.du, 3.0)
    assert val == pytest.approx(np.pi, abs=1e-10)


@pytest.mark.parametrize("q, want", [
    # |u'|^q A ~ |t|^(4 - 2q): the energy is finite for q > 5/2 only
    (2.3, np.inf), (2.45, np.inf), (2.5, np.inf),
    (2.55, 21.353449332480142), (3.0, np.pi)])
def test_arctan_field_energy_diverges_below_the_window(q, want):
    # quad once returned -3.449 at q = 2.3 and -18.58 at 2.45, warning
    f, M = vf.arctan_model_field()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert vf.analytic_q_energy(M, f.analytic.du, q) == want


def test_example_gallery_contract():
    items = vf.example_gallery()
    names = [it["name"] for it in items]
    assert {"log_annulus_m2", "power_p3_m4", "constant", "linear",
            "arctan_warped"} <= set(names)
    for it in items:
        exp = it["expected"]
        if "kato_ratio" in exp:
            rep = vf.kato_ratio(it["field"], it["p"])
            assert rep.minimum == pytest.approx(exp["kato_ratio"], abs=1e-3)
        if it["name"] in ("log_annulus_m2", "power_p3_m4"):
            assert vf.strong_form_residual(it["field"], it["p"]).maximum < 1e-3
