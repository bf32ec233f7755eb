import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plap.errors import InvalidInputError
from plap.geometry import euclidean
from plap.grid import (
    Analytic1D,
    DiscreteField,
    Grid1D,
    Grid2D,
    _deriv_1d,
    dump_csv,
    integrate_field,
    lp_norm,
    wp_distance,
    wp_seminorm,
)


def test_grid1d_weights_flat():
    g = Grid1D.uniform(0.0, 1.0, 11)
    assert g.weights.sum() == pytest.approx(1.0)
    assert g.weights[0] == pytest.approx(0.05)


def test_grid1d_weights_weighted():
    M = euclidean(3)
    g = Grid1D.uniform(1.0, 2.0, 401, manifold=M)
    # int_1^2 4 pi t^2 dt = 28 pi / 3
    assert g.weights.sum() == pytest.approx(28 * np.pi / 3, rel=1e-5)


def test_grid1d_validation():
    with pytest.raises(InvalidInputError):
        Grid1D(np.linspace(0, 1, 5))
    with pytest.raises(InvalidInputError):
        Grid1D(np.array([0, 1, 0.5, 2, 3, 4, 5, 6, 7], float))
    with pytest.raises(InvalidInputError):
        Grid1D(np.array([0, 1, 2, 3, 4, 5, 6, 7, 12.5], float))  # ratio > 4


def test_grid2d_validation():
    with pytest.raises(InvalidInputError):
        Grid2D(0, 1, 0, 1, 4, 20)
    with pytest.raises(InvalidInputError):
        Grid2D(0, 0, 0, 1, 20, 20)


def test_deriv_1d_second_order():
    errs = []
    for n in (33, 65):
        t = np.linspace(0.3, 1.7, n)
        d = _deriv_1d(t, np.sin(t))
        errs.append(np.max(np.abs(d - np.cos(t))))
    assert errs[0] / errs[1] > 3.5  # ~4 for 2nd order


def test_deriv_1d_exact_on_quadratics():
    t = np.linspace(0.0, 2.0, 17)
    d = _deriv_1d(t, 3 * t**2 - t + 5)
    assert np.allclose(d, 6 * t - 1, atol=1e-12)


def test_field_shape_and_finiteness_checks():
    g = Grid1D.uniform(0, 1, 9)
    with pytest.raises(InvalidInputError):
        DiscreteField(g, np.ones(8))
    with pytest.raises(InvalidInputError):
        DiscreteField(g, np.full(9, np.nan))


def test_gradient_hessian_2d():
    g = Grid2D(0, 1, 0, 1, 41, 41)
    f = DiscreteField.from_function(g, lambda x, y: x**2 + 3 * x * y)
    gx, gy = g.fd_gradient(f.values)
    assert np.allclose(gx, 2 * g.X + 3 * g.Y, atol=1e-10)
    assert np.allclose(gy, 3 * g.X, atol=1e-10)
    xx, xy, yy = g.fd_hessian([gx, gy])
    assert np.allclose(xx, 2.0, atol=1e-8)
    assert np.allclose(xy, 3.0, atol=1e-8)
    assert np.allclose(yy, 0.0, atol=1e-8)


@st.composite
def square_norms(draw):
    """(grid, |x|^2 at the nodes, m): a nonuniform Grid1D over
    euclidean(m), where |x| = t, or a Grid2D, where m = 2."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        m, n = draw(st.integers(2, 6)), draw(st.integers(9, 60))
        nodes = draw(st.floats(0.1, 3.0)) + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1) / n)])
        return Grid1D(nodes, manifold=euclidean(m)), nodes**2, m
    x0, y0 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    g = Grid2D(x0, x0 + draw(st.floats(0.5, 3.0)),
               y0, y0 + draw(st.floats(0.5, 3.0)),
               draw(st.integers(8, 33)), draw(st.integers(8, 33)))
    return g, g.X**2 + g.Y**2, 2


@settings(max_examples=60, deadline=None)
@given(square_norms())
def test_property_nodal_calculus_of_square_norm(case):
    # |Hess|x|^2|^2 = 4m and Delta|x|^2 = 2m; second-order differences
    # are exact on quadratics
    g, values, m = case
    assert g.dim == m
    grad = g.fd_gradient(values)
    hess = g.fd_hessian(grad)
    assert np.allclose(g.hess_sq(grad, hess), 4.0 * m, rtol=1e-9, atol=0.0)
    assert np.allclose(g.laplacian(grad, hess), 2.0 * m, rtol=1e-9, atol=0.0)


def test_integrate_and_norms():
    g = Grid1D.uniform(0.0, 1.0, 101)
    f = DiscreteField(g, g.nodes.copy())
    assert integrate_field(f.values, g) == pytest.approx(0.5)
    assert lp_norm(f, 2.0) == pytest.approx(np.sqrt(1 / 3), rel=1e-3)
    assert wp_seminorm(f, 2.0) == pytest.approx(1.0, rel=1e-10)
    assert np.allclose(g.grad_norm(g.fd_gradient(f.values)), 1.0)


def test_wp_distance_requires_shared_grid():
    g1 = Grid1D.uniform(0, 1, 11)
    g2 = Grid1D.uniform(0, 1, 11)
    f1 = DiscreteField(g1, g1.nodes.copy())
    with pytest.raises(InvalidInputError):
        wp_distance(f1, DiscreteField(g2, g2.nodes.copy()), 2.0)
    assert wp_distance(f1, DiscreteField(g1, 2 * g1.nodes), 2.0) > 0


def test_analytic_descriptor_carried():
    g = Grid1D.uniform(1, 2, 9)
    ana = Analytic1D(u=np.log, du=lambda t: 1 / t)
    f = DiscreteField(g, np.log(g.nodes), analytic=ana)
    assert f.analytic.du(2.0) == pytest.approx(0.5)


def test_dump_csv_deterministic(tmp_path):
    g = Grid1D.uniform(0, 1, 9)
    f = DiscreteField(g, np.sqrt(g.nodes + 0.1))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    dump_csv(f, p1)
    dump_csv(f, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0].startswith("t")
