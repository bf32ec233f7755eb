import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from plap.errors import InvalidInputError
from plap.geometry import euclidean
from plap.grid import (
    Analytic1D,
    DiscreteField,
    Grid1D,
    Grid2D,
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


@pytest.mark.parametrize("grid", [
    Grid1D.uniform(0.0, 1.0, 11),
    Grid1D.uniform(1.0, 2.0, 401, manifold=euclidean(3)),
    Grid1D(np.cumsum(np.linspace(1.0, 1.5, 33)) * 1e-3),
    Grid2D(0.0, 1.0, -1.0, 2.0, 9, 11),
    Grid2D(-2.0, 2.0, -2.0, 2.0, 65, 65),
])
def test_trapezoid_weights_are_the_explicit_formulas(grid):
    # one trapezoid rule builds both grids' weights from per-axis cell
    # widths as h_{i-1}/2 + h_i/2: halving is exact, so it matches the
    # end-and-interior formulas to the bit
    if isinstance(grid, Grid1D):
        h = grid.h
        w = np.empty(grid.n)
        w[0], w[-1] = h[0] / 2, h[-1] / 2
        w[1:-1] = (h[:-1] + h[1:]) / 2
        want = grid.area * w
    else:
        wx = np.full(grid.nx, grid.hx)
        wx[0] = wx[-1] = grid.hx / 2
        wy = np.full(grid.ny, grid.hy)
        wy[0] = wy[-1] = grid.hy / 2
        want = np.outer(wx, wy)
    assert np.array_equal(grid.weights, want)


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


@pytest.mark.parametrize("make", [
    lambda: Grid1D.uniform(1.0, np.inf, 9),
    lambda: Grid1D.uniform(np.nan, 1.0, 9),
    lambda: Grid1D(np.r_[np.linspace(0.0, 1.0, 8), np.inf]),
    lambda: Grid1D(np.r_[np.nan, np.linspace(0.0, 1.0, 8)]),
    lambda: Grid2D(0, np.inf, 0, 1, 9, 9),
    lambda: Grid2D(0, 1, -np.inf, 1, 9, 9),
    lambda: Grid2D(np.nan, 1, 0, 1, 9, 9),
])
def test_grids_reject_nonfinite_coordinates(make):
    # Grid2D(0, inf, 0, 1, 9, 9) was accepted with hx = nan
    with pytest.raises(InvalidInputError, match="finite"):
        make()


def _reference_cell_operators(grid, values, fluxes):
    """D and D^T as explicit slice formulas."""
    if isinstance(grid, Grid1D):
        flux = fluxes[0] / grid.h
        div = np.zeros(grid.n)
        div[:-1] -= flux
        div[1:] += flux
        return [np.diff(values) / grid.h], div
    v = values
    grad = [
        (v[1:, :-1] + v[1:, 1:] - v[:-1, :-1] - v[:-1, 1:]) / (2 * grid.hx),
        (v[:-1, 1:] + v[1:, 1:] - v[:-1, :-1] - v[1:, :-1]) / (2 * grid.hy),
    ]
    fx = fluxes[0] / (2 * grid.hx)
    fy = fluxes[1] / (2 * grid.hy)
    both, diff = fx + fy, fx - fy
    div = np.zeros((grid.nx, grid.ny))
    div[:-1, :-1] -= both
    div[1:, :-1] += diff
    div[:-1, 1:] -= diff
    div[1:, 1:] += both
    return grad, div


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["flat", "euclid", "2d"]))
def test_property_stencil_matches_slice_formulas(seed, kind):
    # the stencil reproduces the explicit formulas bit for bit
    rng = np.random.default_rng(seed)
    if kind == "2d":
        grid = Grid2D(0.0, rng.uniform(0.5, 2.0), -0.5, rng.uniform(0.5, 2.0),
                      int(rng.integers(8, 20)), int(rng.integers(8, 20)))
    else:
        n = int(rng.integers(9, 60))
        nodes = 1.0 + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1) / n)])
        M = euclidean(3) if kind == "euclid" else None
        grid = Grid1D(nodes, manifold=M)
    values = rng.normal(size=grid.shape)
    fluxes = [rng.normal(size=g.shape) for g in grid.cell_gradient(values)]
    ref_grad, ref_div = _reference_cell_operators(grid, values, fluxes)
    grad = grid.cell_gradient(values)
    assert len(grad) == len(ref_grad)
    assert all(np.array_equal(g, r) for g, r in zip(grad, ref_grad))
    assert np.array_equal(grid.cell_divergence(fluxes), ref_div)


@st.composite
def interior_masks(draw):
    """A 2D grid and a mask fixing its boundary and random interior nodes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = Grid2D(0.0, 1.0, 0.0, draw(st.floats(0.5, 2.0)),
                  draw(st.integers(8, 20)), draw(st.integers(8, 20)))
    mask = grid.boundary_mask() | (rng.random(grid.shape) < draw(
        st.floats(0.0, 0.9)))
    return grid, mask, rng


@settings(max_examples=40, deadline=None)
@given(interior_masks())
def test_property_free_block_is_the_permuted_free_block(case):
    grid, mask, rng = case
    free, kd, gather, scatter = grid.free_block(mask)
    assert np.array_equal(np.sort(free), np.flatnonzero(~mask.ravel()))
    # any values on the grid's pattern: the scatter writes the upper band
    # of H_ff in the cut's order, and nothing else
    cs = grid.cell_structure
    n = mask.size
    H = sp.csr_matrix((rng.normal(size=cs.indices.size), cs.indices,
                       cs.indptr), shape=(n, n))
    band = np.zeros((free.size, kd + 1))
    band.flat[scatter] = H.data[gather]
    block = H[free][:, free].toarray()
    a, b = np.triu_indices(free.size)
    near = b - a <= kd
    want = np.zeros_like(band)
    want[b[near], kd + a[near] - b[near]] = block[a[near], b[near]]
    assert np.array_equal(band, want)
    # and the band holds all of the upper triangle
    assert not block[a[~near], b[~near]].any()


def test_free_block_follows_the_mask():
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, 12, 12)
    mask = grid.boundary_mask()
    first = grid.free_block(mask)
    assert grid.free_block(mask.copy()) is first
    other = mask.copy()
    other[5, 5] = True
    second = grid.free_block(other)
    assert 5 * 12 + 5 not in second[0]
    # a mask edited in place is a new mask
    mask[3, 7] = True
    third = grid.free_block(mask)
    assert 3 * 12 + 7 not in third[0] and 5 * 12 + 5 in third[0]
    assert third[0].size == first[0].size - 1


@pytest.mark.parametrize("nx, ny", [(8, 20), (20, 8)])
def test_free_block_band_follows_the_shorter_axis(nx, ny):
    # 6 x 18 free nodes: the 6 of the short axis run fastest, so a cell's
    # far corner is 6 + 1 places on, not 18 + 1
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, nx, ny)
    free, kd, _, _ = grid.free_block(grid.boundary_mask())
    assert kd == 7
    step = 1 if ny == 8 else ny
    assert np.array_equal(free[:6], ny + 1 + step * np.arange(6))


def test_free_block_of_an_all_fixed_mask_is_empty():
    grid = Grid2D(0.0, 1.0, 0.0, 1.0, 8, 10)
    free, kd, gather, scatter = grid.free_block(np.ones(grid.shape, dtype=bool))
    assert free.size == gather.size == scatter.size == kd == 0


def test_deriv_1d_second_order():
    errs = []
    for n in (33, 65):
        t = np.linspace(0.3, 1.7, n)
        d = Grid1D(t).fd_gradient(np.sin(t))[0]
        errs.append(np.max(np.abs(d - np.cos(t))))
    assert errs[0] / errs[1] > 3.5  # ~4 for 2nd order


def test_deriv_1d_exact_on_quadratics():
    t = np.linspace(0.0, 2.0, 17)
    d = Grid1D(t).fd_gradient(3 * t**2 - t + 5)[0]
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


def test_analytic_descriptor_needs_a_1d_grid():
    # a closed form is of a radial profile u(t); on a 2D grid the
    # verifiers died reading grid.nodes
    g = Grid2D(0.0, 1.0, 0.0, 1.0, 9, 9)
    ana = Analytic1D(u=np.log, du=lambda t: 1 / t)
    with pytest.raises(InvalidInputError, match="Grid1D"):
        DiscreteField(g, np.ones(g.shape), analytic=ana)


def test_dump_csv_deterministic():
    # the table only; the CLI writes it, in its own number format
    g = Grid1D.uniform(0, 1, 9)
    f = DiscreteField(g, np.sqrt(g.nodes + 0.1))
    header, rows = dump_csv(f)
    assert dump_csv(f) == (header, rows)
    assert header == "t,value,grad_mag,weight"
    assert len(rows) == 9 and all(len(r) == 4 for r in rows)


def test_dump_csv_2d_matches_explicit_loop():
    g = Grid2D(0.0, 1.0, -1.0, 2.0, 9, 11)
    f = DiscreteField.from_function(g, lambda x, y: np.sin(3 * x) * np.cos(y))
    header, rows = dump_csv(f)
    gm = g.grad_norm(g.fd_gradient(f.values))
    assert header == "x,y,value,grad_mag,weight"
    assert rows == [[g.x[i], g.y[j], f.values[i, j], gm[i, j], g.weights[i, j]]
                    for i in range(g.nx) for j in range(g.ny)]


@pytest.mark.parametrize("grid, values", [
    (Grid1D.uniform(0.0, 1.0, 9), np.ones(10)),
    (Grid1D.uniform(0.0, 1.0, 9), np.ones((9, 1))),
    (Grid2D(0.0, 1.0, 0.0, 1.0, 9, 10), np.ones((10, 9))),
    (Grid2D(0.0, 1.0, 0.0, 1.0, 9, 10), np.ones(90)),
    (np.linspace(0.0, 1.0, 9), np.ones(9)),
])
def test_field_rejects_wrong_shape_and_non_grids(grid, values):
    with pytest.raises(InvalidInputError):
        DiscreteField(grid, values)
