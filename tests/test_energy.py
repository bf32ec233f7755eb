import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plap.energy as en
from plap.energy import EnergySpec
from plap.errors import InvalidInputError, SingularityError
from plap.geometry import euclidean
from plap.grid import DiscreteField, Grid1D, Grid2D


def radial_field(n=201):
    M = euclidean(3)
    g = Grid1D.uniform(1.0, 2.0, n, manifold=M)
    return DiscreteField(g, 2.0 / g.nodes - 1.0)


def test_energy_spec_validation():
    with pytest.raises(InvalidInputError):
        EnergySpec(1.0, 0.0)
    with pytest.raises(InvalidInputError):
        EnergySpec(2.0, -1e-9)
    with pytest.raises(InvalidInputError, match="p and eps must be finite"):
        EnergySpec(np.inf, 1e-3)
    with pytest.raises(InvalidInputError, match="p and eps must be finite"):
        EnergySpec(3.0, np.inf)


def test_radial_dirichlet_energy_oracle():
    # u = 2/t - 1 is harmonic on the m=3 annulus [1,2] and has
    # int |grad u|^2 dv = 8 pi
    f = radial_field(801)
    assert en.energy(EnergySpec(2.0, 0.0), f) == pytest.approx(8 * np.pi, rel=1e-5)
    assert en.q_energy(f, 2.0) == pytest.approx(8 * np.pi, rel=1e-5)


def test_energy_eps_exceeds_q_energy():
    f = radial_field()
    e0 = en.q_energy(f, 3.0)
    e1 = en.energy(EnergySpec(3.0, 1e-2), f)
    assert e1 > e0


def test_2d_linear_field_energy():
    g = Grid2D(0, 1, 0, 2, 21, 31)
    f = DiscreteField.from_function(g, lambda x, y: 3 * x + 4 * y)
    # |grad u| = 5 on a rectangle of measure 2
    assert en.energy(EnergySpec(3.0, 0.0), f) == pytest.approx(250.0)
    assert en.q_energy(f, 2.0) == pytest.approx(50.0)


def test_q_energy_rejects_nonpositive_q():
    with pytest.raises(InvalidInputError):
        en.q_energy(radial_field(), 0.0)


def test_singularity_guard():
    g = Grid1D.uniform(0, 1, 9)
    flat = DiscreteField(g, np.zeros(9))
    with pytest.raises(SingularityError):
        en.weak_residual(EnergySpec(1.5, 0.0), flat)
    # eps > 0 smooths the singularity
    r = en.weak_residual(EnergySpec(1.5, 1e-3), flat)
    assert np.allclose(r, 0.0)


@pytest.mark.parametrize("linearization", [
    lambda spec, f: en.linearized_action(spec, f, f),
    lambda spec, f: en.hessian_diagonal(spec, f),
])
def test_linearization_needs_positive_eps(linearization):
    f = radial_field(9)
    with pytest.raises(SingularityError, match="requires eps > 0"):
        linearization(EnergySpec(3.0, 0.0), f)


def test_weak_residual_is_energy_gradient():
    """Directional FD of the discrete energy matches the assembled residual."""
    rng = np.random.default_rng(3)
    f = radial_field(41)
    spec = EnergySpec(3.0, 1e-3)
    free = np.zeros(f.values.shape, dtype=bool)
    r = en.weak_residual(spec, f, fixed_mask=free)
    v = rng.normal(size=f.values.shape)
    h = 1e-6
    ep = en.energy(spec, f.copy_with(f.values + h * v))
    em = en.energy(spec, f.copy_with(f.values - h * v))
    fd = (ep - em) / (2 * h)
    assert fd == pytest.approx(float(np.dot(r, v)), rel=1e-5)


def test_weak_residual_gradient_2d():
    rng = np.random.default_rng(4)
    g = Grid2D(0, 1, 0, 1, 12, 14)
    f = DiscreteField(g, rng.normal(size=(12, 14)))
    spec = EnergySpec(2.5, 1e-2)
    free = np.zeros(f.values.shape, dtype=bool)
    r = en.weak_residual(spec, f, fixed_mask=free)
    v = rng.normal(size=f.values.shape)
    h = 1e-6
    ep = en.energy(spec, f.copy_with(f.values + h * v))
    em = en.energy(spec, f.copy_with(f.values - h * v))
    assert (ep - em) / (2 * h) == pytest.approx(float(np.sum(r * v)), rel=1e-5)


def test_linearized_action_symmetric_and_consistent():
    rng = np.random.default_rng(5)
    f = radial_field(41)
    spec = EnergySpec(3.0, 1e-3)
    v = rng.normal(size=f.values.shape)
    w = rng.normal(size=f.values.shape)
    free = np.zeros(f.values.shape, dtype=bool)
    av = en.linearized_action(spec, f, f.copy_with(v), fixed_mask=free)
    aw = en.linearized_action(spec, f, f.copy_with(w), fixed_mask=free)
    # symmetry of the Hessian
    assert float(np.dot(w, av)) == pytest.approx(float(np.dot(v, aw)), rel=1e-12)
    # consistency with FD of the residual
    h = 1e-6
    rp = en.weak_residual(spec, f.copy_with(f.values + h * v), fixed_mask=free)
    rm = en.weak_residual(spec, f.copy_with(f.values - h * v), fixed_mask=free)
    fd = (rp - rm) / (2 * h)
    assert np.max(np.abs(fd - av)) <= 1e-5 * (1 + np.max(np.abs(av)))


def test_hessian_diagonal_matches_action():
    f = radial_field(31)
    spec = EnergySpec(3.0, 1e-3)
    free = np.zeros(f.values.shape, dtype=bool)
    diag = en.hessian_diagonal(spec, f, fixed_mask=free)
    n = f.values.size
    ref = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        ref[i] = en.linearized_action(spec, f, f.copy_with(e),
                                      fixed_mask=free)[i]
    assert np.max(np.abs(diag - ref)) <= 1e-12 * (1 + np.max(np.abs(ref)))


def test_p2_weak_residual_is_linear():
    f = radial_field(41)
    spec = EnergySpec(2.0, 0.0)
    r1 = en.weak_residual(spec, f)
    r2 = en.weak_residual(spec, f.copy_with(2.0 * f.values))
    assert np.allclose(r2, 2.0 * r1, atol=1e-13)


def test_residual_scale_positive():
    f = radial_field(41)
    assert en.residual_scale(EnergySpec(3.0, 1e-6), f) > 0


# -- structural properties over random p, eps, grids and fields ---------------

PROPERTY = settings(max_examples=30, deadline=None)
exponents = st.floats(1.0, 4.0, exclude_min=True)
regularizations = st.floats(1e-3, 1.0)


@st.composite
def fields(draw):
    """A random field on a nonuniform 1D grid (flat or euclidean(3)
    measure) or on a small 2D grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(9, 40))
        nodes = 1.0 + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1) / n)])
        M = euclidean(3) if draw(st.booleans()) else None
        grid = Grid1D(nodes, manifold=M)
    else:
        nx, ny = draw(st.integers(8, 12)), draw(st.integers(8, 12))
        grid = Grid2D(0.0, 1.0, -0.5, draw(st.floats(0.5, 2.0)), nx, ny)
    shape = grid.boundary_mask().shape
    return DiscreteField(grid, rng.normal(size=shape)), rng


@PROPERTY
@given(fields())
def test_property_cell_divergence_is_transpose_of_cell_gradient(fr):
    f, rng = fr
    grid = f.grid
    du = grid.cell_gradient(f.values)
    q = [rng.normal(size=g.shape) for g in du]
    lhs = sum(float(np.sum(g * qk)) for g, qk in zip(du, q))
    dtq = grid.cell_divergence(q)
    rhs = float(np.sum(f.values * dtq))
    scale = sum(float(np.sum(np.abs(g * qk))) for g, qk in zip(du, q))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + scale)


def _mask(field, pinned):
    if pinned:
        return field.grid.boundary_mask()
    return np.zeros(field.values.shape, dtype=bool)


@PROPERTY
@given(fields(), exponents, regularizations, st.booleans())
def test_property_weak_residual_is_energy_gradient(fr, p, eps, pinned):
    f, rng = fr
    spec = EnergySpec(p, eps)
    mask = _mask(f, pinned)
    r = en.weak_residual(spec, f, fixed_mask=mask)
    v = np.where(mask, 0.0, rng.normal(size=f.values.shape))
    h = 1e-6
    ep = en.energy(spec, f.copy_with(f.values + h * v))
    em = en.energy(spec, f.copy_with(f.values - h * v))
    scale = 1.0 + float(np.sum(np.abs(r * v))) + en.energy(spec, f) * 1e-4
    assert abs((ep - em) / (2 * h) - float(np.sum(r * v))) <= 1e-5 * scale


@PROPERTY
@given(fields(), exponents, regularizations, st.booleans())
def test_property_linearized_action_symmetric_and_consistent(fr, p, eps,
                                                              pinned):
    f, rng = fr
    spec = EnergySpec(p, eps)
    mask = _mask(f, pinned)
    v = np.where(mask, 0.0, rng.normal(size=f.values.shape))
    w = np.where(mask, 0.0, rng.normal(size=f.values.shape))
    av = en.linearized_action(spec, f, f.copy_with(v), fixed_mask=mask)
    aw = en.linearized_action(spec, f, f.copy_with(w), fixed_mask=mask)
    sym_scale = float(np.sum(np.abs(w * av)) + np.sum(np.abs(v * aw)))
    assert abs(float(np.sum(w * av)) - float(np.sum(v * aw))) \
        <= 1e-12 * (1.0 + sym_scale)
    h = 1e-6
    rp = en.weak_residual(spec, f.copy_with(f.values + h * v), fixed_mask=mask)
    rm = en.weak_residual(spec, f.copy_with(f.values - h * v), fixed_mask=mask)
    fd = (rp - rm) / (2 * h)
    scale = np.max(np.abs(av)) + np.max(np.abs(rp)) * 1e-4
    assert np.max(np.abs(fd - av)) <= 1e-5 * (1.0 + scale)


@PROPERTY
@given(fields(), exponents, regularizations, st.booleans())
def test_property_hessian_symmetric_and_residual_jacobian(dense_hessian, fr,
                                                          p, eps, pinned):
    f, _ = fr
    spec = EnergySpec(p, eps)
    mask = _mask(f, pinned)
    H = dense_hessian(spec, f)
    assert np.max(np.abs(H - H.T)) <= 1e-12 * (1.0 + np.max(np.abs(H)))
    # every free column of H is a central FD of the residual
    h = 1e-6
    u = f.values.ravel()
    free = np.flatnonzero(~mask.ravel())
    fd = np.empty((u.size, free.size))
    for col, j in enumerate(free):
        e = np.zeros(u.size)
        e[j] = h
        rp = en.weak_residual(spec, f.copy_with((u + e).reshape(mask.shape)),
                              fixed_mask=mask)
        rm = en.weak_residual(spec, f.copy_with((u - e).reshape(mask.shape)),
                              fixed_mask=mask)
        fd[:, col] = (rp - rm).ravel() / (2 * h)
    ref = np.where(mask.ravel()[:, None], 0.0, H[:, free])
    r_max = np.max(np.abs(en.weak_residual(spec, f, fixed_mask=mask)))
    scale = np.max(np.abs(H)) + r_max * 1e-4
    assert np.max(np.abs(fd - ref)) <= 1e-5 * (1.0 + scale)
    diag = en.hessian_diagonal(spec, f, fixed_mask=mask)
    assert np.array_equal(
        diag, np.where(mask, 1.0, np.diag(H).reshape(mask.shape)))
    # the matrix-free action is the restricted assembled Hessian
    psi = np.cos(np.arange(u.size) + 0.5 * p)
    ref = np.where(mask.ravel(), 0.0, H @ np.where(mask.ravel(), 0.0, psi))
    act = en.linearized_action(spec, f, f.copy_with(psi.reshape(mask.shape)),
                               fixed_mask=mask).ravel()
    assert np.max(np.abs(act - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=15, deadline=None)
@given(fields(), exponents, regularizations)
def test_property_hessian_matches_sparse_product(dense_hessian, fr, p, eps):
    import scipy.sparse as sp

    f, rng = fr
    spec = EnergySpec(p, eps)
    grid = f.grid
    H = dense_hessian(spec, f)
    # the product the cell blocks stand for
    meas = grid.cell_measure
    W = sp.bmat([[sp.diags(np.ravel(bij * meas)) for bij in row]
                 for row in en._Cells(spec, f).blocks()])
    # D with the components stacked: its columns are D of unit vectors
    n = f.values.size
    D = sp.csr_matrix(np.column_stack([
        np.concatenate([g.ravel() for g in grid.cell_gradient(e.reshape(
            f.values.shape))]) for e in np.eye(n)]))
    ref = (D.T @ (W @ D)).tocsr()
    scale = np.max(np.abs(ref.data))
    assert np.max(np.abs(H - ref.toarray())) <= 1e-14 * scale
    # the cell blocks touch no entry outside the structure of D^T D
    struct = (abs(D).T @ abs(D)).toarray()
    assert np.all(struct[H != 0] > 0)
    # a second call, with any mask, reuses the grid's structure
    cs = grid.cell_structure
    en.hessian_diagonal(spec, f.copy_with(rng.normal(size=f.values.shape)),
                        fixed_mask=grid.boundary_mask())
    H2 = dense_hessian(spec, f)
    assert grid.cell_structure is cs
    assert np.array_equal(H2, H)


@PROPERTY
@given(fields(), exponents, regularizations, st.booleans())
def test_property_hessian_diagonal_matches_action(fr, p, eps, pinned):
    f, _ = fr
    spec = EnergySpec(p, eps)
    mask = _mask(f, pinned)
    diag = en.hessian_diagonal(spec, f, fixed_mask=mask)
    ref = np.ones(f.values.shape)
    for idx in zip(*np.nonzero(~mask)):
        e = np.zeros(f.values.shape)
        e[idx] = 1.0
        ref[idx] = en.linearized_action(spec, f, f.copy_with(e),
                                        fixed_mask=mask)[idx]
    assert np.max(np.abs(diag - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


@PROPERTY
@given(fields(), exponents, regularizations, st.booleans())
def test_property_cells_are_the_public_quantities(fr, p, eps, pinned):
    # one _Cells object per Newton iterate stands in for the public
    # functions, read in the solver's order: the trial energy first
    f, _ = fr
    spec = EnergySpec(p, eps)
    mask = _mask(f, pinned)
    cells = en._Cells(spec, f)
    assert cells.energy() == en.energy(spec, f)
    assert np.array_equal(cells.weak_residual(mask),
                          en.weak_residual(spec, f, fixed_mask=mask))
    assert cells.residual_scale() == en.residual_scale(spec, f)
    # the Hessian of an iterate that has read all of that is a fresh one's
    fresh = en._Cells(spec, f)
    for row, ref_row in zip(cells.blocks(), fresh.blocks()):
        for bij, ref in zip(row, ref_row):
            assert np.array_equal(bij, ref)
    assert np.array_equal(cells.local(), fresh.local())
    assert cells.q_energy(p) == en.q_energy(f, p)
