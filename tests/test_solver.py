import numpy as np
import pytest

from tofscan.solver import SolverError, apply_neg_laplacian, solve_poisson_grid


def dense_neg_laplacian(shape, spacing):
    n = int(np.prod(shape))
    a = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        a[:, i] = apply_neg_laplacian(e.reshape(shape), spacing).ravel()
    return a


def test_operator_is_symmetric_positive_definite():
    shape = (4, 5, 3)
    a = dense_neg_laplacian(shape, (0.1, 0.2, 0.15))
    np.testing.assert_allclose(a, a.T, atol=1e-12)
    assert np.linalg.eigvalsh(a).min() > 0


def test_matches_dense_solve(rng):
    shape = (5, 4, 6)
    spacing = (0.1, 0.2, 0.15)
    a = dense_neg_laplacian(shape, spacing)
    b = rng.standard_normal(shape)
    x_ref = np.linalg.solve(a, b.ravel())
    x, info = solve_poisson_grid(b, spacing, tol=1e-12)
    np.testing.assert_allclose(x.ravel(), x_ref, rtol=0, atol=1e-10 * np.abs(x_ref).max())
    assert info.iterations == 1 and info.residual <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_raises_with_residual(rng, bad):
    b = rng.standard_normal((6, 7, 5))
    b[2, 3, 1] = bad
    with pytest.raises(SolverError) as e:
        solve_poisson_grid(b, 0.05)
    assert e.value.residual is not None and not np.isfinite(e.value.residual)


def test_unreachable_tol_raises(rng):
    """A finite residual above ``tol`` fails the gate and is reported."""
    with pytest.raises(SolverError) as e:
        solve_poisson_grid(rng.standard_normal((6, 7, 5)), 0.05, tol=1e-30)
    assert 1e-30 < e.value.residual < 1e-6


def test_zero_rhs_short_circuits():
    x, info = solve_poisson_grid(np.zeros((9, 9, 9)), 0.1)
    assert not x.any() and info.iterations == 0


def test_manufactured_solution():
    """u = sin(pi x) sin(pi y) sin(pi z) on the unit cube, zero boundary."""
    n = 33
    h = 1.0 / (n + 1)
    idx = np.arange(1, n + 1) * h
    x, y, z = np.meshgrid(idx, idx, idx, indexing="ij")
    u_exact = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z)
    rhs = 3 * np.pi ** 2 * u_exact
    u, _ = solve_poisson_grid(rhs, h, tol=1e-10)
    # second-order discretization error dominates
    assert np.abs(u - u_exact).max() < 2e-3
