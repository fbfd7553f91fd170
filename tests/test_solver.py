import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import fft

from tofscan import solver
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
    a = dense_neg_laplacian(shape, 0.15)
    np.testing.assert_allclose(a, a.T, atol=1e-12)
    assert np.linalg.eigvalsh(a).min() > 0


@pytest.mark.parametrize("shape", [(5, 4, 6), (6, 4, 2)])  # the second: every n + 1 prime
def test_matches_dense_solve(rng, shape):
    spacing = 0.15
    a = dense_neg_laplacian(shape, spacing)
    b = rng.standard_normal(shape)
    x_ref = np.linalg.solve(a, b.ravel())
    x, info = solve_poisson_grid(b, spacing)
    np.testing.assert_allclose(x.ravel(), x_ref, rtol=0, atol=1e-10 * np.abs(x_ref).max())
    assert info.iterations == 1 and info.residual <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_raises_with_residual(rng, bad):
    b = rng.standard_normal((6, 7, 5))
    b[2, 3, 1] = bad
    with pytest.raises(SolverError) as e:
        solve_poisson_grid(b, 0.05)
    assert e.value.residual is not None and not np.isfinite(e.value.residual)


def test_unreachable_tol_raises(rng, monkeypatch):
    """A finite residual above the tolerance fails the gate and is reported."""
    monkeypatch.setattr(solver, "_TOL", 1e-30)
    with pytest.raises(SolverError) as e:
        solve_poisson_grid(rng.standard_normal((6, 7, 5)), 0.05)
    assert 1e-30 < e.value.residual < 1e-6


def test_solve_does_not_depend_on_the_worker_count(rng, workers):
    b = rng.standard_normal((48, 40, 36))
    out = {}
    for n in (0, 2):
        workers(n)
        out[n] = solve_poisson_grid(b, 0.01)[0].tobytes()
    assert out[0] == out[2]


@pytest.mark.parametrize("shape", [(6, 12, 4), (3, 192, 5)])  # every n + 1 prime
def test_sine_products_match_scipy_dstn(rng, shape):
    x = rng.standard_normal(shape)
    want = fft.dstn(x, type=1)
    got = solver._dst1(x, [solver._sine_matrix(n) for n in shape])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


_SOLVE_SHA = """
import hashlib
import numpy as np
from tofscan.solver import solve_poisson_grid
b = np.random.default_rng(3).standard_normal((40, 97, 33))
print(hashlib.sha256(solve_poisson_grid(b, 0.01)[0].tobytes()).hexdigest())
"""


def test_solve_does_not_depend_on_the_blas_thread_count():
    """The solve's sha256 in two interpreters, with BLAS on one thread and on two."""
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),  # this process's tofscan
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads}
        run = subprocess.run([sys.executable, "-c", _SOLVE_SHA], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        digests.append(run.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


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
    u, info = solve_poisson_grid(rhs, h)
    assert info.residual <= 1e-10
    # second-order discretization error dominates
    assert np.abs(u - u_exact).max() < 2e-3
