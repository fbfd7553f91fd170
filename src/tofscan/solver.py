"""Grid Poisson solver: 7-point Laplacian, zero-Dirichlet boundary, direct DST-I solve.

On a box with zero Dirichlet boundary the 7-point Laplacian is diagonalised
exactly by the type-I discrete sine transform along each axis, with separable
eigenvalues sum_axis (2 - 2 cos(pi k / (n + 1))) / h^2 (Buzbee, Golub &
Nielson 1970). The solve is one forward transform, one division and one
inverse transform; a solve whose relative residual under the stencil is above
``_TOL`` (1e-6), or not finite, raises. Each transform is one product per axis
with the dense DST-I matrix: at the grid sizes a scan uses this beats an FFT,
whose axes of n + 1 prime, such as 193, take its slow path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SolverError", "SolveInfo", "apply_neg_laplacian", "solve_poisson_grid"]

_TOL = 1e-6  # largest relative residual a solve may return


class SolverError(RuntimeError):
    """The solve did not reach the requested residual."""

    def __init__(self, msg: str, residual: float | None = None):
        super().__init__(msg)
        self.residual = residual


@dataclass
class SolveInfo:
    iterations: int           # 1 for a direct solve, 0 for a zero right-hand side
    residual: float           # final relative residual (2-norm)


def apply_neg_laplacian(u: np.ndarray, spacing: float) -> np.ndarray:
    """-Laplacian of a node grid of spacing ``spacing`` whose outside boundary is held at zero.

    ``u`` holds interior unknowns only; neighbors outside the array contribute
    nothing (Dirichlet 0).
    """
    c = 1.0 / float(spacing) ** 2
    out = (6.0 * c) * u
    out[1:, :, :] -= c * u[:-1, :, :]
    out[:-1, :, :] -= c * u[1:, :, :]
    out[:, 1:, :] -= c * u[:, :-1, :]
    out[:, :-1, :] -= c * u[:, 1:, :]
    out[:, :, 1:] -= c * u[:, :, :-1]
    out[:, :, :-1] -= c * u[:, :, 1:]
    return out


def _sine_matrix(n: int) -> np.ndarray:
    """The DST-I of length n as a matrix: 2 sin(pi k m / (n + 1)), k, m = 1..n.

    k m is reduced modulo 2 (n + 1), the period, before the sine.
    """
    k = np.arange(1, n + 1)
    return 2.0 * np.sin(np.pi * (np.outer(k, k) % (2 * (n + 1))) / (n + 1))


def _dst1(x: np.ndarray, sines: list) -> np.ndarray:
    """Unnormalised DST-I of a 3-D grid along every axis, one matrix product per axis.

    Each product takes the leading axis of the memory layout and leaves it
    trailing, so three products restore the layout and none copies its
    operand. Each grid line is one row of a product: so written, the bytes did
    not depend on the OpenBLAS thread count in tests, and with a line per
    column they did.
    """
    shape = x.shape
    for s in sines:
        x = x.reshape(len(s), -1).T @ s  # the matrix is symmetric
    return x.reshape(shape)


def solve_poisson_grid(rhs: np.ndarray, spacing: float) -> tuple[np.ndarray, SolveInfo]:
    """Solve -lap(u) = rhs on the interior grid with zero Dirichlet boundary.

    ``spacing`` is the physical node spacing. Raises SolverError, with
    ``.residual`` set, unless the relative residual of the result is at most
    ``_TOL``.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    norm_b = float(np.linalg.norm(rhs))
    if norm_b == 0.0:
        return np.zeros_like(rhs), SolveInfo(0, 0.0)

    h2 = float(spacing) ** 2
    ex, ey, ez = [(2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / h2
                  for n in rhs.shape]
    lam = ex[:, None, None] + ey[None, :, None] + ez[None, None, :]
    sines = [_sine_matrix(n) for n in rhs.shape]
    # a non-finite right-hand side ends in a non-finite residual, not in a warning
    with np.errstate(invalid="ignore", over="ignore"):
        u = _dst1(rhs, sines)
        u /= lam
        u = _dst1(u, sines)
    u /= 8.0 * np.prod(np.array(rhs.shape) + 1.0)  # each axis' inverse is its DST-I / 2(n + 1)

    residual = float(np.linalg.norm(rhs - apply_neg_laplacian(u, spacing))) / norm_b
    if not residual <= _TOL:
        raise SolverError(f"direct solve missed {_TOL:g} "
                          f"(relative residual {residual:.3e})", residual=residual)
    return u, SolveInfo(1, residual)
