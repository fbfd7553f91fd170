"""Grid Poisson solver: 7-point Laplacian, zero-Dirichlet boundary, direct DST-I solve.

On a box with zero Dirichlet boundary the 7-point Laplacian is diagonalised
exactly by the type-I discrete sine transform along each axis, with separable
eigenvalues sum_axis (2 - 2 cos(pi k / (n + 1))) / h^2 (Buzbee, Golub &
Nielson 1970). The solve is one forward transform, one division and one
inverse transform; a solve whose relative residual under the stencil is above
``_TOL`` (1e-6), or not finite, raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel

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


def solve_poisson_grid(rhs: np.ndarray, spacing: float) -> tuple[np.ndarray, SolveInfo]:
    """Solve -lap(u) = rhs on the interior grid with zero Dirichlet boundary.

    ``spacing`` is the physical node spacing. Raises SolverError, with
    ``.residual`` set, unless the relative residual of the result is at most
    ``_TOL``.
    """
    from scipy import fft

    rhs = np.asarray(rhs, dtype=np.float64)
    norm_b = float(np.linalg.norm(rhs))
    if norm_b == 0.0:
        return np.zeros_like(rhs), SolveInfo(0, 0.0)

    h2 = float(spacing) ** 2
    ex, ey, ez = [(2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / h2
                  for n in rhs.shape]
    lam = ex[:, None, None] + ey[None, :, None] + ez[None, None, :]
    # the pool idles during the solve, so the transforms take its threads, one per core
    workers = parallel.WORKERS + 1
    u = fft.idstn(fft.dstn(rhs, type=1, workers=workers) / lam, type=1, workers=workers)

    residual = float(np.linalg.norm(rhs - apply_neg_laplacian(u, spacing))) / norm_b
    if not residual <= _TOL:
        raise SolverError(f"direct solve missed {_TOL:g} "
                          f"(relative residual {residual:.3e})", residual=residual)
    return u, SolveInfo(1, residual)
