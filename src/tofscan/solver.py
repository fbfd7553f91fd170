"""Grid Poisson solver: 7-point Laplacian, zero-Dirichlet boundary, direct DST-I solve.

On a box with zero Dirichlet boundary the 7-point Laplacian is diagonalised
exactly by the type-I discrete sine transform along each axis, with separable
eigenvalues sum_axis (2 - 2 cos(pi k / (n + 1))) / h_axis^2 (Buzbee, Golub &
Nielson 1970). The solve is one forward transform, one division and one
inverse transform; its relative residual is then checked against ``tol`` with
the stencil itself, so a solve that is not accurate (or not finite) raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SolverError", "SolveInfo", "apply_neg_laplacian", "solve_poisson_grid"]


class SolverError(RuntimeError):
    """The solve did not reach the requested residual."""

    def __init__(self, msg: str, residual: float | None = None):
        super().__init__(msg)
        self.residual = residual


@dataclass
class SolveInfo:
    iterations: int           # 1 for a direct solve, 0 for a zero right-hand side
    residual: float           # final relative residual (2-norm)


def apply_neg_laplacian(u: np.ndarray, spacing) -> np.ndarray:
    """-Laplacian of a node grid whose outside boundary is held at zero.

    ``u`` holds interior unknowns only; neighbors outside the array contribute
    nothing (Dirichlet 0). ``spacing`` is (hx, hy, hz) or a scalar.
    """
    hx, hy, hz = np.broadcast_to(np.asarray(spacing, dtype=np.float64), (3,))
    cx, cy, cz = 1.0 / hx ** 2, 1.0 / hy ** 2, 1.0 / hz ** 2
    out = (2.0 * (cx + cy + cz)) * u
    out[1:, :, :] -= cx * u[:-1, :, :]
    out[:-1, :, :] -= cx * u[1:, :, :]
    out[:, 1:, :] -= cy * u[:, :-1, :]
    out[:, :-1, :] -= cy * u[:, 1:, :]
    out[:, :, 1:] -= cz * u[:, :, :-1]
    out[:, :, :-1] -= cz * u[:, :, 1:]
    return out


def solve_poisson_grid(rhs: np.ndarray, spacing,
                       tol: float = 1e-6) -> tuple[np.ndarray, SolveInfo]:
    """Solve -lap(u) = rhs on the interior grid with zero Dirichlet boundary.

    ``spacing`` is the physical node spacing (scalar or per-axis). Raises
    SolverError, with ``.residual`` set, unless the relative residual of the
    result is at most ``tol``.
    """
    from scipy import fft

    rhs = np.asarray(rhs, dtype=np.float64)
    spacing = np.broadcast_to(np.asarray(spacing, dtype=np.float64), (3,))
    norm_b = float(np.linalg.norm(rhs))
    if norm_b == 0.0:
        return np.zeros_like(rhs), SolveInfo(0, 0.0)

    ex, ey, ez = [(2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1))) / h ** 2
                  for n, h in zip(rhs.shape, spacing)]
    lam = ex[:, None, None] + ey[None, :, None] + ez[None, None, :]
    u = fft.idstn(fft.dstn(rhs, type=1) / lam, type=1)

    residual = float(np.linalg.norm(rhs - apply_neg_laplacian(u, spacing))) / norm_b
    if not residual <= tol:
        raise SolverError(f"direct solve missed {tol:g} "
                          f"(relative residual {residual:.3e})", residual=residual)
    return u, SolveInfo(1, residual)
