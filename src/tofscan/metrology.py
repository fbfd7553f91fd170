"""Mesh metrology: surface area and divergence-theorem volume.

Each triangle's term is computed in fixed blocks of ``_BLOCK`` triangles on
the ``parallel`` pool; a block gathers only its own corners, so no full-size
corner or cross-product array is built. The terms are summed with math.fsum,
which rounds the exact sum once (Shewchuk, "Adaptive Precision Floating-Point
Arithmetic", 1997), so neither the blocks nor any vertex or triangle
reordering changes a result by a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import parallel
from .reconstruction import TriangleMesh, is_watertight

__all__ = ["MeshMeasurements", "NotWatertightError", "surface_area", "volume", "measure_mesh"]

_BLOCK = 1 << 16  # triangles per block of per-triangle terms


class NotWatertightError(ValueError):
    def __init__(self, boundary_edges: int):
        super().__init__(f"mesh is not watertight ({boundary_edges} boundary edges); "
                         "volume is undefined")
        self.boundary_edges = boundary_edges


@dataclass(frozen=True)
class MeshMeasurements:
    surface_area: float  # m^2
    volume: float        # m^3


def _per_triangle(mesh: TriangleMesh, term) -> np.ndarray:
    """``term(a, b, c)`` of every triangle's corners, one float64 each, block by block."""
    v, t = mesh.vertices, mesh.triangles
    out = np.empty(len(t))

    def block(s):
        tb = t[s:s + _BLOCK]
        out[s:s + len(tb)] = term(v[tb[:, 0]], v[tb[:, 1]], v[tb[:, 2]])

    parallel.map_ordered(block, range(0, len(t), _BLOCK))
    return out


def _double_area(a, b, c):
    """|(b - a) x (c - a)|, written out; equal bit for bit to np.linalg.norm of np.cross."""
    e, f = b - a, c - a
    x = e[:, 1] * f[:, 2] - e[:, 2] * f[:, 1]
    y = e[:, 2] * f[:, 0] - e[:, 0] * f[:, 2]
    z = e[:, 0] * f[:, 1] - e[:, 1] * f[:, 0]
    return np.sqrt(x * x + y * y + z * z)


def _triple_product(a, b, c):
    return np.einsum("ij,ij->i", a, np.cross(b, c))


def surface_area(mesh: TriangleMesh) -> float:
    """Sum of triangle areas; degenerate triangles contribute zero."""
    return 0.5 * math.fsum(_per_triangle(mesh, _double_area))


def volume(mesh: TriangleMesh) -> float:
    """|sum of signed tetrahedron volumes|; requires a watertight mesh.

    The signed sum is translation invariant for closed surfaces, so no
    centering is needed.
    """
    ok, boundary = is_watertight(mesh)
    if not ok:
        raise NotWatertightError(boundary)
    return abs(math.fsum(_per_triangle(mesh, _triple_product))) / 6.0


def measure_mesh(mesh: TriangleMesh) -> MeshMeasurements:
    return MeshMeasurements(surface_area(mesh), volume(mesh))
