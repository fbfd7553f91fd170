"""Independent reference measurements for scenes: closed forms and voxelization.

Boxes, cylinders and capsules have closed-form area/volume. Composite targets
(the synthetic animal) are measured by sampling the union signed distance on a
dense grid (default 2 mm), extracting the zero level with marching cubes, and
applying the mesh metrology operations. The result is accepted only if
halving the resolution (doubling the spacing) changes both quantities by less
than 0.1%, i.e. the discretization has converged.
"""

from __future__ import annotations

import math

import numpy as np

from .marching import marching_cubes_stream
from .metrology import MeshMeasurements, surface_area, volume
from .reconstruction import TriangleMesh
from .scene import Scene, ScenePrimitive

__all__ = ["OracleUnreliableError", "closed_form_measurements", "oracle_mesh",
           "oracle_measurements"]

_PAD_CELLS = 4
_CONVERGENCE_RTOL = 1e-3


class OracleUnreliableError(RuntimeError):
    """Grid refinement did not converge; reference values untrustworthy."""


def closed_form_measurements(prim: ScenePrimitive) -> MeshMeasurements:
    p = prim.params
    if prim.shape == "box":
        a, b, c = (2 * v for v in p)  # full extents
        return MeshMeasurements(2 * (a * b + b * c + c * a), a * b * c)
    if prim.shape == "cylinder":
        r, h = p
        return MeshMeasurements(2 * math.pi * r * (h + r), math.pi * r * r * h)
    if prim.shape == "capsule":
        r, seg = p
        return MeshMeasurements(2 * math.pi * r * seg + 4 * math.pi * r * r,
                                math.pi * r * r * seg + 4 / 3 * math.pi * r ** 3)
    raise ValueError(f"no closed form for shape {prim.shape!r}")


def _voxelize_measurements(scene: Scene, spacing: float) -> tuple:
    lo, hi = scene.target_bounds()
    prims = scene.labeled("target")
    origin = lo - _PAD_CELLS * spacing
    shape = tuple(int(np.ceil((hi[i] - lo[i]) / spacing)) + 2 * _PAD_CELLS + 1
                  for i in range(3))

    # per-primitive local AABB precheck: outside the inflated box the exact
    # distance is irrelevant to the zero level, the AABB distance (a positive
    # lower-bound stand-in) keeps the union sign correct and is much cheaper
    inflate = 3 * spacing

    def sample(k0, k1):
        nz = k1 - k0
        xs = origin[0] + spacing * np.arange(shape[0])
        ys = origin[1] + spacing * np.arange(shape[1])
        zs = origin[2] + spacing * (k0 + np.arange(nz))
        X, Y, Z = np.meshgrid(xs, ys, zs, indexing="ij")
        pts = np.stack([X, Y, Z], axis=-1).reshape(-1, 3)
        best = np.full(len(pts), np.inf)
        for prim in prims:
            local = prim.to_local(pts)
            half = prim.local_bounds() + inflate
            q = np.abs(local) - half
            box_d = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
            near = box_d <= 0.0
            d = box_d + inflate  # positive far-field stand-in
            if near.any():
                d[near] = prim.sdf_local(local[near])
            best = np.minimum(best, d)
        return (-best).reshape(shape[0], shape[1], nz)  # inside positive

    verts, tris = marching_cubes_stream(sample, origin, spacing, shape,
                                        max_slab_nodes=8_000_000)
    if len(tris) == 0:
        raise OracleUnreliableError(f"no surface at spacing {spacing} "
                                    "(feature thinner than the grid?)")
    mesh = TriangleMesh(verts, tris)
    try:
        vol = volume(mesh)
    except Exception as e:
        raise OracleUnreliableError(f"voxelization at spacing {spacing} is not "
                                    f"a closed surface: {e}") from e
    return MeshMeasurements(surface_area(mesh), vol), mesh


def oracle_mesh(scene: Scene, spacing: float = 0.002) -> TriangleMesh:
    """Dense reference mesh of the target-labeled union (no convergence check)."""
    _, mesh = _voxelize_measurements(scene, spacing)
    return mesh


def oracle_measurements(obj, spacing: float = 0.002) -> MeshMeasurements:
    """Reference area/volume: closed form for single analytic solids, else voxelized.

    ``obj`` is a ScenePrimitive or a Scene (target-labeled union). Voxelized
    references are checked by a refinement study: the 2x-coarser grid must
    agree within 0.1% or OracleUnreliableError is raised.
    """
    if isinstance(obj, ScenePrimitive):
        if obj.shape in ("box", "cylinder", "capsule"):
            return closed_form_measurements(obj)
        obj = Scene((obj,))
    if not isinstance(obj, Scene):
        raise TypeError(f"expected ScenePrimitive or Scene, got {type(obj).__name__}")

    fine, _ = _voxelize_measurements(obj, spacing)
    coarse, _ = _voxelize_measurements(obj, 2 * spacing)
    da = abs(fine.surface_area - coarse.surface_area) / fine.surface_area
    dv = abs(fine.volume - coarse.volume) / fine.volume
    if da > _CONVERGENCE_RTOL or dv > _CONVERGENCE_RTOL:
        raise OracleUnreliableError(
            f"refinement study not converged at spacing {spacing}: "
            f"area change {100 * da:.3f}%, volume change {100 * dv:.3f}%")
    return fine
