"""Independent reference measurements for scenes: closed forms and voxelization.

Boxes, cylinders and capsules have closed-form area/volume. Composite targets
(the synthetic animal) are measured by sampling the union signed distance on a
dense grid (default 2 mm), extracting the zero level with marching cubes, and
applying the mesh metrology operations. The result is accepted only if
halving the resolution (doubling the spacing) changes both quantities by less
than 0.1%, i.e. the discretization has converged.

The grid is sampled in x-slabs, in two passes. Pass 1 gives every node its
sign: for each primitive, only the nodes in its world AABB grown by one cell
are tested with ``implicit_local < 0``, which has the sign of ``sdf_local``
(the superellipsoid distance is the implicit value over a positive gradient
norm). Each local coordinate is a broadcast sum ``R[c, g] * node_g + t_c``
over the three node axes, without the terms where ``R[c, g]`` is 0, so a
primitive whose pose maps grid axes onto local axes (the animal's torso, head
and legs) gets one short array per axis, and each term of the implicit
function that reads one coordinate, the superellipsoid's fractional powers
among them, is taken once per grid line. Pass 2 computes the exact union value
only at nodes whose sign differs from a neighbor's in the slab, and moves
to a primitive's frame only those of them near its world AABB; every other
node gets +1 or -1. Marching cubes reads node values only at the two ends of a
sign-changing edge, and a slab's cells only have edges between its own planes,
so the mesh is the one that exact values at every node would give. Slabs are
sampled and meshed on the ``parallel`` pool (``marching_cubes_stream``), and
the mesh's triangles come out in cell order by construction, whatever the slab
size or worker count.
"""

from __future__ import annotations

import math

import numpy as np

from .marching import marching_cubes_stream, padded_grid
from .metrology import MeshMeasurements, NotWatertightError, surface_area, volume
from .reconstruction import TriangleMesh
from .scene import Scene, ScenePrimitive

__all__ = ["OracleUnreliableError", "closed_form_measurements", "oracle_mesh",
           "oracle_measurements"]

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


def _union_sampler(scene: Scene, spacing: float) -> tuple:
    """Padded node grid of the target union and its slab sampler: (origin, shape, sample).

    ``sample(i0, i1)`` returns the inside-positive node values [i0:i1].
    Nodes with a neighbor of the other sign within the slab carry the exact
    union value; all others carry +1.0 (inside) or -1.0 (outside). The signs
    come from per-axis local coordinates that broadcast over the primitive's
    node box; no (N, 3) array of its nodes is built. Only the exact values
    move (N, 3) node columns to a primitive's frame, and only the columns
    near that primitive's world AABB.
    """
    lo, hi = scene.target_bounds()
    prims = scene.labeled("target")
    origin, shape = padded_grid(lo, hi, spacing)
    axes = [origin[a] + spacing * np.arange(shape[a]) for a in range(3)]
    # per-primitive local AABB precheck: outside the inflated box the exact
    # distance is irrelevant to the zero level, the AABB distance (a positive
    # lower-bound stand-in) keeps the union sign correct and is much cheaper.
    # Only nodes within sqrt(3) * inflate of the world AABB, which holds the
    # inflated box, move to the local frame. A node outside would only get a
    # stand-in above ``inflate``, never the minimum at a crossing node: one of
    # its neighbors, a spacing away, is inside some primitive.
    inflate = 3 * spacing
    grow = math.sqrt(3) * inflate
    boxes, reach = [], []
    for prim in prims:
        wlo, whi = prim.world_bounds()
        # node index box [blo, bhi) of the world AABB grown by one cell
        blo = np.floor((wlo - origin) / spacing).astype(np.int64) - 1
        bhi = np.ceil((whi - origin) / spacing).astype(np.int64) + 2
        boxes.append((prim, np.clip(blo, 0, shape), np.clip(bhi, 0, shape)))
        reach.append((prim, prim.local_bounds() + inflate, wlo - grow, whi + grow))

    def exact(pts):
        best = np.full(len(pts), np.inf)
        for prim, half, wlo, whi in reach:
            sel = np.flatnonzero(((pts >= wlo) & (pts <= whi)).all(axis=1))
            local = prim.to_local(pts[sel])
            q = np.abs(local) - half
            box_d = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
            near = box_d <= 0.0
            d = box_d + inflate  # positive far-field stand-in
            if near.any():
                d[near] = prim.sdf_local(*local[near].T)
            best[sel] = np.minimum(best[sel], d)
        return -best

    def inside(i0, i1):
        # implicit_local has the sign of sdf_local, and no node outside a
        # primitive's AABB is inside it
        occ = np.zeros((i1 - i0, shape[1], shape[2]), dtype=bool)
        for prim, blo, bhi in boxes:
            a = np.maximum(blo, (i0, 0, 0))
            b = np.minimum(bhi, (i1, shape[1], shape[2]))
            if (a >= b).any():
                continue
            # the node coordinates along grid axis g, shaped to broadcast along g
            nodes = [axes[g][a[g]:b[g]].reshape([-1 if e == g else 1 for e in range(3)])
                     for g in range(3)]
            # local coordinate c: the sum of R[c, g] * node_g over the nonzero R[c, g], plus t_c
            inv = prim.pose.invert()
            local = [sum((r * n for r, n in zip(row, nodes) if r != 0), 0.0) + t
                     for row, t in zip(inv.rotation, inv.translation)]
            occ[a[0] - i0:b[0] - i0, a[1]:b[1], a[2]:b[2]] |= prim.implicit_local(*local) < 0
        return occ

    def sample(i0, i1):
        occ = inside(i0, i1)
        # both ends of every edge inside the slab whose sign flips
        fx, fy, fz = (np.diff(occ, axis=a) for a in range(3))
        crossing = np.zeros_like(occ)
        crossing[:-1] |= fx
        crossing[1:] |= fx
        crossing[:, :-1] |= fy
        crossing[:, 1:] |= fy
        crossing[:, :, :-1] |= fz
        crossing[:, :, 1:] |= fz
        i, j, k = np.unravel_index(np.flatnonzero(crossing), crossing.shape)
        values = np.where(occ, 1.0, -1.0)
        values[i, j, k] = exact(np.column_stack([axes[0][i0 + i], axes[1][j], axes[2][k]]))
        return values

    return origin, shape, sample


def _voxelize_measurements(scene: Scene, spacing: float) -> tuple:
    origin, shape, sample = _union_sampler(scene, spacing)
    verts, tris = marching_cubes_stream(sample, origin, spacing, shape)
    if len(tris) == 0:
        raise OracleUnreliableError(f"no surface at spacing {spacing} "
                                    "(feature thinner than the grid?)")
    mesh = TriangleMesh(verts, tris)
    try:
        vol = volume(mesh)
    except NotWatertightError as e:
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
