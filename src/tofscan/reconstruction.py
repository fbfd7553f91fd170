"""Oriented-normal estimation and Poisson surface reconstruction.

The indicator field is recovered on a uniform node grid: splat unit normals
into a vector field with trilinear weights, smooth once with a Gaussian
(sigma = 1 cell), solve the Poisson equation for the field whose gradient
matches it, pick the iso-value as the mean field value sampled at the input
points, and extract the surface with marching cubes. Components carrying
less than 1% of the triangles are dropped (stray fragments from segmentation
or interference leftovers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

# SciPy is imported in the functions that call it: the device server, the scan
# client and the oracle import this module and run on numpy alone
from .geometry import PointCloud, pca_normals
from .marching import PAD_CELLS, marching_cubes_grid, padded_grid
from .solver import solve_poisson_grid

__all__ = [
    "ReconstructionError", "TriangleMesh",
    "estimate_normals", "poisson_reconstruct", "is_watertight", "euler_characteristic",
]


class ReconstructionError(RuntimeError):
    pass


# Grid memory bound: budgeted at 12 float64 arrays of the node count (one
# splat axis at a time, the divergence, the DST work arrays, the iso-field;
# tracemalloc measures a peak of about 9 at resolution 64), so 2 GiB admits
# about 22 M nodes, a 280^3 grid.
GRID_MEMORY_BYTES = 2 * 1024 ** 3
_BYTES_PER_NODE = 12 * 8
_NORMAL_K = 30  # PCA neighbourhood of the merged-cloud normals


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle set, counter-clockwise outward winding."""

    vertices: np.ndarray   # (V, 3) float64
    triangles: np.ndarray  # (T, 3) int64

    def __post_init__(self):
        v = np.ascontiguousarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.ascontiguousarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if len(t) and (t.min() < 0 or t.max() >= len(v)):
            raise ValueError("triangle indices out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)


def estimate_normals(cloud: PointCloud) -> PointCloud:
    """``cloud`` with PCA normals over its 30 nearest neighbors, each facing the origin."""
    from scipy.spatial import cKDTree

    pts = cloud.points
    if len(pts) < _NORMAL_K:
        raise ValueError(f"need at least k={_NORMAL_K} points, got {len(pts)}")
    normals = pca_normals(pts, cKDTree(pts), _NORMAL_K, np.zeros(3))
    return replace(cloud, normals=normals)


def _grid_layout(points: np.ndarray, resolution: int):
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    extent = float((hi - lo).max())
    if extent == 0:
        raise ReconstructionError("degenerate cloud: zero extent")
    spacing = extent / (resolution - 1 - 2 * PAD_CELLS)
    origin, shape = padded_grid(lo, hi, spacing)
    return origin, spacing, shape


def _splat_normals(cloud: PointCloud, origin, spacing, shape):
    """Trilinear distribution of each unit normal into the 8 surrounding nodes.

    Yields one grid per normal component, x then y then z, so a caller that
    consumes each before the next holds one splat field at a time.
    """
    q = (cloud.points - origin) / spacing
    base = np.floor(q).astype(np.int64)
    frac = q - base
    sides = (1.0 - frac, frac)  # per-axis weight of the lower and the upper node
    base_flat = (base[:, 0] * shape[1] + base[:, 1]) * shape[2] + base[:, 2]
    corners = [((c >> 2) & 1, (c >> 1) & 1, c & 1) for c in range(8)]
    # corner-major, so each node sums its contributions in the order that a
    # per-corner np.add.at would
    flat = np.concatenate([base_flat + (i * shape[1] + j) * shape[2] + k for i, j, k in corners])
    weight = np.stack([sides[i][:, 0] * sides[j][:, 1] * sides[k][:, 2] for i, j, k in corners])
    for ax in range(3):
        yield np.bincount(flat, weights=(weight * cloud.normals[:, ax]).ravel(),
                          minlength=shape[0] * shape[1] * shape[2]).reshape(shape)


def _sample(values: np.ndarray, origin: np.ndarray, spacing: float,
            pts: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of a node grid at world points."""
    from scipy import ndimage

    q = (pts - origin) / spacing
    return ndimage.map_coordinates(values, q.T, order=1, mode="nearest")


def poisson_reconstruct(cloud: PointCloud, resolution: int = 128) -> TriangleMesh:
    """Watertight triangle mesh from a point cloud with camera-facing unit normals.

    ``resolution`` is the node count along the longest padded axis (the other
    axes scale with the cloud's bounding box). Raises ReconstructionError for
    a cloud without normals, empty input, a grid over ``GRID_MEMORY_BYTES``
    (checked before anything is allocated) or an empty iso-surface, SolverError
    if the linear solve misses the solver's residual gate.
    """
    from scipy import ndimage

    if cloud.normals is None:
        raise ReconstructionError("cloud has no normals (run estimate_normals first)")
    if len(cloud) == 0:
        raise ReconstructionError("empty oriented cloud")
    if not (32 <= resolution <= 512):
        raise ValueError(f"resolution {resolution} outside [32, 512]")

    origin, spacing, shape = _grid_layout(cloud.points, resolution)
    nodes = shape[0] * shape[1] * shape[2]
    if nodes * _BYTES_PER_NODE > GRID_MEMORY_BYTES:
        raise ReconstructionError(
            f"grid {shape} of {nodes} nodes needs about {nodes * _BYTES_PER_NODE / 2**30:.1f} GiB, "
            f"over the {GRID_MEMORY_BYTES / 2**30:.0f} GiB budget (lower the resolution)")
    div = np.zeros(shape)
    for ax, splat in enumerate(_splat_normals(cloud, origin, spacing, shape)):
        div += np.gradient(ndimage.gaussian_filter(splat, sigma=1.0), spacing, axis=ax)
    del splat  # the solve holds no splat field

    # -lap(chi) = -div(V); with camera-facing (outward) normals chi then rises
    # toward the inside up to the sign fixed below
    chi_arr, _ = solve_poisson_grid(-div, spacing)

    iso = float(_sample(chi_arr, origin, spacing, cloud.points).mean())
    inward = _sample(chi_arr, origin, spacing, cloud.points - 1.5 * spacing * cloud.normals)
    sign = 1.0 if float(inward.mean()) >= iso else -1.0
    f = sign * (chi_arr - iso)

    verts, tris = marching_cubes_grid(f, origin, spacing)
    if len(tris) == 0:
        raise ReconstructionError("empty iso-surface (solve produced no crossing)")
    verts, tris = _weld_slivers(verts, tris, radius=1e-3 * spacing)
    verts, tris = _cull_small_components(verts, tris, min_fraction=0.01)
    return TriangleMesh(verts, tris)


def _weld_slivers(verts: np.ndarray, tris: np.ndarray, radius: float):
    """Merge near-coincident vertices and drop the collapsed triangles.

    Marching cubes emits sliver triangles when the surface grazes a grid node;
    deleting them outright would open holes, but welding their coincident
    vertices collapses them to repeated-index triangles whose removal keeps
    the mesh closed.
    """
    from scipy.spatial import cKDTree

    pairs = cKDTree(verts).query_pairs(radius, output_type="ndarray")
    if len(pairs):
        # every vertex moves to the lowest index of its near-pair component
        labels = _component_labels(len(verts), pairs[:, 0], pairs[:, 1])
        tris = np.unique(labels, return_index=True)[1][labels][tris]
    collapsed = ((tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2])
                 | (tris[:, 0] == tris[:, 2]))
    return _compact(verts, tris[~collapsed])


def _compact(verts: np.ndarray, tris: np.ndarray):
    used = np.flatnonzero(np.bincount(tris.reshape(-1), minlength=len(verts)))
    remap = np.full(len(verts), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return verts[used], remap[tris]


def _component_labels(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes of the undirected graph (rows, cols)."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    adj = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    return connected_components(adj, directed=False)[1]


def _cull_small_components(verts: np.ndarray, tris: np.ndarray, min_fraction: float):
    """Drop connected components (via shared vertices) below a triangle fraction."""
    rows = np.concatenate([tris[:, 0], tris[:, 1], tris[:, 2]])
    cols = np.concatenate([tris[:, 1], tris[:, 2], tris[:, 0]])
    labels = _component_labels(len(verts), rows, cols)
    tri_label = labels[tris[:, 0]]
    lab, counts = np.unique(tri_label, return_counts=True)
    keep_lab = lab[counts >= min_fraction * len(tris)]
    keep = np.isin(tri_label, keep_lab)
    return _compact(verts, tris[keep])


def _edge_uses(t: np.ndarray):
    """Sorted int64 key of every edge use a -> b, ``min * 2n + max * 2 + (a < b)``,
    and the start of each undirected edge's run of keys.

    ``key >> 1`` names the undirected edge; two equal keys are one directed
    edge used twice.
    """
    n = int(t.max()) + 1
    a = t.reshape(-1)
    b = t[:, [1, 2, 0]].reshape(-1)
    forward = a < b
    keys = np.minimum(a, b)
    np.maximum(a, b, out=b)
    keys *= n
    keys += b
    keys *= 2
    keys += forward
    keys.sort()
    edge = keys >> 1
    return keys, np.flatnonzero(np.concatenate(([True], edge[1:] != edge[:-1])))


def is_watertight(mesh: TriangleMesh) -> tuple[bool, int]:
    """(closed 2-manifold with consistent orientation, boundary edge count)."""
    t = mesh.triangles
    if len(t) == 0:
        return False, 0
    keys, starts = _edge_uses(t)
    counts = np.diff(starts, append=len(keys))
    boundary = int((counts == 1).sum())
    if (counts != 2).any():
        return False, boundary + int((counts > 2).sum())
    # each undirected edge must appear once per direction
    if (keys[1:] == keys[:-1]).any():
        return False, 0
    return True, 0


def euler_characteristic(mesh: TriangleMesh) -> int:
    """V - E + F over referenced vertices and unique undirected edges."""
    t = mesh.triangles
    if len(t) == 0:
        return 0
    v = np.count_nonzero(np.bincount(t.reshape(-1)))
    e = len(_edge_uses(t)[1])
    return v - e + len(t)
