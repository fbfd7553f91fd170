"""Vectorized marching cubes over node grids, with exact vertex welding.

Uses the classic 256-case tables (``mc_tables``). Inside is ``value > 0``;
each crossed cube edge gets one vertex by linear interpolation, identified by
a global (node, axis) key so that coincident vertices from neighboring cells,
and from neighboring evaluation slabs in streaming mode, weld exactly.
Triangles wind counter-clockwise seen from outside (positive signed volume
for a closed surface around an inside-positive region). In streaming mode the
slabs are sampled and meshed on the ``parallel`` pool, and triangles come out
in cell order, as from one whole-grid pass, whatever the slab size or worker
count.
"""

from __future__ import annotations

import numpy as np

from . import parallel
from .mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE

__all__ = ["marching_cubes_grid", "marching_cubes_stream", "padded_grid", "PAD_CELLS"]

PAD_CELLS = 4  # empty cells kept around the bounds on every side of a padded grid

_PAD = 16  # longest case has 5 triangles = 15 edge refs

_TRI_PAD = np.full((256, _PAD), -1, dtype=np.int64)
_NREF = np.zeros(256, dtype=np.int64)
for _case, _edges in enumerate(TRI_TABLE):
    _TRI_PAD[_case, :len(_edges)] = _edges
    _NREF[_case] = len(_edges)

# per-edge: base node offset (toward the lower corner on the crossing axis) and axis
_EDGE_BASE = np.zeros((12, 3), dtype=np.int64)
_EDGE_AXIS = np.zeros(12, dtype=np.int64)
for _e, (_a, _b) in enumerate(EDGE_CORNERS):
    _ca = np.array(CORNER_OFFSETS[_a])
    _cb = np.array(CORNER_OFFSETS[_b])
    _ax = int(np.nonzero(_ca != _cb)[0][0])
    _EDGE_AXIS[_e] = _ax
    _EDGE_BASE[_e] = np.minimum(_ca, _cb)

# CORNER_OFFSETS lists the four x-y corners of a cell's lower z-plane, then
# the same four one plane up: bit i + 4 is bit i's corner at z + 1
_XY_CORNERS = [off[:2] for off in CORNER_OFFSETS[:4]]


def _cell_cases(values: np.ndarray) -> np.ndarray:
    """Case index of every cell: bit ``1 << i`` set when corner ``CORNER_OFFSETS[i]`` is > 0.

    The four x-y corners of each node plane are packed into a nibble (bit i
    for ``_XY_CORNERS[i]``), and a cell ORs its lower plane's nibble with its
    upper plane's shifted by four.
    """
    inside = (values > 0.0).view(np.uint8)
    nx, ny, _ = values.shape
    planes = [inside[x:x + nx - 1, y:y + ny - 1] for x, y in _XY_CORNERS]
    nib = planes[3].copy()
    for plane in planes[2::-1]:  # Horner order: corner 3 ends in bit 3, corner 0 in bit 0
        nib <<= 1
        nib |= plane
    case = nib[:, :, 1:] << 4
    case |= nib[:, :, :-1]
    return case


def _emit(values: np.ndarray, base_index: np.ndarray, grid_shape):
    """Edge keys, positions, per-triangle key triplets and cell indices of one block.

    ``base_index`` is the global (i, j, k) of values[0, 0, 0]; ``grid_shape``
    is the full grid node count used for key and cell index packing.
    """
    case = _cell_cases(values)
    active = np.unravel_index(np.flatnonzero((case != 0) & (case != 255)), case.shape)
    if len(active[0]) == 0:
        return (np.empty(0, np.int64), np.empty((0, 3), np.float64),
                np.empty((0, 3), np.int64), np.empty(0, np.int64))
    acase = case[active].astype(np.int64)
    nref = _NREF[acase]
    refs = _TRI_PAD[acase]                      # (A, 16)
    valid = refs >= 0
    edge_ids = refs[valid]                      # (R,) in emission order
    cell_of_ref = np.repeat(np.arange(len(acase)), nref)

    ci = active[0][cell_of_ref] + base_index[0]
    cj = active[1][cell_of_ref] + base_index[1]
    ck = active[2][cell_of_ref] + base_index[2]
    ni = ci + _EDGE_BASE[edge_ids, 0]
    nj = cj + _EDGE_BASE[edge_ids, 1]
    nk = ck + _EDGE_BASE[edge_ids, 2]
    axis = _EDGE_AXIS[edge_ids]
    gx, gy, gz = grid_shape
    keys = ((ni * gy + nj) * gz + nk) * 3 + axis          # (R,)

    # interpolated positions in node units, computed on locally unique keys
    ukeys, first = np.unique(keys, return_index=True)
    uni = ni[first] - base_index[0]
    unj = nj[first] - base_index[1]
    unk = nk[first] - base_index[2]
    uax = axis[first]
    v0 = values[uni, unj, unk]
    step = np.eye(3, dtype=np.int64)[uax]
    v1 = values[uni + step[:, 0], unj + step[:, 1], unk + step[:, 2]]
    denom = v1 - v0
    denom[denom == 0] = 1.0  # both corners can't straddle zero if equal
    t = np.clip(-v0 / denom, 0.0, 1.0)
    pos = np.column_stack([ni[first], nj[first], nk[first]]).astype(np.float64)
    pos[np.arange(len(ukeys)), uax] += t

    tri_keys = keys.reshape(-1, 3)
    tri_cells = (ci[::3] * gy + cj[::3]) * gz + ck[::3]
    return ukeys, pos, tri_keys, tri_cells


def _assemble(parts, origin, spacing):
    """Weld the ``_emit`` parts of disjoint cell blocks into (vertices, triangles).

    Triangles of several parts are put in global cell order (stable, so a
    cell keeps its table order); a single part already is.
    """
    all_keys, all_pos, all_tris, all_cells = zip(*parts)
    keys = np.concatenate(all_keys)
    pos = np.vstack(all_pos)
    tris = np.vstack(all_tris)
    if len(parts) > 1:
        tris = tris[np.argsort(np.concatenate(all_cells), kind="stable")]
    ukeys, first = np.unique(keys, return_index=True)
    verts = pos[first] * np.asarray(spacing, dtype=np.float64) + np.asarray(origin, dtype=np.float64)
    remap = np.searchsorted(ukeys, tris.reshape(-1))
    triangles = remap.reshape(-1, 3)
    # winding: with the classic table and inside = bit set, emitted order is
    # clockwise from outside; swap two indices to get outward CCW
    triangles = triangles[:, [0, 2, 1]]
    return verts, triangles


def padded_grid(lo, hi, spacing: float):
    """Node grid covering [lo, hi] plus ``PAD_CELLS`` cells each side: (origin, shape)."""
    origin = lo - PAD_CELLS * spacing
    shape = tuple(int(np.ceil((hi[i] - lo[i]) / spacing)) + 2 * PAD_CELLS + 1
                  for i in range(3))
    return origin, shape


def marching_cubes_grid(values: np.ndarray, origin, spacing):
    """Extract the zero iso-surface of a full node grid. Returns (vertices, triangles)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3 or min(values.shape) < 2:
        raise ValueError(f"need a 3D node grid with >= 2 nodes per axis, got {values.shape}")
    part = _emit(values, np.zeros(3, dtype=np.int64), values.shape)
    return _assemble([part], origin, spacing)


def marching_cubes_stream(sample_fn, origin, spacing, shape, max_slab_nodes: int = 8_000_000):
    """Iso-surface of a grid too large to hold at once.

    ``sample_fn(k0, k1)`` must return node values[:, :, k0:k1] of shape
    (shape[0], shape[1], k1-k0); it is called from the ``parallel`` pool's
    threads, one slab each. ``max_slab_nodes`` bounds the nodes of all slabs
    in flight across those threads (each slab keeps at least 2 planes).
    Slabs overlap by one node plane, and shared edge keys weld exactly because
    both evaluations see identical node values. The mesh, triangle order
    included, is the whole-grid one for any slab size and worker count.
    """
    gx, gy, gz = shape
    slab = max(2, min(gz, max_slab_nodes // max(1, gx * gy * (parallel.WORKERS + 1))))

    def mesh_slab(k0):
        k1 = min(gz, k0 + slab)
        values = np.asarray(sample_fn(k0, k1), dtype=np.float64)
        return _emit(values, np.array([0, 0, k0], dtype=np.int64), shape)

    # one-plane overlap so boundary cells exist in exactly one slab
    return _assemble(parallel.map_ordered(mesh_slab, range(0, gz - 1, slab - 1)),
                     origin, spacing)
