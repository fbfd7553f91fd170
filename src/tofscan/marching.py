"""Vectorized marching cubes over node grids, with exact vertex welding.

Uses the classic 256-case tables (``mc_tables``). Inside is ``value > 0``;
each crossed cube edge gets one vertex by linear interpolation, identified by
a global (node, axis) key so that coincident vertices from neighboring cells,
and from neighboring evaluation slabs in streaming mode, weld exactly.
Triangles wind counter-clockwise seen from outside (positive signed volume
for a closed surface around an inside-positive region).
"""

from __future__ import annotations

import numpy as np

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

_CORNER_BITS = [(np.array(off), 1 << i) for i, off in enumerate(CORNER_OFFSETS)]


def _cell_cases(values: np.ndarray) -> np.ndarray:
    inside = values > 0.0
    nx, ny, nz = values.shape
    case = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint8)
    for off, bit in _CORNER_BITS:
        sub = inside[off[0]:off[0] + nx - 1, off[1]:off[1] + ny - 1, off[2]:off[2] + nz - 1]
        case |= (sub.astype(np.uint8) * bit).astype(np.uint8)
    return case


def _emit(values: np.ndarray, base_index: np.ndarray, grid_shape):
    """Edge keys and per-triangle key triplets for one block of node values.

    ``base_index`` is the global (i, j, k) of values[0, 0, 0]; ``grid_shape``
    is the full grid node count used for key packing.
    """
    case = _cell_cases(values)
    active = np.nonzero((case != 0) & (case != 255))
    if len(active[0]) == 0:
        return (np.empty(0, np.int64), np.empty((0, 3), np.float64),
                np.empty((0, 3), np.int64))
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
    return ukeys, pos, tri_keys


def _assemble(all_keys, all_pos, all_tris, origin, spacing):
    keys = np.concatenate(all_keys)
    pos = np.vstack(all_pos)
    tris = np.vstack(all_tris) if all_tris else np.empty((0, 3), np.int64)
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
    keys, pos, tris = _emit(values, np.zeros(3, dtype=np.int64), values.shape)
    return _assemble([keys], [pos], [tris], origin, spacing)


def marching_cubes_stream(sample_fn, origin, spacing, shape, max_slab_nodes: int = 30_000_000):
    """Iso-surface of a grid too large to hold at once.

    ``sample_fn(k0, k1)`` must return node values[:, :, k0:k1] of shape
    (shape[0], shape[1], k1-k0). Slabs overlap by one node plane, and shared
    edge keys weld exactly because both evaluations see identical node values.
    """
    gx, gy, gz = shape
    slab = max(2, min(gz, max_slab_nodes // max(1, gx * gy)))
    all_keys, all_pos, all_tris = [], [], []
    k0 = 0
    while k0 < gz - 1:
        k1 = min(gz, k0 + slab)
        values = np.asarray(sample_fn(k0, k1), dtype=np.float64)
        keys, pos, tris = _emit(values, np.array([0, 0, k0], dtype=np.int64), shape)
        all_keys.append(keys)
        all_pos.append(pos)
        all_tris.append(tris)
        k0 = k1 - 1  # one-plane overlap so boundary cells exist in exactly one slab
    return _assemble(all_keys, all_pos, all_tris, origin, spacing)
