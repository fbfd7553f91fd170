"""Vectorized marching cubes over node grids, with exact vertex welding.

Uses the classic 256-case tables (``mc_tables``). Inside is ``value > 0``;
each crossed cube edge gets one vertex by linear interpolation, identified by
a global (node, axis) key so that coincident vertices from neighboring cells
and slabs weld exactly. Triangles wind counter-clockwise seen from outside
(positive signed volume for a closed surface around an inside-positive region).
Every grid is meshed in slabs of node planes along x on the ``parallel`` pool.
x is the slowest axis of the cell order and of the keys, so the slabs'
triangles concatenate in cell order, whatever the slab size or worker count.
"""

from __future__ import annotations

import numpy as np

from . import parallel
from .mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE

__all__ = ["marching_cubes_grid", "marching_cubes_stream", "padded_grid", "PAD_CELLS"]

PAD_CELLS = 4  # empty cells kept around the bounds on every side of a padded grid

_MAX_SLAB_NODES = 8_000_000  # nodes of all the x-slabs a stream holds at once

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


def _emit(values: np.ndarray, i0: int):
    """Edge keys, positions and per-triangle key triplets of the node planes from ``i0``.

    ``values`` holds whole y-z node planes, so its y and z node counts are
    the grid's and pack the keys. Triangles come out in cell order.
    """
    case = _cell_cases(values)
    active = np.unravel_index(np.flatnonzero((case != 0) & (case != 255)), case.shape)
    if len(active[0]) == 0:
        return np.empty(0, np.int64), np.empty((0, 3), np.float64), np.empty((0, 3), np.int64)
    acase = case[active].astype(np.int64)
    nref = _NREF[acase]
    refs = _TRI_PAD[acase]                      # (A, 16)
    valid = refs >= 0
    edge_ids = refs[valid]                      # (R,) in emission order
    cell_of_ref = np.repeat(np.arange(len(acase)), nref)

    ni = active[0][cell_of_ref] + i0 + _EDGE_BASE[edge_ids, 0]
    nj = active[1][cell_of_ref] + _EDGE_BASE[edge_ids, 1]
    nk = active[2][cell_of_ref] + _EDGE_BASE[edge_ids, 2]
    axis = _EDGE_AXIS[edge_ids]
    _, gy, gz = values.shape
    keys = ((ni * gy + nj) * gz + nk) * 3 + axis          # (R,)

    # interpolated positions in node units, computed on locally unique keys
    ukeys, first = np.unique(keys, return_index=True)
    uni, unj, unk, uax = ni[first], nj[first], nk[first], axis[first]
    v0 = values[uni - i0, unj, unk]
    step = np.eye(3, dtype=np.int64)[uax]
    v1 = values[uni - i0 + step[:, 0], unj + step[:, 1], unk + step[:, 2]]
    t = np.clip(-v0 / (v1 - v0), 0.0, 1.0)  # the ends straddle zero, so differ
    pos = np.column_stack([uni, unj, unk]).astype(np.float64)
    pos[np.arange(len(ukeys)), uax] += t
    return ukeys, pos, keys.reshape(-1, 3)


def _assemble(parts, origin, spacing):
    """Weld the ``_emit`` parts of consecutive x-slabs into (vertices, triangles).

    The parts' triangles are already in cell order; a key shared by two
    parts (an edge in their common node plane) becomes one vertex.
    """
    keys, pos, tris = (np.concatenate(arrays) for arrays in zip(*parts))
    ukeys, first = np.unique(keys, return_index=True)
    verts = pos[first] * np.asarray(spacing, dtype=np.float64) + np.asarray(origin, dtype=np.float64)
    # winding: with the classic table and inside = bit set, emitted order is
    # clockwise from outside; swap two indices to get outward CCW
    return verts, np.searchsorted(ukeys, tris)[:, [0, 2, 1]]


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
    return marching_cubes_stream(lambda i0, i1: values[i0:i1], origin, spacing, values.shape)


def marching_cubes_stream(sample_fn, origin, spacing, shape):
    """Iso-surface of a grid sampled in x-slabs, never held whole.

    ``sample_fn(i0, i1)`` must return node values[i0:i1] of shape
    (i1-i0, shape[1], shape[2]); it is called from the ``parallel`` pool's
    threads, one slab each. All slabs in flight across those threads hold at
    most ``_MAX_SLAB_NODES`` nodes (each slab keeps at least 2 planes).
    Slabs overlap by one node plane, and shared edge keys weld exactly because
    both evaluations see identical node values. The mesh, triangle order
    included, is the same for any slab size and worker count.
    """
    gx, gy, gz = shape
    slab = max(2, min(gx, _MAX_SLAB_NODES // max(1, gy * gz * (parallel.WORKERS + 1))))

    def mesh_slab(i0):
        values = np.asarray(sample_fn(i0, min(gx, i0 + slab)), dtype=np.float64)
        return _emit(values, i0)

    # one-plane overlap so boundary cells exist in exactly one slab
    return _assemble(parallel.map_ordered(mesh_slab, range(0, gx - 1, slab - 1)),
                     origin, spacing)
