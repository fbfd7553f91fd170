import numpy as np
import pytest

from tofscan import marching, parallel
from tofscan.marching import _cell_cases, marching_cubes_grid, marching_cubes_stream
from tofscan.mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE


def sphere_field(n=48, r=0.6):
    xs = np.linspace(-1, 1, n)
    x, y, z = np.meshgrid(xs, xs, xs, indexing="ij")
    return r - np.sqrt(x * x + y * y + z * z), (-1, -1, -1), 2 / (n - 1)


def edge_incidence(tris):
    e = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    _, counts = np.unique(np.sort(e, axis=1), axis=0, return_counts=True)
    return counts


def test_tables_are_consistent():
    """Each case's triangles use exactly the edges whose two corners differ in sign."""
    assert len(TRI_TABLE) == 256 and len(EDGE_CORNERS) == 12
    for case, edges in enumerate(TRI_TABLE):
        assert len(edges) % 3 == 0
        assert all(0 <= e < 12 for e in edges)
        crossed = {e for e, (i, j) in enumerate(EDGE_CORNERS)
                   if (case >> i & 1) != (case >> j & 1)}
        assert set(edges) == crossed, case


def test_cell_cases_match_the_eight_corner_definition(rng):
    """Bit ``1 << i`` is set when corner ``CORNER_OFFSETS[i]`` is > 0; 0.0 and -0.0 are outside."""
    for _ in range(40):
        shape = tuple(int(n) for n in rng.integers(2, 9, 3))
        values = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=shape)
        nx, ny, nz = shape
        want = np.zeros((nx - 1, ny - 1, nz - 1), dtype=np.uint8)
        for i, (x, y, z) in enumerate(CORNER_OFFSETS):
            corner = values[x:x + nx - 1, y:y + ny - 1, z:z + nz - 1] > 0
            want |= (corner * (1 << i)).astype(np.uint8)
        got = _cell_cases(values)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)


def test_sphere_surface_closed_and_oriented():
    f, origin, spacing = sphere_field()
    verts, tris = marching_cubes_grid(f, origin, spacing)
    counts = edge_incidence(tris)
    assert (counts == 2).all()            # closed, no edge on >2 triangles
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    signed = np.einsum("ij,ij->i", a, np.cross(b, c)).sum() / 6
    assert signed > 0                     # outward CCW
    vol_ref = 4 / 3 * np.pi * 0.6 ** 3
    area_ref = 4 * np.pi * 0.6 ** 2
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum()
    assert abs(signed - vol_ref) / vol_ref < 0.01
    assert abs(area - area_ref) / area_ref < 0.01


def test_vertices_lie_on_level_set():
    f, origin, spacing = sphere_field()
    verts, _ = marching_cubes_grid(f, origin, spacing)
    r = np.linalg.norm(verts, axis=1)
    # linear interpolation error is O(h^2 / r)
    assert np.abs(r - 0.6).max() < spacing ** 2 / 0.6 * 2


def test_stream_matches_block(monkeypatch):
    f, origin, spacing = sphere_field(40)
    verts, tris = marching_cubes_grid(f, origin, spacing)
    monkeypatch.setattr(marching, "_MAX_SLAB_NODES", 40 * 40 * 7)
    v2, t2 = marching_cubes_stream(lambda i0, i1: f[i0:i1], origin, spacing, f.shape)
    assert np.array_equal(verts, v2)
    assert np.array_equal(tris, t2)


def ellipsoid_field(shape=(23, 31, 37)):
    """An off-centre ellipsoid on a non-cubic grid, so no two axes can be swapped unseen."""
    x, y, z = np.meshgrid(*(np.linspace(-1, 1, n) for n in shape), indexing="ij")
    return 1 - ((x - 0.2) / 0.7) ** 2 - ((y + 0.1) / 0.5) ** 2 - ((z - 0.15) / 0.6) ** 2


@pytest.mark.parametrize("n_workers", [0, 3])
@pytest.mark.parametrize("planes", [2, 9, 23], ids=["2-plane", "middle", "one-slab"])
def test_stream_matches_block_on_an_asymmetric_grid(workers, monkeypatch, n_workers, planes):
    """x-slabs of 2 planes, of a middle size and of the whole grid give the whole-grid bytes."""
    workers(n_workers)
    f = ellipsoid_field()
    origin, spacing = (-1.0, -1.0, -1.0), (2 / 22, 2 / 30, 2 / 36)
    verts, tris = marching_cubes_grid(f, origin, spacing)
    monkeypatch.setattr(marching, "_MAX_SLAB_NODES", planes * 31 * 37 * (parallel.WORKERS + 1))
    calls = []

    def sample(i0, i1):
        calls.append((i0, i1))
        return f[i0:i1]

    v2, t2 = marching_cubes_stream(sample, origin, spacing, f.shape)
    assert max(i1 - i0 for i0, i1 in calls) == planes
    assert len(tris) > 0
    assert np.array_equal(verts, v2)
    assert np.array_equal(tris, t2)


@pytest.mark.parametrize("n_workers", [0, 3])
def test_stream_slabs_in_flight_stay_within_budget(workers, monkeypatch, n_workers):
    """All slabs the pool can hold at once fit in ``_MAX_SLAB_NODES``, and they tile the grid."""
    workers(n_workers)
    f, origin, spacing = sphere_field(40)
    budget = 40 * 40 * 20
    monkeypatch.setattr(marching, "_MAX_SLAB_NODES", budget)
    calls = []

    def sample(i0, i1):
        calls.append((i0, i1))
        return f[i0:i1]

    marching_cubes_stream(sample, origin, spacing, f.shape)
    assert len(calls) > 1
    for i0, i1 in calls:
        if i1 - i0 > 2:
            assert (i1 - i0) * 40 * 40 * (parallel.WORKERS + 1) <= budget
    calls.sort()
    assert calls[0][0] == 0 and calls[-1][1] == 40
    assert all(b[0] == a[1] - 1 for a, b in zip(calls, calls[1:]))


class SlabError(RuntimeError):
    pass


@pytest.mark.parametrize("n_workers", [0, 3])
def test_stream_raises_the_sampler_error(workers, monkeypatch, n_workers):
    workers(n_workers)
    f, origin, spacing = sphere_field(40)
    monkeypatch.setattr(marching, "_MAX_SLAB_NODES", 40 * 40 * 4 * (parallel.WORKERS + 1))

    def sample(i0, i1):
        if i0 == 3:  # the second slab of four planes
            raise SlabError(f"slab {i0}:{i1}")
        return f[i0:i1]

    with pytest.raises(SlabError, match="slab 3:7"):
        marching_cubes_stream(sample, origin, spacing, f.shape)


def test_empty_and_full_fields():
    f = np.full((8, 8, 8), -1.0)
    verts, tris = marching_cubes_grid(f, (0, 0, 0), 1.0)
    assert len(verts) == 0 and len(tris) == 0
    verts, tris = marching_cubes_grid(-f, (0, 0, 0), 1.0)
    assert len(tris) == 0


def test_deterministic():
    f, origin, spacing = sphere_field(32)
    a = marching_cubes_grid(f, origin, spacing)
    b = marching_cubes_grid(f, origin, spacing)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
