import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from conftest import (icosphere, sampled_mesh_points, tetrahedron_mesh, torus_grid_mesh,
                      triangle_corners, unit_cube_mesh)
from tofscan.geometry import PointCloud
from tofscan.metrology import surface_area, volume
from tofscan.reconstruction import (_BYTES_PER_NODE, GRID_MEMORY_BYTES, ReconstructionError,
                                    TriangleMesh, _compact, _grid_layout, _splat_normals, _weld_slivers,
                                    estimate_normals, euler_characteristic, is_watertight,
                                    poisson_reconstruct)

UNIT_CUBE_CORNERS = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)


class TestEstimateNormals:
    def test_plane_facing_camera(self, rng):
        pts = np.column_stack([rng.uniform(-1, 1, 500), rng.uniform(-1, 1, 500),
                               np.ones(500)])
        oriented = estimate_normals(PointCloud(pts))
        np.testing.assert_allclose(oriented.normals, np.tile([0, 0, -1.0], (500, 1)),
                                   atol=1e-3)

    def test_sphere_normals_face_outside_camera(self, rng):
        v = rng.standard_normal((4000, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        cloud = PointCloud(v, source_ids=np.zeros(4000, dtype=np.int32))
        oriented = estimate_normals(cloud, camera_centers={0: (6.0, 0.0, 0.0)})
        # points on the camera-facing hemisphere should carry outward normals
        facing = v[:, 0] > 0.2
        agree = np.einsum("ni,ni->n", oriented.normals[facing], v[facing]) > 0
        assert agree.mean() >= 0.99

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            estimate_normals(PointCloud(np.zeros((5, 3))))


@pytest.fixture(scope="module")
def sphere_cloud():
    rng = np.random.default_rng(7)
    v = rng.standard_normal((20000, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return PointCloud(0.5 * v, normals=v)


@pytest.fixture(scope="module")
def sphere_mesh(sphere_cloud):
    return poisson_reconstruct(sphere_cloud, resolution=96)


class TestPoisson:
    def test_splat_matches_per_corner_accumulation(self, rng):
        """The bincount splat equals an unbuffered per-corner np.add.at, bit for bit."""
        pts = rng.random((5000, 3)) * np.array([1.0, 0.4, 0.7])
        nrm = rng.standard_normal((5000, 3))
        cloud = PointCloud(pts, normals=nrm / np.linalg.norm(nrm, axis=1)[:, None])
        origin, spacing, shape = _grid_layout(pts, 40)
        ref = np.zeros((3,) + shape)
        q = (pts - origin) / spacing
        base = np.floor(q).astype(np.int64)
        frac = q - base
        for corner in range(8):
            off = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
            w = np.prod(np.where(off == 1, frac, 1.0 - frac), axis=1)
            node = base + off
            flat = (node[:, 0] * shape[1] + node[:, 1]) * shape[2] + node[:, 2]
            for ax in range(3):
                np.add.at(ref[ax].reshape(-1), flat, w * cloud.normals[:, ax])
        got = list(_splat_normals(cloud, origin, spacing, shape))
        assert len(got) == 3
        for ax in range(3):
            assert np.array_equal(got[ax], ref[ax])

    def test_sphere_metrics(self, sphere_mesh):
        ok, boundary = is_watertight(sphere_mesh)
        assert ok and boundary == 0
        assert euler_characteristic(sphere_mesh) == 2
        area = surface_area(sphere_mesh)
        vol = volume(sphere_mesh)
        assert abs(area - np.pi) / np.pi < 0.05
        ref_v = 4 / 3 * np.pi * 0.125
        assert abs(vol - ref_v) / ref_v < 0.05

    def test_cube_volume(self, rng):
        pts, normals = sampled_mesh_points(unit_cube_mesh(), 20000, seed=3)
        mesh = poisson_reconstruct(PointCloud(pts, normals=normals), resolution=96)
        assert is_watertight(mesh)[0]
        assert abs(volume(mesh) - 1.0) < 0.05

    def test_empty_cloud_rejected(self):
        with pytest.raises(ReconstructionError, match="empty"):
            poisson_reconstruct(PointCloud(np.empty((0, 3)), normals=np.empty((0, 3))))

    def test_cloud_without_normals_rejected(self, sphere_cloud):
        with pytest.raises(ReconstructionError, match="no normals"):
            poisson_reconstruct(PointCloud(sphere_cloud.points))

    def test_resolution_range_enforced(self, sphere_cloud):
        with pytest.raises(ValueError):
            poisson_reconstruct(sphere_cloud, resolution=16)
        with pytest.raises(ValueError):
            poisson_reconstruct(sphere_cloud, resolution=1024)

    def test_oversized_grid_raises_before_allocating(self):
        """A cube-shaped cloud at resolution 512 (about 134 M nodes) is refused up front."""
        cloud = PointCloud(UNIT_CUBE_CORNERS, normals=(UNIT_CUBE_CORNERS - 0.5) / np.sqrt(0.75))
        tracemalloc.start()
        try:
            with pytest.raises(ReconstructionError, match="budget"):
                poisson_reconstruct(cloud, resolution=512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_peak_memory_holds_one_splat_field(self, sphere_cloud):
        """No splat field lives through the solve: peak <= 10 float64 arrays per node."""
        nodes = np.prod(_grid_layout(sphere_cloud.points, 64)[2])
        tracemalloc.start()
        try:
            poisson_reconstruct(sphere_cloud, resolution=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * nodes

    @pytest.mark.parametrize("resolution", [128, 192, 256])
    def test_grid_budget_admits_used_resolutions(self, resolution):
        _, _, shape = _grid_layout(UNIT_CUBE_CORNERS, resolution)
        assert np.prod(shape) * _BYTES_PER_NODE <= GRID_MEMORY_BYTES

    def test_no_degenerate_triangles_after_cleanup(self, sphere_mesh):
        a, b, c = triangle_corners(sphere_mesh)
        areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
        assert areas.min() > 1e-12

    def test_deterministic(self, sphere_cloud):
        a = poisson_reconstruct(sphere_cloud, resolution=64)
        b = poisson_reconstruct(sphere_cloud, resolution=64)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)

    def test_scaling_laws(self, rng):
        """Scaling inputs by s scales area by s^2 and volume by s^3 within 2%."""
        v = rng.standard_normal((12000, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        base = poisson_reconstruct(PointCloud(0.5 * v, normals=v), resolution=64)
        a0, v0 = surface_area(base), volume(base)
        for s in (0.5, 2.0):
            mesh = poisson_reconstruct(PointCloud(0.5 * s * v, normals=v), resolution=64)
            assert abs(surface_area(mesh) - s ** 2 * a0) / (s ** 2 * a0) < 0.02
            assert abs(volume(mesh) - s ** 3 * v0) / (s ** 3 * v0) < 0.02


def _union_find_weld(verts, tris, radius):
    """The union-find weld that ``_weld_slivers`` replaced, kept as its reference."""
    pairs = cKDTree(verts).query_pairs(radius, output_type="ndarray")
    root = np.arange(len(verts))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[max(ra, rb)] = min(ra, rb)
    tris = np.array([find(i) for i in range(len(verts))])[tris]
    collapsed = ((tris[:, 0] == tris[:, 1]) | (tris[:, 1] == tris[:, 2])
                 | (tris[:, 0] == tris[:, 2]))
    return _compact(verts, tris[~collapsed])


def test_weld_matches_union_find(rng):
    """Connected components of the near-pair graph weld exactly as the union-find did."""
    for _ in range(200):
        n = int(rng.integers(20, 300))
        # lattice points with jitter above the radius: near-pair chains of varied shape
        verts = np.round(rng.random((n, 3)) * 4) / 4 + rng.random((n, 3)) * 3e-3
        tris = rng.integers(0, n, (2 * n, 3))
        got = _weld_slivers(verts, tris, radius=2e-3)
        want = _union_find_weld(verts, tris, 2e-3)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestWatertight:
    def test_tetrahedron_closed(self):
        assert is_watertight(tetrahedron_mesh()) == (True, 0)

    def test_single_triangle(self):
        mesh = TriangleMesh(np.eye(3), np.array([[0, 1, 2]]))
        assert is_watertight(mesh) == (False, 3)

    def test_cube_missing_face(self):
        cube = unit_cube_mesh()
        mesh = TriangleMesh(cube.vertices, cube.triangles[:-2])  # drop one quad
        ok, boundary = is_watertight(mesh)
        assert not ok and boundary == 4

    def test_inconsistent_orientation_detected(self):
        t = tetrahedron_mesh()
        flipped = t.triangles.copy()
        flipped[0] = flipped[0][::-1]
        assert not is_watertight(TriangleMesh(t.vertices, flipped))[0]


def _two_sort_watertight(mesh):
    """The two-``np.unique`` definition: undirected counts, then directed counts."""
    t = mesh.triangles
    if len(t) == 0:
        return False, 0
    n = int(t.max()) + 1
    a = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    b = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    _, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_counts=True)
    boundary = int((counts == 1).sum())
    if (counts != 2).any():
        return False, boundary + int((counts > 2).sum())
    _, dcounts = np.unique(a * n + b, return_counts=True)
    if (dcounts != 1).any():
        return False, 0
    return True, 0


def _two_sort_euler(mesh):
    t = mesh.triangles
    if len(t) == 0:
        return 0
    n = int(t.max()) + 1
    a = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    b = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    e = len(np.unique(np.minimum(a, b) * n + np.maximum(a, b)))
    return len(np.unique(t.reshape(-1))) - e + len(t)


def _edge_used_three_times():
    t = tetrahedron_mesh()
    verts = np.vstack([t.vertices, [[2.0, 2.0, 2.0]]])
    a, b = t.triangles[0, :2]
    return TriangleMesh(verts, np.vstack([t.triangles, [[a, b, 4]]]))


def _flipped_triangle():
    t = tetrahedron_mesh()
    flipped = t.triangles.copy()
    flipped[0] = flipped[0][::-1]
    return TriangleMesh(t.vertices, flipped)


def _with_hole():
    cube = unit_cube_mesh()
    return TriangleMesh(cube.vertices, cube.triangles[:-2])


class TestOneSortEdgeCount:
    """``is_watertight`` and ``euler_characteristic`` on one sort of edge keys give
    what the two-``np.unique`` definition gives."""

    @pytest.mark.parametrize("make", [tetrahedron_mesh, lambda: icosphere(2), _with_hole,
                                      _edge_used_three_times, _flipped_triangle],
                             ids=["tetrahedron", "icosphere", "hole", "edge-x3", "flipped"])
    def test_named_meshes(self, make):
        mesh = make()
        assert is_watertight(mesh) == _two_sort_watertight(mesh)
        assert euler_characteristic(mesh) == _two_sort_euler(mesh)

    def test_named_outcomes(self):
        assert _two_sort_watertight(_with_hole()) == (False, 4)
        assert _two_sort_watertight(_edge_used_three_times()) == (False, 3)
        assert _two_sort_watertight(_flipped_triangle()) == (False, 0)

    @settings(max_examples=200)
    @given(st.integers(3, 7).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=12)))
    def test_triangle_soup(self, tris):
        tris = np.array(tris, dtype=np.int64)
        mesh = TriangleMesh(np.zeros((int(tris.max()) + 1, 3)), tris)
        assert is_watertight(mesh) == _two_sort_watertight(mesh)
        assert euler_characteristic(mesh) == _two_sort_euler(mesh)

    def test_closed_soup_with_a_doubled_direction(self):
        """Every edge used twice, one of them twice in the same direction."""
        mesh = TriangleMesh(np.eye(3), np.array([[0, 1, 2], [0, 1, 2]]))
        assert is_watertight(mesh) == _two_sort_watertight(mesh) == (False, 0)


class TestEuler:
    def test_tetrahedron(self):
        assert euler_characteristic(tetrahedron_mesh()) == 2

    def test_two_disjoint_tetrahedra(self):
        t = tetrahedron_mesh()
        verts = np.vstack([t.vertices, t.vertices + 10.0])
        tris = np.vstack([t.triangles, t.triangles + 4])
        assert euler_characteristic(TriangleMesh(verts, tris)) == 4

    def test_torus_grid_is_zero(self):
        mesh = torus_grid_mesh(8)
        assert euler_characteristic(mesh) == 0
        assert is_watertight(mesh)[0]

    def test_icosphere(self):
        assert euler_characteristic(icosphere(2)) == 2
