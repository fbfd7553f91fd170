import math

import numpy as np
import pytest

from conftest import icosphere, triangle_corners, unit_cube_mesh
from tofscan import metrology
from tofscan.geometry import RigidTransform
from tofscan.metrology import NotWatertightError, measure_mesh, surface_area, volume
from tofscan.reconstruction import TriangleMesh


def test_unit_cube_exact():
    cube = unit_cube_mesh()
    assert surface_area(cube) == pytest.approx(6.0, abs=1e-12)
    assert volume(cube) == pytest.approx(1.0, abs=1e-12)


def test_translated_cube_volume_invariant():
    cube = unit_cube_mesh()
    moved = TriangleMesh(cube.vertices + np.array([10.0, 10.0, 10.0]), cube.triangles)
    assert volume(moved) == pytest.approx(1.0, rel=1e-12)


def test_degenerate_triangle_contributes_zero():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]], dtype=float)
    mesh = TriangleMesh(verts, np.array([[0, 1, 2], [0, 1, 3]]))
    assert surface_area(mesh) == pytest.approx(0.5)


def test_icosphere_level4_within_tolerances():
    mesh = icosphere(4, radius=1.0)
    assert abs(surface_area(mesh) - 4 * np.pi) / (4 * np.pi) < 0.005
    assert abs(volume(mesh) - 4 * np.pi / 3) / (4 * np.pi / 3) < 0.01


def test_volume_refuses_open_mesh():
    cube = unit_cube_mesh()
    open_mesh = TriangleMesh(cube.vertices, cube.triangles[:-2])
    with pytest.raises(NotWatertightError) as e:
        volume(open_mesh)
    assert e.value.boundary_edges == 4


def test_volume_rigid_motion_invariant(rng):
    mesh = icosphere(3, radius=0.7)
    v0 = volume(mesh)
    a0 = surface_area(mesh)
    for _ in range(5):
        t = RigidTransform.from_axis_angle(rng.standard_normal(3),
                                           rng.uniform(0, 2 * np.pi),
                                           rng.uniform(-20, 20, 3))
        moved = TriangleMesh(t.apply(mesh.vertices), mesh.triangles)
        assert abs(volume(moved) - v0) / v0 < 1e-9
        assert abs(surface_area(moved) - a0) / a0 < 1e-9


def test_area_invariant_under_reordering(rng):
    mesh = icosphere(2)
    a0 = surface_area(mesh)
    perm = rng.permutation(len(mesh.vertices))
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    shuffled = TriangleMesh(mesh.vertices[perm], inv[mesh.triangles])
    reordered = TriangleMesh(shuffled.vertices,
                             shuffled.triangles[rng.permutation(len(shuffled.triangles))])
    assert surface_area(reordered) == a0  # exact: same float terms, reordered sum
    assert volume(reordered) == pytest.approx(volume(mesh), rel=1e-12)


def test_measure_mesh_bundle():
    m = measure_mesh(unit_cube_mesh())
    assert (m.surface_area, m.volume) == (pytest.approx(6.0), pytest.approx(1.0))


@pytest.mark.parametrize("n_workers", [0, 2])
def test_blocks_give_the_one_shot_bits(rng, workers, monkeypatch, n_workers):
    """Seven triangles past one block: area and volume equal the whole-array formula bit for bit."""
    workers(n_workers)
    n = (1 << 16) + 7
    verts = rng.standard_normal((5000, 3)) * rng.uniform(0.01, 10.0, (5000, 1))
    mesh = TriangleMesh(verts, rng.integers(0, len(verts), (n, 3)))
    a, b, c = triangle_corners(mesh)
    norms = np.linalg.norm(np.cross(b - a, c - a), axis=1)
    signed = np.einsum("ij,ij->i", a, np.cross(b, c))

    # the written-out cross product and norm are numpy's, term by term
    assert metrology._per_triangle(mesh, metrology._double_area).tobytes() == norms.tobytes()
    assert surface_area(mesh) == 0.5 * math.fsum(norms)
    # a soup has no volume; the check is lifted to compare the sum's bits
    monkeypatch.setattr(metrology, "is_watertight", lambda m: (True, 0))
    assert volume(mesh) == abs(math.fsum(signed) / 6.0)
