import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tofscan import marching, parallel
from tofscan.geometry import RigidTransform
from tofscan.oracle import (OracleUnreliableError, _union_sampler, closed_form_measurements,
                            oracle_mesh, oracle_measurements)
from tofscan.reconstruction import euler_characteristic, is_watertight
from tofscan.scene import Scene, box, capsule, cylinder, make_animal_model, superellipsoid


def test_box_closed_form():
    m = closed_form_measurements(box((0.15, 0.2, 0.25)))
    assert m.surface_area == pytest.approx(0.94)
    assert m.volume == pytest.approx(0.06)


def test_cylinder_closed_form():
    m = closed_form_measurements(cylinder(0.1, 0.3))
    assert m.surface_area == pytest.approx(0.251327, abs=1e-6)
    assert m.volume == pytest.approx(0.00942478, abs=1e-8)


def test_capsule_closed_form():
    m = closed_form_measurements(capsule(0.1, 0.5))
    assert m.surface_area == pytest.approx(2 * math.pi * 0.05 + 4 * math.pi * 0.01)
    assert m.volume == pytest.approx(math.pi * 0.005 + 4 / 3 * math.pi * 1e-3)


def test_oracle_measurements_uses_closed_form_for_primitives():
    assert oracle_measurements(box((0.15, 0.2, 0.25))).surface_area == pytest.approx(0.94)


def test_voxelization_matches_closed_form():
    """Fixed-spacing voxelization of a posed cylinder vs its closed form.

    Sharp rims converge only linearly (the marching-cubes chamfer), so this
    checks the machinery at ~1% rather than through the refinement gate, which
    is meant for the smooth composite bodies.
    """
    from tofscan.metrology import surface_area, volume
    prim = cylinder(0.08, 0.25, pose=RigidTransform.from_axis_angle((1, 0, 0), 0.4, (0, 0, 0.5)))
    mesh = oracle_mesh(Scene((prim,)), spacing=0.002)
    ref = closed_form_measurements(prim)
    assert abs(surface_area(mesh) - ref.surface_area) / ref.surface_area < 0.01
    assert abs(volume(mesh) - ref.volume) / ref.volume < 0.01


def test_oracle_mesh_is_watertight_genus0():
    scene = Scene((superellipsoid(0.2, 0.15, 0.1, 0.8, 1.2),))
    mesh = oracle_mesh(scene, spacing=0.004)
    assert is_watertight(mesh) == (True, 0)
    assert euler_characteristic(mesh) == 2


def _overlap_scene():
    return Scene((superellipsoid(0.12, 0.08, 0.07, 0.8, 1.2,
                                 pose=RigidTransform.from_axis_angle((0, 1, 1), 0.5, (0.0, 0.0, 0.0))),
                  capsule(0.04, 0.2, pose=RigidTransform.from_axis_angle((1, 0, 0), 1.1,
                                                                       (0.09, 0.02, 0.05)))))


def test_union_sampler_slabs_weld_exactly(monkeypatch):
    """Streaming in 3+ slabs gives the whole-grid vertices and triangles, in the same order."""
    from tofscan.marching import marching_cubes_grid, marching_cubes_stream
    origin, shape, sample = _union_sampler(_overlap_scene(), 0.006)
    whole = marching_cubes_grid(sample(0, shape[0]), origin, 0.006)
    plane = shape[1] * shape[2] * (parallel.WORKERS + 1)
    monkeypatch.setattr(marching, "_MAX_SLAB_NODES", plane * (shape[0] // 4))
    slabs = marching_cubes_stream(sample, origin, 0.006, shape)
    assert shape[0] // 4 >= 2 and len(whole[1]) > 0
    assert np.array_equal(whole[0], slabs[0])
    assert np.array_equal(whole[1], slabs[1])


def test_union_sampler_stream_is_identical_across_worker_counts(workers, monkeypatch):
    """The streamed mesh has the same bytes at 0, 1 and 3 workers (8, 4 and 2 planes a slab)."""
    from tofscan.marching import marching_cubes_stream
    origin, shape, sample = _union_sampler(_overlap_scene(), 0.006)
    monkeypatch.setattr(marching, "_MAX_SLAB_NODES", shape[1] * shape[2] * 8)
    meshes = []
    for n in (0, 1, 3):
        workers(n)
        verts, tris = marching_cubes_stream(sample, origin, 0.006, shape)
        meshes.append((verts.tobytes(), tris.tobytes(), tris.shape))
    assert len(meshes[0][1]) > 0
    assert meshes[1] == meshes[0] and meshes[2] == meshes[0]


def test_union_sampler_mesh_matches_dense_union_sdf():
    """Sign-only nodes away from the surface leave the mesh of the exact union unchanged."""
    from tofscan.marching import marching_cubes_grid, marching_cubes_stream
    scene = _overlap_scene()
    origin, shape, sample = _union_sampler(scene, 0.006)
    verts, tris = marching_cubes_stream(sample, origin, 0.006, shape)
    axes = [origin[a] + 0.006 * np.arange(shape[a]) for a in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    dense = -np.min([prim.sdf(pts) for prim in scene.primitives], axis=0).reshape(shape)
    ref_verts, ref_tris = marching_cubes_grid(dense, origin, 0.006)
    assert np.array_equal(tris, ref_tris)
    assert np.abs(verts - ref_verts).max() <= 1e-12


def _node_by_node_inside(scene, origin, shape, spacing, i0, i1):
    """Union of ``implicit_local < 0`` over the target primitives at the nodes [i0:i1]."""
    axes = [origin[a] + spacing * np.arange(shape[a]) for a in range(3)]
    axes[0] = axes[0][i0:i1]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    inside = np.zeros(len(pts), dtype=bool)
    for prim in scene.labeled("target"):
        inside |= prim.implicit_local(*prim.to_local(pts).T) < 0
    return inside.reshape(i1 - i0, shape[1], shape[2])


# a leg's rotation: it maps each grid axis onto a local axis, with a sign
_LEG_ROTATION = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("rotation", [np.eye(3), _LEG_ROTATION],
                         ids=["identity", "signed-permutation"])
@pytest.mark.parametrize("prim", [box((0.1, 0.07, 0.05)), cylinder(0.06, 0.2),
                                  capsule(0.05, 0.12), superellipsoid(0.12, 0.08, 0.07, 0.8, 1.2)],
                         ids=lambda prim: prim.shape)
def test_union_sampler_signs_match_node_by_node_evaluation(prim, rotation):
    """Per-axis local coordinates give every node the sign of the (N, 3) transform's value."""
    scene = Scene((replace(prim, pose=RigidTransform(rotation, (0.013, -0.021, 0.407))),))
    origin, shape, sample = _union_sampler(scene, 0.005)
    half = shape[0] // 2
    for i0, i1 in ((0, half), (half, shape[0])):
        inside = _node_by_node_inside(scene, origin, shape, 0.005, i0, i1)
        assert inside.any() and not inside.all()
        assert np.array_equal(sample(i0, i1) > 0, inside)


def test_union_sampler_signs_match_node_by_node_evaluation_for_the_animal():
    scene = make_animal_model(1.0)
    origin, shape, sample = _union_sampler(scene, 0.008)
    for i0 in range(0, shape[0], 64):
        i1 = min(i0 + 64, shape[0])
        inside = _node_by_node_inside(scene, origin, shape, 0.008, i0, i1)
        assert np.array_equal(sample(i0, i1) > 0, inside)


def test_union_sampler_slab_memory_is_bounded():
    """One 40-plane slab of the 4 mm animal grid peaks at 32 traced bytes a node or less."""
    origin, shape, sample = _union_sampler(make_animal_model(1.0), 0.004)
    i0 = shape[0] // 2 - 20
    tracemalloc.start()
    try:
        sample(i0, i0 + 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (shape[1] * shape[2] * 40) <= 32


def test_animal_scale_doubling():
    """Volume scales by 8 and area by 4 within 0.5% (resolution-relative spacing)."""
    m1 = oracle_measurements(make_animal_model(1.0), spacing=0.005)
    m2 = oracle_measurements(make_animal_model(2.0), spacing=0.010)
    assert abs(m2.volume / m1.volume - 8.0) / 8.0 < 0.005
    assert abs(m2.surface_area / m1.surface_area - 4.0) / 4.0 < 0.005


def test_unconverged_refinement_raises():
    # a solid only a few cells wide changes hard between grid levels
    small = Scene((superellipsoid(0.012, 0.012, 0.012, 1.0, 1.0),))
    with pytest.raises(OracleUnreliableError):
        oracle_measurements(small, spacing=0.004)


def test_rejects_unknown_input():
    with pytest.raises(TypeError):
        oracle_measurements(42)


def test_divergence_volume_vs_voxel_count_bound():
    """Mesh volume agrees with inside-voxel counting within the surface-cell bound."""
    from tofscan.marching import marching_cubes_grid
    from tofscan.metrology import volume
    from tofscan.reconstruction import TriangleMesh

    n = 56
    xs = np.linspace(-1, 1, n)
    x, y, z = np.meshgrid(xs, xs, xs, indexing="ij")
    h = 2 / (n - 1)
    for field in (0.62 - np.sqrt(x * x + y * y + z * z),                  # sphere
                  np.minimum.reduce([0.55 - abs(x), 0.5 - abs(y), 0.45 - abs(z)])):  # box
        verts, tris = marching_cubes_grid(field, (-1, -1, -1), h)
        mesh_volume = volume(TriangleMesh(verts, tris))
        inside = field > 0
        cells = inside[:-1, :-1, :-1] & inside[1:, :-1, :-1] & inside[:-1, 1:, :-1] \
            & inside[:-1, :-1, 1:] & inside[1:, 1:, :-1] & inside[1:, :-1, 1:] \
            & inside[:-1, 1:, 1:] & inside[1:, 1:, 1:]
        any_in = inside[:-1, :-1, :-1] | inside[1:, :-1, :-1] | inside[:-1, 1:, :-1] \
            | inside[:-1, :-1, 1:] | inside[1:, 1:, :-1] | inside[1:, :-1, 1:] \
            | inside[:-1, 1:, 1:] | inside[1:, 1:, 1:]
        surface_cells = int((any_in & ~cells).sum())
        voxel_vol = float(cells.sum()) * h ** 3
        assert abs(mesh_volume - voxel_vol) <= 2 * h ** 3 * surface_cells
