import math

import numpy as np
import pytest

from tofscan.oracle import (OracleUnreliableError, closed_form_measurements, oracle_mesh,
                            oracle_measurements)
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
    from tofscan.geometry import RigidTransform
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


@pytest.mark.slow
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
