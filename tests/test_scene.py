import json

import numpy as np
import pytest

from tofscan.geometry import RigidTransform
from tofscan.scene import (Scene, ScenePrimitive, box, capsule, cube_tag_layout, cylinder,
                           load_scene, make_animal_model, make_known_object_scene, save_scene,
                           scene_from_dict, scene_to_dict, superellipsoid)


class TestPrimitives:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            box((0.1, -0.1, 0.1))
        with pytest.raises(ValueError):
            superellipsoid(1, 1, 1, 0.5, 2.5)
        with pytest.raises(ValueError):
            ScenePrimitive("cone", (1.0,))

    def test_box_sdf_exact(self):
        b = box((0.5, 0.5, 0.5))
        pts = np.array([[0, 0, 0], [0.5, 0, 0], [1.5, 0, 0], [1.0, 1.0, 0.5]])
        d = b.sdf_local(pts)
        np.testing.assert_allclose(d, [-0.5, 0.0, 1.0, np.hypot(0.5, 0.5)], atol=1e-12)

    def test_cylinder_sdf_exact(self):
        c = cylinder(0.2, 1.0)
        pts = np.array([[0, 0, 0], [0.5, 0, 0], [0, 0, 0.8], [0.2, 0, 0.5]])
        np.testing.assert_allclose(c.sdf_local(pts), [-0.2, 0.3, 0.3, 0.0], atol=1e-12)

    def test_capsule_sdf_exact(self):
        c = capsule(0.1, 0.6)
        pts = np.array([[0, 0, 0], [0, 0, 0.45], [0.3, 0, 0]])
        np.testing.assert_allclose(c.sdf_local(pts), [-0.1, 0.05, 0.2], atol=1e-12)

    def test_superellipsoid_reduces_to_ellipsoid(self):
        e = superellipsoid(0.3, 0.2, 0.1, 1.0, 1.0)
        # on-surface points have zero implicit value
        assert abs(e.implicit_local(np.array([0.3, 0, 0]))) < 1e-12
        assert abs(e.implicit_local(np.array([0, 0.2, 0]))) < 1e-12
        # sdf is approximately distance near the surface
        d = e.sdf_local(np.array([[0.31, 0, 0], [0.29, 0, 0]]))
        np.testing.assert_allclose(d, [0.01, -0.01], atol=2e-3)

    def test_world_bounds_cover_posed_primitive(self, rng):
        pose = RigidTransform.from_axis_angle((1, 1, 0), 0.7, (1, 2, 3))
        b = box((0.2, 0.3, 0.4), pose=pose)
        lo, hi = b.world_bounds()
        corners = pose.apply(np.array([[sx * 0.2, sy * 0.3, sz * 0.4]
                                       for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]))
        assert np.all(corners >= lo - 1e-12) and np.all(corners <= hi + 1e-12)


class TestCalibrationCube:
    def test_single_tag_per_face_layout(self):
        layout = cube_tag_layout(0.5, 1)
        assert len(layout) == 6
        corners = np.vstack(list(layout.values()))
        assert corners.shape == (24, 3)
        assert abs(np.abs(corners).max() - 0.25) < 1e-12
        # every corner lies exactly on a face plane
        on_face = (np.abs(np.abs(corners) - 0.25) < 1e-12).any(axis=1)
        assert on_face.all()

    def test_corner_distances_equal_tag_side(self):
        layout = cube_tag_layout(0.5, 1)
        for corners in layout.values():
            d = [np.linalg.norm(corners[(i + 1) % 4] - corners[i]) for i in range(4)]
            np.testing.assert_allclose(d, d[0])
            diag = np.linalg.norm(corners[2] - corners[0])
            assert abs(diag - d[0] * np.sqrt(2)) < 1e-12

    def test_layout_is_deterministic(self):
        a = cube_tag_layout(0.37, 3)
        b = cube_tag_layout(0.37, 3)
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_multi_tag_count(self):
        layout = cube_tag_layout(0.5, 4)
        assert len(layout) == 24

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            cube_tag_layout(0.0, 1)
        with pytest.raises(ValueError):
            cube_tag_layout(0.5, 0)


class TestAnimal:
    def test_bounding_box_length(self):
        lo, hi = make_animal_model(1.0).target_bounds()
        assert 2.2 <= hi[0] - lo[0] <= 2.6

    def test_chute_walls_present_and_labeled(self):
        scene = make_animal_model(1.0)
        chute = scene.labeled("chute")
        assert len(chute) == 2
        assert all(p.shape == "box" for p in chute)

    def test_scale_scales_bbox(self):
        lo1, hi1 = make_animal_model(1.0).target_bounds()
        lo2, hi2 = make_animal_model(2.0).target_bounds()
        np.testing.assert_allclose(hi2 - lo2, 2 * (hi1 - lo1), rtol=1e-9)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            make_animal_model(0.0)


class TestSceneIO:
    def test_round_trip(self, tmp_path):
        scene = make_animal_model(1.3)
        path = tmp_path / "scene.json"
        save_scene(path, scene)
        out = load_scene(path)
        assert len(out.primitives) == len(scene.primitives)
        for a, b in zip(out.primitives, scene.primitives):
            assert a.shape == b.shape and a.label == b.label
            np.testing.assert_allclose(a.params, b.params)
            np.testing.assert_allclose(a.pose.matrix(), b.pose.matrix())
            assert a.texture == b.texture
        assert out.background_cap == scene.background_cap

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "scene.json"
        save_scene(path, make_known_object_scene(box((0.1, 0.1, 0.1))))
        doc = json.loads(path.read_text())
        assert {p["label"] for p in doc["primitives"]} == {"target", "background"}

    def test_target_bounds_requires_target(self):
        with pytest.raises(ValueError, match="target"):
            Scene((box((1, 1, 1), label="background"),)).target_bounds()

    @pytest.mark.parametrize("texture", [{"kind": "tag_cube", "edge": 0.5, "tags_per_face": 4},
                                         {"kind": "checker3d"}, {"scale": 0.1}, "patches"])
    def test_unknown_texture_kind_rejected_on_load(self, texture):
        """A scene file fails when it is read, not in the first render of a device server."""
        doc = scene_to_dict(make_known_object_scene(box((0.1, 0.1, 0.1))))
        doc["primitives"][0]["texture"] = texture
        with pytest.raises(ValueError, match="texture kind"):
            scene_from_dict(doc)
