import json
import re

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import assert_json_types_kept, assert_names_key_path, json_mutants
from tofscan.geometry import RigidTransform
from tofscan.scene import (Scene, ScenePrimitive, box, capsule, cube_tag_layout, cylinder,
                           load_scene, make_animal_model, make_known_object_scene, save_scene,
                           scene_from_dict, scene_to_dict, superellipsoid)

# a textured target over an untextured ground: every key a scene file can hold
TEXTURED = make_known_object_scene(
    cylinder(0.1, 0.3, pose=RigidTransform.from_axis_angle((1, 0, 0), 0.4, (0, 0, 0.5)),
             albedo=(0.6, 0.5, 0.4),
             texture={"kind": "patches", "scale": 0.05, "color2": [0.9, 0.9, 0.88]}))



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
        d = b.sdf_local(*pts.T)
        np.testing.assert_allclose(d, [-0.5, 0.0, 1.0, np.hypot(0.5, 0.5)], atol=1e-12)

    def test_cylinder_sdf_exact(self):
        c = cylinder(0.2, 1.0)
        pts = np.array([[0, 0, 0], [0.5, 0, 0], [0, 0, 0.8], [0.2, 0, 0.5]])
        np.testing.assert_allclose(c.sdf_local(*pts.T), [-0.2, 0.3, 0.3, 0.0], atol=1e-12)

    def test_capsule_sdf_exact(self):
        c = capsule(0.1, 0.6)
        pts = np.array([[0, 0, 0], [0, 0, 0.45], [0.3, 0, 0]])
        np.testing.assert_allclose(c.sdf_local(*pts.T), [-0.1, 0.05, 0.2], atol=1e-12)

    def test_superellipsoid_reduces_to_ellipsoid(self):
        e = superellipsoid(0.3, 0.2, 0.1, 1.0, 1.0)
        # on-surface points have zero implicit value
        assert abs(e.implicit_local(0.3, 0.0, 0.0)) < 1e-12
        assert abs(e.implicit_local(0.0, 0.2, 0.0)) < 1e-12
        # sdf is approximately distance near the surface
        d = e.sdf_local(np.array([0.31, 0.29]), 0.0, 0.0)
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

    @pytest.mark.parametrize("where, value, named", [
        (("texture", "scale"), "big", "scene.primitives[0].texture.scale: expected number, got str"),
        (("texture", "color2"), [0.9, "0.9", 0.9],
         "scene.primitives[0].texture.color2[1]: expected number, got str"),
        (("pose", "translation"), ["0.5", 0, 0],
         "scene.primitives[0].pose.translation[0]: expected number, got str"),
        (("albedo", slice(None)), [0.6, 0.5], "scene.primitives[0]: albedo takes 3 values"),
        (("texture", "color2"), [0.9, 0.9], "scene.primitives[0]: texture color2 takes 3 values"),
        (("texture", "scale"), 0, "scene.primitives[0]: texture scale must be positive: 0"),
        (("texture", "scale"), -0.1, "scene.primitives[0]: texture scale must be positive: -0.1"),
    ], ids=["texture-scale-string", "texture-color2-string", "translation-string",
            "albedo-2-values", "texture-color2-2-values", "texture-scale-0",
            "texture-scale-negative"])
    def test_mistyped_value_is_named_by_key_path(self, where, value, named):
        """Refused when the scene is read, not at a device server's first TRIGGER."""
        doc = scene_to_dict(TEXTURED)
        doc["primitives"][0][where[0]][where[1]] = value
        with pytest.raises(ValueError, match=re.escape(named)):
            scene_from_dict(doc)

    def test_editing_the_document_leaves_the_scene_unchanged(self):
        before = json.dumps(scene_to_dict(TEXTURED))
        doc = scene_to_dict(TEXTURED)
        doc["primitives"][0]["texture"]["scale"] = "big"
        doc["primitives"][0]["texture"]["color2"][0] = "0.9"
        assert json.dumps(scene_to_dict(TEXTURED)) == before

    @settings(max_examples=300)
    @given(json_mutants(scene_to_dict(TEXTURED)))
    def test_mutated_scene_is_read_or_names_a_key_path(self, mutation):
        at, doc = mutation
        try:
            scene = scene_from_dict(doc)
        except ValueError as e:
            assert_names_key_path(str(e), "scene", at)
        else:  # a valid scene: it writes a file that reads back the same
            again = json.loads(json.dumps(scene_to_dict(scene)))
            assert scene_to_dict(scene_from_dict(again)) == scene_to_dict(scene)
            assert_json_types_kept(scene_to_dict(TEXTURED), doc, again)
