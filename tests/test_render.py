import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_json_types_kept, assert_names_key_path, close_to_box_face,
                      json_mutants)
import tofscan.render as render_module
from tofscan.experiments import KNOWN_CYLINDER
from tofscan.geometry import DEPTH_SCALE, CameraIntrinsics, RigidTransform
from tofscan.render import (SensorModel, apply_interference, apply_tof_noise, box_rectangle,
                            observe_tags, render, rig_from_list, rig_to_list)
from tofscan.rigs import cattle_rig, known_object_rig, look_at
from tofscan.scene import (BOX_CORNERS, Scene, ScenePrimitive, box, capsule, cube_tag_layout,
                           cylinder, make_animal_model, make_known_object_scene,
                           superellipsoid)

INTR = CameraIntrinsics(fx=600, fy=600, cx=320, cy=240, width=640, height=480)
CAM = SensorModel(0, INTR, RigidTransform.identity())


def test_box_face_depth():
    # front face exactly at z = 2 m
    scene = Scene((box((0.5, 0.5, 0.05), pose=RigidTransform(np.eye(3), (0, 0, 2.05))),), 5.0)
    rr = render(scene, CAM)
    covered = rr.depth.data[rr.depth.data > 0]
    assert covered.size > 0
    assert np.all(covered == 2000)


def test_cylinder_center_column_depth():
    # radius 0.1, axis along x, centered at z = 1 -> nearest surface at 0.9
    pose = RigidTransform.from_axis_angle((0, 1, 0), np.pi / 2, (0, 0, 1.0))
    scene = Scene((cylinder(0.1, 1.0, pose=pose),), 5.0)
    rr = render(scene, CAM)
    assert rr.depth.data[240, 320] == 900


def test_empty_scene():
    rr = render(Scene((), 5.0), CAM)
    assert not rr.depth.data.any()
    assert rr.oracle_mask.count() == 0


def test_render_is_deterministic():
    scene = Scene((box((0.3, 0.2, 0.1), pose=RigidTransform.from_axis_angle(
        (1, 2, 3), 0.5, (0.1, 0, 1.5))),), 5.0)
    a = render(scene, CAM)
    b = render(scene, CAM)
    assert np.array_equal(a.depth.data, b.depth.data)
    assert np.array_equal(a.color.data, b.color.data)
    assert np.array_equal(a.oracle_mask.data, b.oracle_mask.data)


def test_mask_subset_of_valid_depth():
    scene = Scene((box((0.3, 0.2, 0.1), pose=RigidTransform(np.eye(3), (0, 0, 1.5))),
                   box((2.0, 2.0, 0.01), pose=RigidTransform(np.eye(3), (0, 0, 3.0)),
                       label="background")), 5.0)
    rr = render(scene, CAM)
    assert not (rr.oracle_mask.data & ~rr.depth.valid_mask()).any()


def test_mask_against_independent_march_oracle():
    """32x32 render vs a slow implicit-marching first-hit oracle."""
    intr = CameraIntrinsics(fx=40, fy=40, cx=15.5, cy=15.5, width=32, height=32)
    cam = SensorModel(0, intr, RigidTransform.identity())
    prims = (superellipsoid(0.25, 0.2, 0.15, 1.0, 1.0,
                            pose=RigidTransform.from_axis_angle((1, 0, 1), 0.4, (0.05, 0, 1.2))),
             box((0.35, 0.3, 0.02), pose=RigidTransform.from_axis_angle(
                 (0, 1, 0), 0.3, (-0.05, 0.05, 1.9)), label="background"))
    scene = Scene(prims, 5.0)
    rr = render(scene, cam)

    def march_first_hit(u, v):
        d = np.array([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, 1.0])
        best = (np.inf, None)
        for prim in scene.primitives:
            inv = prim.pose.invert()
            o = inv.apply(np.zeros(3))
            dl = inv.apply_direction(d)
            ts = np.linspace(1e-4, scene.background_cap, 4001)
            vals = prim.implicit_local(*(o[None] + ts[:, None] * dl[None]).T)
            sign_change = np.nonzero((vals[:-1] > 0) & (vals[1:] <= 0))[0]
            if len(sign_change) == 0:
                continue
            lo, hi = ts[sign_change[0]], ts[sign_change[0] + 1]
            for _ in range(50):
                mid = (lo + hi) / 2
                if prim.implicit_local(*(o + mid * dl)) <= 0:
                    hi = mid
                else:
                    lo = mid
            t = (lo + hi) / 2
            if t < best[0]:
                best = (t, prim.label)
        return best

    for v in range(32):
        for u in range(32):
            t, label = march_first_hit(u, v)
            expect_fg = label == "target" and t <= scene.background_cap
            assert bool(rr.oracle_mask.data[v, u]) == expect_fg, (u, v, t, label)


SMALL = CameraIntrinsics(fx=50, fy=50, cx=31.5, cy=23.5, width=64, height=48)
AT_ORIGIN = RigidTransform(np.eye(3), (0, 0, 0))


def _crossing_scene():
    """Two primitives whose bounding boxes reach behind the camera plane z = 0."""
    return Scene((box((0.05, 0.05, 2.0), pose=RigidTransform(np.eye(3), (0.3, 0.0, 0.5))),
                  superellipsoid(0.15, 0.15, 1.5, 0.8, 0.9,
                                 pose=RigidTransform.from_axis_angle((0, 1, 0), 0.2,
                                                                     (-0.3, 0.1, 0.6))),
                  box((2.0, 2.0, 0.01), pose=RigidTransform(np.eye(3), (0, 0, 3.0)),
                      label="background")), 5.0)


def _off_screen_scene():
    """A visible cylinder, a box wholly behind the camera and a box outside the view."""
    return Scene((cylinder(0.2, 0.5, pose=RigidTransform(np.eye(3), (0, 0, 1.5))),
                  box((0.3, 0.3, 0.3), pose=RigidTransform(np.eye(3), (0, 0, -2.0))),
                  capsule(0.1, 0.4, pose=RigidTransform(np.eye(3), (10.0, 0, 2.0)))), 5.0)


def _past_cap_scene():
    """A tilted 3 m box and a cylinder that reach past the background cap, and a box beyond it."""
    return Scene((box((0.15, 0.1, 1.5), pose=RigidTransform.from_axis_angle((0, 1, 0), 0.3,
                                                                            (0.1, 0, 2.5))),
                  cylinder(0.3, 1.0, pose=RigidTransform.from_axis_angle((1, 0, 0), 1.2,
                                                                         (-0.4, 0.2, 1.9))),
                  box((0.3, 0.3, 0.1), pose=RigidTransform(np.eye(3), (0, 0, 2.5)),
                      label="background")), 2.0)


CULLING_CASES = {
    "cattle": lambda: (make_animal_model(1.0), cattle_rig()[1]),
    "known_object": lambda: (make_known_object_scene(KNOWN_CYLINDER), known_object_rig()[0]),
    "crossing_camera_plane": lambda: (_crossing_scene(), SensorModel(0, SMALL, AT_ORIGIN)),
    "off_screen": lambda: (_off_screen_scene(), SensorModel(0, SMALL, AT_ORIGIN)),
    "close_to_box_face": close_to_box_face,
    "past_background_cap": lambda: (_past_cap_scene(), SensorModel(0, SMALL, AT_ORIGIN)),
}


def _rectangle(prim, sensor, far):
    """``box_rectangle`` of a primitive's local bounding box in the sensor's frame."""
    corners = sensor.pose.invert().apply(prim.pose.apply(BOX_CORNERS * prim.local_bounds()))
    return box_rectangle(corners, sensor.intrinsics, far)


def _every_ray_first_hits(scene, sensor):
    """(t, primitive index) of the first hit of every pixel ray on every primitive."""
    dirs = sensor.pose.apply_direction(render_module._pixel_rays(sensor.intrinsics))
    best_t = np.full(len(dirs), np.inf)
    best = np.full(len(dirs), -1)
    for i, prim in enumerate(scene.primitives):
        inv = prim.pose.invert()
        t = render_module._INTERSECTORS[prim.shape](prim, inv.apply(sensor.camera_center()),
                                                    inv.apply_direction(dirs))
        closer = t < best_t
        best_t[closer] = t[closer]
        best[closer] = i
    return best_t, best


class TestCulling:
    @pytest.mark.parametrize("case", list(CULLING_CASES))
    def test_culled_render_matches_every_ray(self, case, monkeypatch):
        scene, sensor = CULLING_CASES[case]()
        culled = render(scene, sensor)
        assert culled.depth.data.any()

        t, prim = _every_ray_first_hits(scene, sensor)
        hit = np.isfinite(t) & (t <= scene.background_cap)
        depth = np.round(np.where(hit, t, 0.0) / DEPTH_SCALE)
        target = np.array([p.label == "target" for p in scene.primitives] + [False])
        assert np.array_equal(culled.depth.data.ravel(), depth.astype(np.uint16))
        assert np.array_equal(culled.oracle_mask.data.ravel(), hit & target[prim])

        # colour: the same render with every pixel a candidate for every primitive
        monkeypatch.setattr(render_module, "box_rectangle",
                            lambda c, i, far: (0, i.width - 1, 0, i.height - 1))
        every = render(scene, sensor)
        assert culled.depth.data.tobytes() == every.depth.data.tobytes()
        assert culled.color.data.tobytes() == every.color.data.tobytes()
        assert culled.oracle_mask.data.tobytes() == every.oracle_mask.data.tobytes()

    def test_candidate_sets_of_the_cases(self):
        def sizes(case):
            scene, sensor = CULLING_CASES[case]()
            rects = [_rectangle(p, sensor, scene.background_cap) for p in scene.primitives]
            return [0 if r is None else (r[1] - r[0] + 1) * (r[3] - r[2] + 1) for r in rects]

        n = SMALL.width * SMALL.height
        crossing = sizes("crossing_camera_plane")[:2]  # clipped to the camera's near side
        assert 0 < min(crossing) and max(crossing) < n
        assert sizes("off_screen")[1:] == [0, 0]
        cattle = sizes("cattle")
        assert 0 < min(cattle) and max(cattle) < 384 * 288
        assert max(sizes("known_object")) < 320 * 240  # the ground slab reaches behind
        assert sizes("close_to_box_face") == [320 * 240]  # the near-plane section fills the view
        past_cap = sizes("past_background_cap")  # clipped to the near side of the cap
        assert 0 < min(past_cap[:2]) and max(past_cap[:2]) < n and past_cap[2] == 0

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(half=st.tuples(*[st.floats(0.02, 1.5)] * 3),
           turn=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), st.floats(0, 3)),
           toward=st.tuples(st.floats(0, np.pi), st.floats(0, 2 * np.pi)),
           distance=st.floats(0.05, 4.0), aim=st.tuples(*[st.floats(-2, 2)] * 3),
           cap=st.floats(0.5, 5.0))
    def test_rectangle_holds_every_return(self, half, turn, toward, distance, aim, cap):
        """Each pixel with a return lies in the rectangle, and None means no return.

        The sensor sits 0.05-4 m from the box centre, aimed at a point up to 2 m
        off it: the box lies in front of, beside, partly behind or around it.
        """
        axis = turn[:3] if np.linalg.norm(turn[:3]) > 1e-3 else (0, 0, 1)
        scene = Scene((box(half, pose=RigidTransform.from_axis_angle(axis, turn[3])),), cap)
        theta, phi = toward
        eye = distance * np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                                   np.cos(theta)])
        if np.linalg.norm(eye - aim) < 1e-3:
            aim = eye + (0, 0, 1)
        sensor = SensorModel(0, SMALL, look_at(eye, aim))
        t, _ = _every_ray_first_hits(scene, sensor)
        v, u = np.nonzero((np.isfinite(t) & (t <= cap)).reshape(SMALL.height, SMALL.width))
        rect = _rectangle(scene.primitives[0], sensor, cap)
        if rect is None:
            assert not len(u)
        else:
            u0, u1, v0, v1 = rect
            assert np.all((u0 <= u) & (u <= u1) & (v0 <= v) & (v <= v1)), rect


# the two superellipsoids of the animal, and the extreme exponents on the body's sizes
MARCH_PRIMS = {
    "body": superellipsoid(0.95, 0.36, 0.46, 0.7, 0.9),
    "head": superellipsoid(0.24, 0.14, 0.17, 1.0, 1.0),
    "boxy": superellipsoid(0.95, 0.36, 0.46, 0.1, 2.0),
    "diamond": superellipsoid(0.95, 0.36, 0.46, 2.0, 2.0),
}
# local-frame eyes, each aimed at a point near the centre
MARCH_VIEWS = (((2.5, 1.7, 0.8), (0, 0, 0)), ((0.3, -2.0, -0.1), (0.1, 0, 0.05)),
               ((-0.2, 0.1, 2.5), (0, 0, 0)), ((3.0, 0.0, 0.0), (0, 0, 0)))


def _ray_grid(eye, at, n=64, half_width=0.45):
    """An n x n grid of (x, y, 1) camera rays at ``eye``, aimed at ``at``, in the local frame."""
    u = np.linspace(-half_width, half_width, n)
    uu, vv = np.meshgrid(u, u)
    d = np.stack([uu.ravel(), vv.ravel(), np.ones(n * n)], axis=1)
    return np.asarray(eye, dtype=np.float64), look_at(eye, at).apply_direction(d)


def _box_rays(prim, o, d):
    """Indices of the rays that meet the primitive's box in front of the origin."""
    t_near, t_far = render_module._slab_interval(o, d, prim.local_bounds())
    return np.nonzero((t_near <= t_far) & (t_far > 1e-6))[0]


def _reference_march(prim, o, d):
    """Every one of the 64 steps across the box, the first crossing, then 25 halvings."""
    t_near, t_far = render_module._slab_interval(o, d, prim.local_bounds())
    idx = _box_rays(prim, o, d)
    t0 = np.maximum(t_near[idx], 1e-6)
    ts = t0[:, None] + (t_far[idx] - t0)[:, None] * (np.arange(65) / 64)
    f = prim.implicit_local(*(o + ts[..., None] * d[idx, None]).transpose(2, 0, 1))
    cross = (f[:, :-1] > 0) & (f[:, 1:] <= 0)
    rows = np.nonzero(cross.any(axis=1))[0]
    k = cross[rows].argmax(axis=1)
    lo, hi = ts[rows, k], ts[rows, k + 1]
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        inside = prim.implicit_local(*(o + mid[:, None] * d[idx[rows]]).T) <= 0
        lo, hi = np.where(inside, lo, mid), np.where(inside, mid, hi)
    t = np.full(len(d), np.inf)
    t[idx[rows]] = 0.5 * (lo + hi)
    return t


def _evaluations(prim, o, d, monkeypatch):
    """Points at which intersecting each ray alone evaluates ``implicit_local``."""
    count = [0]
    evaluate = ScenePrimitive.implicit_local

    def counted(self, x, y, z):
        count[0] += np.size(x)
        return evaluate(self, x, y, z)

    monkeypatch.setattr(ScenePrimitive, "implicit_local", counted)
    costs = []
    for r in range(len(d)):
        count[0] = 0
        render_module._intersect_superellipsoid(prim, o, d[r:r + 1])
        costs.append(count[0])
    return np.array(costs)


class TestSuperellipsoidMarch:
    @pytest.mark.parametrize("name", list(MARCH_PRIMS))
    def test_matches_the_full_march(self, name):
        """The same rays hit as with every step and halving, each within 1e-9 m."""
        prim = MARCH_PRIMS[name]
        for eye, at in MARCH_VIEWS:
            o, d = _ray_grid(eye, at)
            want = _reference_march(prim, o, d)
            got = render_module._intersect_superellipsoid(prim, o, d)
            hit = np.isfinite(want)
            assert 0 < hit.sum() < len(_box_rays(prim, o, d))  # hits and box-crossing misses
            assert np.array_equal(np.isfinite(got), hit)
            assert np.abs(got[hit] - want[hit]).max() <= 1e-9

    @pytest.mark.parametrize("name", ["body", "head"])
    def test_a_miss_through_the_box_costs_at_most_12_evaluations(self, name, monkeypatch):
        prim = MARCH_PRIMS[name]
        for eye, at in MARCH_VIEWS:
            o, d = _ray_grid(eye, at, n=32)
            miss = np.setdiff1d(_box_rays(prim, o, d),
                                np.nonzero(np.isfinite(_reference_march(prim, o, d)))[0])
            costs = _evaluations(prim, o, d[miss], monkeypatch)
            assert len(costs) and costs.max() <= 12

    def test_a_ray_that_starts_inside_costs_one_evaluation(self, monkeypatch):
        prim = MARCH_PRIMS["body"]
        o, d = _ray_grid((0.2, -0.1, 0.1), (1.0, 0.3, 0.2), n=8, half_width=2.0)
        assert prim.implicit_local(*o) < 0
        assert np.isinf(render_module._intersect_superellipsoid(prim, o, d)).all()
        assert (_evaluations(prim, o, d, monkeypatch) == 1).all()


class TestNoise:
    def test_zero_noise_identity(self):
        scene = Scene((box((0.4, 0.4, 0.05), pose=RigidTransform(np.eye(3), (0, 0, 1.5))),), 5.0)
        rr = render(scene, CAM)
        quiet = SensorModel(0, INTR, RigidTransform.identity(), sigma0=0.0, sigma1=0.0)
        out = apply_tof_noise(rr.depth, quiet, seed=5)
        assert np.array_equal(out.data, rr.depth.data)

    def test_noise_std_matches_sigma(self):
        # 1e5 samples at z = 1 m with sigma0 = 2 mm
        from tofscan.geometry import DepthImage
        sensor = SensorModel(0, INTR, RigidTransform.identity(), sigma0=0.002, sigma1=0.0)
        data = np.full((250, 400), 1000, np.uint16)
        out = apply_tof_noise(DepthImage(data), sensor, seed=11)
        std = (out.data.astype(float)[out.data > 0] * 0.001).std()
        assert 0.0019 <= std <= 0.0021

    def test_invalid_pixels_stay_invalid(self, rng):
        from tofscan.geometry import DepthImage
        data = (rng.random((100, 100)) < 0.5).astype(np.uint16) * 2000
        sensor = SensorModel(0, INTR, RigidTransform.identity(), sigma0=0.01)
        out = apply_tof_noise(DepthImage(data), sensor, seed=2)
        assert not out.data[data == 0].any()

    def test_deterministic_per_seed(self):
        from tofscan.geometry import DepthImage
        data = np.full((50, 50), 1200, np.uint16)
        sensor = SensorModel(0, INTR, RigidTransform.identity(), sigma0=0.005)
        a = apply_tof_noise(DepthImage(data), sensor, seed=7)
        b = apply_tof_noise(DepthImage(data), sensor, seed=7)
        c = apply_tof_noise(DepthImage(data), sensor, seed=8)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)


class TestInterference:
    def _depth(self, rng=None):
        from tofscan.geometry import DepthImage
        data = np.full((250, 400), 1500, np.uint16)
        if rng is not None:
            data[rng.random((250, 400)) < 0.3] = 0
        return DepthImage(data)

    def test_zero_interferers_identity(self):
        d = self._depth()
        out = apply_interference(d, 0, seed=1)
        assert np.array_equal(out.data, d.data)

    def test_corrupted_fraction_matches_binomial(self):
        # 1e5 pixels, p_int = 0.45, 3 interferers -> 1 - 0.55^3 = 0.833625
        d = self._depth()
        out = apply_interference(d, 3, seed=3)
        frac = (out.data != d.data).mean()
        assert abs(frac - 0.833625) < 0.01

    def test_never_revives_invalid_pixels(self, rng):
        d = self._depth(rng)
        out = apply_interference(d, 5, seed=4)
        assert not out.data[d.data == 0].any()

    def test_spurious_mix(self):
        d = self._depth()
        out = apply_interference(d, 4, seed=5, cap_m=5.0)
        corrupted = out.data != d.data
        zeroed = corrupted & (out.data == 0)
        spurious = corrupted & (out.data > 0)
        assert abs(zeroed.sum() / corrupted.sum() - 0.7) < 0.02
        sp = out.data[spurious] * 0.001
        assert sp.min() >= 0.3 - 1e-9 and sp.max() <= 5.0 + 1e-9

    def test_dims_preserved_and_deterministic(self):
        d = self._depth()
        a = apply_interference(d, 2, seed=9)
        b = apply_interference(d, 2, seed=9)
        assert a.data.shape == d.data.shape
        assert np.array_equal(a.data, b.data)


class TestObserveTags:
    def test_only_facing_tag_visible_head_on(self):
        layout = cube_tag_layout(0.4, 1)
        cube_pose = RigidTransform(np.eye(3), (0, 0, 1.5))
        cam = SensorModel(0, INTR, RigidTransform.identity())
        seen = observe_tags(layout, cube_pose, cam)
        # camera looks down +z at the cube: only the cube's -z face points back
        assert len(seen) == 1
        corners = next(iter(seen.values()))
        assert np.all(corners[:, 2] > 0)
        np.testing.assert_allclose(corners[:, 2], 1.5 - 0.2, atol=1e-12)

    def test_corners_are_exact_geometry(self):
        layout = cube_tag_layout(0.4, 1)
        cube_pose = RigidTransform.from_axis_angle((0, 1, 0), 0.3, (0.1, 0, 1.5))
        cam = SensorModel(0, INTR, RigidTransform.identity())
        seen = observe_tags(layout, cube_pose, cam)
        for t, corners in seen.items():
            np.testing.assert_allclose(corners, cube_pose.apply(layout[t]), atol=1e-12)


class TestRigFile:
    SENSOR = SensorModel(3, INTR, RigidTransform.from_axis_angle((0, 0, 1), 0.2, (1, 2, 3)),
                         sigma0=0.001, sigma1=0.0004)

    def test_seed_key_is_ignored(self):
        doc = rig_to_list([self.SENSOR])
        doc[0]["seed"] = 17
        assert rig_to_list(rig_from_list(doc)) == rig_to_list([self.SENSOR])

    def test_nonzero_dropout_is_rejected(self):
        doc = rig_to_list([self.SENSOR])
        doc[0]["dropout"] = 0.0
        assert rig_to_list(rig_from_list(doc)) == rig_to_list([self.SENSOR])
        doc[0]["dropout"] = 0.1
        with pytest.raises(ValueError, match="dropout"):
            rig_from_list(doc)

    @pytest.mark.parametrize("key, value, named", [
        ("width", 320.9, "rig[0].intrinsics.width: expected integer, got float"),
        ("fy", True, "rig[0].intrinsics.fy: expected number, got bool"),
        ("translation", ["0.5", 0, 0], "rig[0].pose.translation[0]: expected number, got str"),
        ("depth_scale", 0.002, "rig[0].intrinsics.depth_scale: only 0.001 is modelled"),
    ], ids=["width-float", "fy-bool", "translation-string", "depth-scale-other"])
    def test_mistyped_value_is_named_by_key_path(self, key, value, named):
        doc = rig_to_list([self.SENSOR])
        doc[0]["pose" if key == "translation" else "intrinsics"][key] = value
        with pytest.raises(ValueError, match=re.escape(named)):
            rig_from_list(doc)

    def test_depth_scale_is_not_written_and_its_one_value_is_read(self):
        doc = rig_to_list([self.SENSOR])
        assert "depth_scale" not in doc[0]["intrinsics"]
        doc[0]["intrinsics"]["depth_scale"] = DEPTH_SCALE
        assert rig_to_list(rig_from_list(doc)) == rig_to_list([self.SENSOR])

    DOC = [{**rig_to_list([SENSOR])[0], "seed": 17, "dropout": 0.0},
           {**rig_to_list([CAM])[0], "sigma1": 0.0}]

    @settings(max_examples=300)
    @given(json_mutants(DOC))
    def test_mutated_rig_is_read_or_names_a_key_path(self, mutation):
        at, doc = mutation
        try:
            rig = rig_from_list(doc)
        except ValueError as e:
            assert_names_key_path(str(e), "rig", at)
        else:  # a valid rig: it writes a file that reads back the same
            again = json.loads(json.dumps(rig_to_list(rig)))
            assert rig_to_list(rig_from_list(again)) == rig_to_list(rig)
            assert_json_types_kept(self.DOC, doc, again)
