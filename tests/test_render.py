import numpy as np
import pytest

from tofscan.geometry import CameraIntrinsics, RigidTransform
from tofscan.render import (SensorModel, apply_interference, apply_tof_noise, observe_tags, render,
                            rig_from_list, rig_to_list)
from tofscan.scene import Scene, box, cube_tag_layout, cylinder, superellipsoid

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
    assert not (rr.oracle_mask.foreground() & ~rr.depth.valid_mask()).any()


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
            vals = prim.implicit_local(o[None] + ts[:, None] * dl[None])
            sign_change = np.nonzero((vals[:-1] > 0) & (vals[1:] <= 0))[0]
            if len(sign_change) == 0:
                continue
            lo, hi = ts[sign_change[0]], ts[sign_change[0] + 1]
            for _ in range(50):
                mid = (lo + hi) / 2
                if prim.implicit_local(o + mid * dl) <= 0:
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
            assert bool(rr.oracle_mask.data[v, u] == 255) == expect_fg, (u, v, t, label)


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
        out = apply_tof_noise(DepthImage(400, 250, data), sensor, seed=11)
        std = (out.data.astype(float)[out.data > 0] * 0.001).std()
        assert 0.0019 <= std <= 0.0021

    def test_invalid_pixels_stay_invalid(self, rng):
        from tofscan.geometry import DepthImage
        data = (rng.random((100, 100)) < 0.5).astype(np.uint16) * 2000
        sensor = SensorModel(0, INTR, RigidTransform.identity(), sigma0=0.01)
        out = apply_tof_noise(DepthImage(100, 100, data), sensor, seed=2)
        assert not out.data[data == 0].any()

    def test_deterministic_per_seed(self):
        from tofscan.geometry import DepthImage
        data = np.full((50, 50), 1200, np.uint16)
        sensor = SensorModel(0, INTR, RigidTransform.identity(), sigma0=0.005)
        a = apply_tof_noise(DepthImage(50, 50, data), sensor, seed=7)
        b = apply_tof_noise(DepthImage(50, 50, data), sensor, seed=7)
        c = apply_tof_noise(DepthImage(50, 50, data), sensor, seed=8)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)


class TestInterference:
    def _depth(self, rng=None, fill=1500):
        from tofscan.geometry import DepthImage
        data = np.full((250, 400), fill, np.uint16)
        if rng is not None:
            data[rng.random((250, 400)) < 0.3] = 0
        return DepthImage(400, 250, data)

    def test_zero_interferers_identity(self):
        d = self._depth()
        out = apply_interference(d, 0, 0.45, seed=1)
        assert np.array_equal(out.data, d.data)

    def test_full_probability_corrupts_everything(self):
        # fill 0.1 m, below the 0.3 m spurious floor, so corruption always shows
        d = self._depth(fill=100)
        out = apply_interference(d, 1, 1.0, seed=1)
        assert (out.data != d.data).all()

    def test_corrupted_fraction_matches_binomial(self):
        # 1e5 pixels, p_int = 0.6, 3 interferers -> 1 - 0.4^3 = 0.936
        d = self._depth()
        out = apply_interference(d, 3, 0.6, seed=3)
        frac = (out.data != d.data).mean()
        assert abs(frac - 0.936) < 0.01

    def test_never_revives_invalid_pixels(self, rng):
        d = self._depth(rng)
        out = apply_interference(d, 5, 0.9, seed=4)
        assert not out.data[d.data == 0].any()

    def test_spurious_mix(self):
        d = self._depth()
        out = apply_interference(d, 4, 0.9, seed=5, cap_m=5.0)
        corrupted = out.data != d.data
        zeroed = corrupted & (out.data == 0)
        spurious = corrupted & (out.data > 0)
        assert abs(zeroed.sum() / corrupted.sum() - 0.7) < 0.02
        sp = out.data[spurious] * 0.001
        assert sp.min() >= 0.3 - 1e-9 and sp.max() <= 5.0 + 1e-9

    def test_dims_preserved_and_deterministic(self):
        d = self._depth()
        a = apply_interference(d, 2, 0.5, seed=9)
        b = apply_interference(d, 2, 0.5, seed=9)
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
