import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from tofscan import geometry
from tofscan.geometry import (BinaryMask, CameraIntrinsics, ColorImage, DepthImage,
                              GeometryError, PointCloud, RigidTransform, back_project,
                              pca_normals, project, transform_cloud)

INTR = CameraIntrinsics(fx=600, fy=600, cx=320, cy=240, width=640, height=480)


def random_transform(rng):
    return RigidTransform.from_axis_angle(rng.standard_normal(3),
                                          rng.uniform(0, 2 * np.pi),
                                          rng.uniform(-2, 2, 3))


class TestTypes:
    def test_rotation_must_be_orthonormal(self):
        with pytest.raises(GeometryError):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3))

    def test_reflection_rejected(self):
        with pytest.raises(GeometryError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_intrinsics_validation(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics(fx=-1, fy=600, cx=320, cy=240, width=640, height=480)
        with pytest.raises(GeometryError):
            CameraIntrinsics(fx=600, fy=600, cx=700, cy=240, width=640, height=480)

    def test_mask_rejects_non_binary(self):
        with pytest.raises(ValueError, match="non-binary"):
            BinaryMask(2, 2, np.array([[0, 255], [128, 0]], dtype=np.uint8))

    def test_cloud_length_checks(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), colors=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((2, 3)), normals=np.array([[1.0, 0, 0], [2.0, 0, 0]]))


class TestBackProject:
    def test_principal_point_ray(self):
        data = np.zeros((480, 640), np.uint16)
        data[240, 320] = 1000
        cloud = back_project(DepthImage(640, 480, data), INTR)
        np.testing.assert_allclose(cloud.points, [[0.0, 0.0, 1.0]])

    def test_off_axis_pixel(self):
        # (920 - 320) * 1.0 / 600 = 1.0 exactly, on a raster wide enough for u=920
        wide = CameraIntrinsics(fx=600, fy=600, cx=320, cy=240, width=1280, height=480)
        data = np.zeros((480, 1280), np.uint16)
        data[240, 920] = 1000
        cloud = back_project(DepthImage(1280, 480, data), wide)
        np.testing.assert_allclose(cloud.points, [[1.0, 0.0, 1.0]])

    def test_empty_mask_gives_empty_cloud(self):
        data = np.full((480, 640), 1000, np.uint16)
        mask = BinaryMask(640, 480, np.zeros((480, 640), np.uint8))
        assert len(back_project(DepthImage(640, 480, data), INTR, mask=mask)) == 0

    def test_point_count_equals_valid_foreground(self, rng):
        data = (rng.random((480, 640)) < 0.3).astype(np.uint16) * 1500
        fg = rng.random((480, 640)) < 0.5
        mask = BinaryMask.from_bool(fg)
        cloud = back_project(DepthImage(640, 480, data), INTR, mask=mask)
        assert len(cloud) == int(((data > 0) & fg).sum())

    def test_dimension_mismatch_names_raster(self):
        depth = DepthImage(640, 480, np.zeros((480, 640), np.uint16))
        bad_color = ColorImage(320, 240, np.zeros((240, 320, 3), np.uint8))
        with pytest.raises(ValueError, match="color"):
            back_project(depth, INTR, color=bad_color)
        bad_mask = BinaryMask(320, 240, np.zeros((240, 320), np.uint8))
        with pytest.raises(ValueError, match="mask"):
            back_project(depth, INTR, mask=bad_mask)

    def test_colors_copied(self):
        data = np.zeros((480, 640), np.uint16)
        data[10, 20] = 500
        img = np.zeros((480, 640, 3), np.uint8)
        img[10, 20] = (255, 0, 128)
        cloud = back_project(DepthImage(640, 480, data), INTR, ColorImage(640, 480, img))
        np.testing.assert_allclose(cloud.colors, [[1.0, 0.0, 128 / 255]])


class TestProject:
    def test_principal_axis(self):
        u, v, z = project(np.array([[0, 0, 1.0]]), INTR)
        assert (u[0], v[0], z[0]) == (320.0, 240.0, 1.0)

    def test_round_trip_with_back_project(self):
        data = np.zeros((480, 640), np.uint16)
        data[50, 100] = 2000
        cloud = back_project(DepthImage(640, 480, data), INTR)
        (u,), (v,), (z,) = project(cloud.points, INTR)
        assert abs(u - 100) < 1e-9 and abs(v - 50) < 1e-9 and abs(z - 2.0) < 1e-9

    def test_behind_camera(self):
        with pytest.raises(GeometryError, match="behind"):
            project(np.array([[0, 0, 1.0], [0, 0, -1.0]]), INTR)

    def test_full_raster_round_trip(self, rng):
        data = (rng.random((48, 64)) * 4000).astype(np.uint16)
        intr = CameraIntrinsics(80, 90, 31.5, 23.5, 64, 48)
        cloud = back_project(DepthImage(64, 48, data), intr)
        v, u = np.nonzero(data > 0)
        pu, pv, pz = project(cloud.points, intr)
        assert np.abs(pu - u).max() < 1e-6
        assert np.abs(pv - v).max() < 1e-6
        assert np.abs(pz - data[v, u] * 0.001).max() < 1e-9


class TestTransforms:
    def test_identity_is_bitwise_noop(self, rng):
        cloud = PointCloud(rng.standard_normal((50, 3)))
        out = transform_cloud(cloud, RigidTransform.identity())
        assert np.array_equal(out.points, cloud.points)

    def test_rotate_90_about_z(self):
        t = RigidTransform.from_axis_angle((0, 0, 1), np.pi / 2)
        np.testing.assert_allclose(t.apply((1.0, 0, 0)), [0, 1, 0], atol=1e-12)

    def test_transform_then_inverse_restores(self, rng):
        cloud = PointCloud(rng.standard_normal((100, 3)))
        t = random_transform(rng)
        back = transform_cloud(transform_cloud(cloud, t), t.invert())
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-9)

    def test_normals_rotated_only(self, rng):
        n = rng.standard_normal((10, 3))
        n /= np.linalg.norm(n, axis=1)[:, None]
        cloud = PointCloud(rng.standard_normal((10, 3)), normals=n)
        t = random_transform(rng)
        out = transform_cloud(cloud, t)
        np.testing.assert_allclose(out.normals, n @ t.rotation.T, atol=1e-12)

    def test_compose_identity(self, rng):
        t = random_transform(rng)
        c = t.compose(RigidTransform.identity())
        np.testing.assert_allclose(c.matrix(), t.matrix(), atol=1e-15)

    def test_inverse_composes_to_identity(self, rng):
        t = random_transform(rng)
        np.testing.assert_allclose(t.invert().compose(t).matrix(), np.eye(4), atol=1e-9)

    def test_compose_applies_second_argument_first(self, rng):
        # oracle: direct evaluation on 100 random points
        t1, t2 = random_transform(rng), random_transform(rng)
        p = rng.standard_normal((100, 3))
        np.testing.assert_allclose(t1.compose(t2).apply(p), t1.apply(t2.apply(p)),
                                   atol=1e-9)

    def test_rigidity_preserves_distances(self, rng):
        pts = rng.standard_normal((40, 3))
        t = random_transform(rng)
        moved = t.apply(pts)
        d0 = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        d1 = np.linalg.norm(moved[:, None] - moved[None], axis=-1)
        assert np.abs(d0 - d1).max() < 1e-9

    def test_rotation_stays_orthonormal_over_100_compositions(self, rng):
        t = RigidTransform.identity()
        for _ in range(100):
            t = t.compose(random_transform(rng))
        err = np.abs(t.rotation.T @ t.rotation - np.eye(3)).max()
        assert err < 1e-7


@settings(max_examples=50, deadline=None)
@given(angle=st.floats(-3.1, 3.1), x=st.floats(-5, 5), y=st.floats(-5, 5), z=st.floats(-5, 5))
def test_axis_angle_transforms_are_rigid(angle, x, y, z):
    t = RigidTransform.from_axis_angle((1, 2, 3), angle, (x, y, z))
    p = np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0]])
    moved = t.apply(p)
    assert abs(np.linalg.norm(moved[1] - moved[0]) - 1.0) < 1e-9
    assert abs(np.linalg.norm(moved[2] - moved[0]) - 2.0) < 1e-9


@pytest.mark.parametrize("per_point", [True, False], ids=["per-point-centers", "viewpoint"])
def test_pca_normals_blocks_match_one_block(per_point, monkeypatch):
    """Blocked normals are bit-identical to one block over all the points."""
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((2500, 3)) * np.array([0.5, 0.3, 0.05])
    centers = rng.standard_normal((2500, 3)) if per_point else np.array([0.0, 0.0, 2.0])
    tree = cKDTree(pts)
    monkeypatch.setattr(geometry, "PCA_BLOCK", len(pts))
    whole = pca_normals(pts, tree, 20, centers)
    monkeypatch.setattr(geometry, "PCA_BLOCK", 300)  # 9 blocks, the last one partial
    assert np.array_equal(pca_normals(pts, tree, 20, centers), whole)
