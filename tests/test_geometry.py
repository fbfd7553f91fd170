import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from tofscan import geometry
from tofscan.geometry import (BinaryMask, CameraIntrinsics, ColorImage, DepthImage,
                              GeometryError, PointCloud, RigidTransform, back_project,
                              neighbour_normals, pca_normals, project, transform_cloud)

INTR = CameraIntrinsics(fx=600, fy=600, cx=320, cy=240, width=640, height=480)


def grey(data):
    """A mid-grey colour image the size of the depth array ``data``."""
    return ColorImage(np.full((*data.shape, 3), 128, np.uint8))


def everywhere(data):
    """An all-foreground mask the size of the depth array ``data``."""
    return BinaryMask(np.ones(data.shape, bool))


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
            BinaryMask(np.array([[0, 255], [128, 0]], dtype=np.uint8))

    @pytest.mark.parametrize("raster", [
        DepthImage(np.zeros((3, 5), np.uint16)),
        ColorImage(np.zeros((3, 5, 3), np.uint8)),
        BinaryMask(np.zeros((3, 5), bool)),
    ], ids=["depth", "color", "mask"])
    def test_raster_size_is_its_array_shape(self, raster):
        assert (raster.height, raster.width) == raster.data.shape[:2] == (3, 5)

    @pytest.mark.parametrize("make, data", [
        (DepthImage, np.zeros((3, 5, 1), np.uint16)),
        (ColorImage, np.zeros((3, 5), np.uint8)),
        (BinaryMask, np.zeros((3, 5), np.uint8)),
        (BinaryMask, np.array([[0, 255], [255, 0]], np.uint8)),
        (BinaryMask, np.zeros((3, 5), np.float64)),
        (BinaryMask, np.zeros((3, 5, 1), bool)),
    ], ids=["depth-3d", "color-2d", "mask-uint8-zero", "mask-uint8-0-255", "mask-float",
            "mask-3d"])
    def test_raster_refuses_wrong_array(self, make, data):
        with pytest.raises(ValueError):
            make(data)

    def test_cloud_length_checks(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), colors=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((2, 3)), normals=np.array([[1.0, 0, 0], [2.0, 0, 0]]))


class TestBackProject:
    def test_principal_point_ray(self):
        data = np.zeros((480, 640), np.uint16)
        data[240, 320] = 1000
        cloud = back_project(DepthImage(data), INTR, grey(data), everywhere(data))
        np.testing.assert_allclose(cloud.points, [[0.0, 0.0, 1.0]])

    def test_off_axis_pixel(self):
        # (920 - 320) * 1.0 / 600 = 1.0 exactly, on a raster wide enough for u=920
        wide = CameraIntrinsics(fx=600, fy=600, cx=320, cy=240, width=1280, height=480)
        data = np.zeros((480, 1280), np.uint16)
        data[240, 920] = 1000
        cloud = back_project(DepthImage(data), wide, grey(data), everywhere(data))
        np.testing.assert_allclose(cloud.points, [[1.0, 0.0, 1.0]])

    def test_empty_mask_gives_empty_cloud(self):
        data = np.full((480, 640), 1000, np.uint16)
        mask = BinaryMask(np.zeros((480, 640), bool))
        assert len(back_project(DepthImage(data), INTR, grey(data), mask)) == 0

    def test_point_count_equals_valid_foreground(self, rng):
        data = (rng.random((480, 640)) < 0.3).astype(np.uint16) * 1500
        fg = rng.random((480, 640)) < 0.5
        mask = BinaryMask(fg)
        cloud = back_project(DepthImage(data), INTR, grey(data), mask)
        assert len(cloud) == int(((data > 0) & fg).sum())

    def test_dimension_mismatch_names_raster(self):
        depth = DepthImage(np.zeros((480, 640), np.uint16))
        bad_color = ColorImage(np.zeros((240, 320, 3), np.uint8))
        with pytest.raises(ValueError, match="color"):
            back_project(depth, INTR, bad_color, everywhere(depth.data))
        bad_mask = BinaryMask(np.zeros((240, 320), bool))
        with pytest.raises(ValueError, match="mask"):
            back_project(depth, INTR, grey(depth.data), bad_mask)

    def test_colors_copied(self):
        data = np.zeros((480, 640), np.uint16)
        data[10, 20] = 500
        img = np.zeros((480, 640, 3), np.uint8)
        img[10, 20] = (255, 0, 128)
        cloud = back_project(DepthImage(data), INTR, ColorImage(img), everywhere(data))
        np.testing.assert_allclose(cloud.colors, [[1.0, 0.0, 128 / 255]])


class TestProject:
    def test_principal_axis(self):
        u, v, z = project(np.array([[0, 0, 1.0]]), INTR)
        assert (u[0], v[0], z[0]) == (320.0, 240.0, 1.0)

    def test_round_trip_with_back_project(self):
        data = np.zeros((480, 640), np.uint16)
        data[50, 100] = 2000
        cloud = back_project(DepthImage(data), INTR, grey(data), everywhere(data))
        (u,), (v,), (z,) = project(cloud.points, INTR)
        assert abs(u - 100) < 1e-9 and abs(v - 50) < 1e-9 and abs(z - 2.0) < 1e-9

    def test_behind_camera(self):
        with pytest.raises(GeometryError, match="behind"):
            project(np.array([[0, 0, 1.0], [0, 0, -1.0]]), INTR)

    def test_full_raster_round_trip(self, rng):
        data = (rng.random((48, 64)) * 4000).astype(np.uint16)
        intr = CameraIntrinsics(80, 90, 31.5, 23.5, 64, 48)
        cloud = back_project(DepthImage(data), intr, grey(data), everywhere(data))
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


@settings(max_examples=50)
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


def _facing(normals, points, centers):
    return np.einsum("ni,ni->n", normals, np.broadcast_to(centers, points.shape) - points)


@pytest.mark.parametrize("per_point", [True, False], ids=["per-point-centers", "viewpoint"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pca_normals_match_eigh(per_point, seed):
    """The closed-form least eigenvector is the batched eigh one, up to sign, and faces its centre."""
    rng = np.random.default_rng(seed)
    rotation = RigidTransform.from_axis_angle(rng.standard_normal(3), rng.uniform(0, np.pi)).rotation
    pts = (rng.standard_normal((3000, 3)) * np.array([0.6, 0.25, 0.04])) @ rotation.T + 1.5
    centers = rng.standard_normal((3000, 3)) if per_point else np.array([0.3, -0.2, 4.0])
    tree = cKDTree(pts)
    normals = pca_normals(pts, tree, 30, centers)

    _, idx = tree.query(pts, k=30)
    nb = pts[idx] - pts[idx].mean(axis=1, keepdims=True)
    reference = np.linalg.eigh(np.einsum("nki,nkj->nij", nb, nb))[1][:, :, 0]
    assert np.abs(np.einsum("ni,ni->n", normals, reference)).min() >= 1 - 1e-10
    assert np.abs(np.linalg.norm(normals, axis=1) - 1).max() < 1e-12
    assert (_facing(normals, pts, centers) >= 0).all()


@pytest.mark.parametrize("case", ["coincident", "collinear", "planar-grid"])
def test_degenerate_neighbourhoods_give_unit_normals(case):
    """Coincident, collinear and exactly planar neighbours: finite unit normals facing the viewpoint."""
    viewpoint = np.array([0.31, -0.17, 2.0])
    if case == "coincident":
        pts = np.tile([0.1, 0.2, 0.3], (40, 1))
    elif case == "collinear":
        pts = np.outer(np.linspace(-0.5, 0.5, 40), [1.0, 2.0, 3.0]) + [0.1, 0.2, 0.3]
    else:
        u, v = np.meshgrid(np.arange(8) * 0.01, np.arange(8) * 0.01)
        pts = np.column_stack([u.ravel(), v.ravel(), np.zeros(u.size)])
    normals = pca_normals(pts, cKDTree(pts), 30, viewpoint)
    assert np.isfinite(normals).all()
    assert np.abs(np.linalg.norm(normals, axis=1) - 1).max() < 1e-12
    assert (_facing(normals, pts, viewpoint) >= 0).all()
    if case == "collinear":
        line = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        assert np.abs(normals @ line).max() < 1e-9
    elif case == "planar-grid":
        assert np.abs(normals - [0.0, 0.0, 1.0]).max() < 1e-12


def test_neighbour_normals_take_given_neighbours():
    """The kernel reads only the rows of ``points`` that ``idx`` names."""
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((500, 3)) * np.array([1.0, 0.5, 0.02])
    idx = rng.integers(0, len(pts), (60, 30))
    toward = rng.standard_normal((60, 3))
    normals = neighbour_normals(pts, idx, toward)
    moved = pts.copy()
    moved[np.setdiff1d(np.arange(len(pts)), idx)] = np.nan
    assert np.array_equal(neighbour_normals(moved, idx, toward), normals)
    assert (np.einsum("ni,ni->n", normals, toward) >= 0).all()
