import numpy as np
import pytest

from conftest import pose_error, unmoved_tags
from tofscan.geometry import PointCloud, RigidTransform, transform_cloud
from tofscan import registration
from tofscan.registration import (DivergenceError, MultiScaleParams, apply_increment,
                                  colored_icp, register_rig, residual_jacobians, rodrigues)

PARAMS = MultiScaleParams((0.04, 0.02, 0.01))


def corner_cloud(rng, n=4000, noise=0.0):
    """Two orthogonal textured faces meeting at an edge."""
    half = n // 2
    pts = np.zeros((n, 3))
    pts[:half, 0] = rng.random(half) * 0.4
    pts[:half, 1] = rng.random(half) * 0.4
    pts[half:, 0] = rng.random(n - half) * 0.4
    pts[half:, 2] = rng.random(n - half) * 0.4
    pts += np.array([0.2, 0.2, 0.4])
    w = 0.5 + 0.25 * np.sin(17 * pts[:, 0] + np.sin(9 * pts[:, 1])) \
        + 0.25 * np.cos(13 * pts[:, 2] + np.sin(7 * pts[:, 0]))
    cols = np.clip(np.column_stack([w, 0.3 + 0.4 * w, 1 - w]), 0, 1)
    if noise:
        pts = pts + rng.standard_normal(pts.shape) * noise
    return PointCloud(pts, colors=cols)


def plane_and_blob():
    """(source, target): a 20 cm textured plane, one point per 1 cm cell, as the target;
    the same plane plus a solid 20 cm cube of such points, 1 m away, as the source."""
    cells = 0.005 + 0.01 * np.arange(20)
    plane = np.column_stack([*(a.ravel() for a in np.meshgrid(cells, cells)),
                             np.ones(400)])
    blob = np.stack(np.meshgrid(cells, cells, cells), -1).reshape(-1, 3) + [1.0, 0.0, 1.0]

    def textured(pts):
        w = 0.5 + 0.4 * np.sin(19 * pts[:, 0] + np.sin(8 * pts[:, 1]))
        return PointCloud(pts, colors=np.column_stack([w, w, 1 - w]))

    return textured(np.vstack([plane, blob])), textured(plane)


def centered_perturbation(rng, pts, max_deg=10.0, max_t=0.05):
    centroid = pts.mean(axis=0)
    rot = RigidTransform.from_axis_angle(rng.standard_normal(3),
                                         np.radians(rng.uniform(1, max_deg)))
    t = centroid - rot.rotation @ centroid + rng.uniform(-max_t, max_t, 3)
    return RigidTransform(rot.rotation, t)


class TestBasics:
    def test_identity_fixed_point(self, rng):
        cloud = corner_cloud(rng)
        r = colored_icp(cloud, cloud, RigidTransform.identity(), PARAMS)
        assert np.abs(r.transform.matrix() - np.eye(4)).max() < 1e-6
        assert r.fitness >= 0.99
        assert r.inlier_rmse < 1e-9

    def test_requires_colors(self, rng):
        plain = PointCloud(rng.standard_normal((100, 3)))
        with pytest.raises(ValueError, match="color"):
            colored_icp(plain, plain, RigidTransform.identity(), PARAMS)

    def test_recovers_known_perturbation(self, rng):
        cloud = corner_cloud(rng)
        t_true = centered_perturbation(rng, cloud.points)
        target = transform_cloud(cloud, t_true)
        r = colored_icp(cloud, target, RigidTransform.identity(), PARAMS)
        rot_e, tr_e = pose_error(r.transform, t_true)
        assert r.inlier_rmse <= 2 * PARAMS.voxel_sizes[-1]
        assert rot_e < 0.5 and tr_e < 0.01

    def test_far_target_diverges(self, rng):
        cloud = corner_cloud(rng)
        far = PointCloud(cloud.points + 50.0, colors=cloud.colors)
        with pytest.raises(DivergenceError):
            colored_icp(cloud, far, RigidTransform.identity(), PARAMS)

    def test_one_point_level_diverges(self, rng):
        """200 points inside one 4 cm voxel make a 1-point level."""
        tiny = PointCloud(0.005 + rng.random((200, 3)) * 0.03, colors=rng.random((200, 3)))
        with pytest.raises(DivergenceError):
            colored_icp(tiny, tiny, RigidTransform.identity(), MultiScaleParams((0.04,)))

    def test_low_final_fitness_diverges(self, caplog):
        """The blob fills 125 coarse voxels but 8,000 fine ones: 25 of the source's 150
        coarse points match (fitness 0.17), 400 of its 8,400 finest (0.048). The pair
        raises; register_rig, which runs the finest scale only, flags its edge by the
        error of that scale's start."""
        source, target = plane_and_blob()
        with pytest.raises(DivergenceError, match=r"^fitness 0\.048 below 0\.1$"):
            colored_icp(source, target, RigidTransform.identity(), PARAMS)
        with caplog.at_level("WARNING", logger="tofscan.registration"):
            graph = register_rig({0: target, 1: source}, *unmoved_tags([0, 1]),
                                 PARAMS.voxel_sizes[-1], [0, 1])
        assert graph.failed_edges == [(0, 1)] and not graph.edges
        assert set(graph.global_poses) == {0, 1}  # device 1 keeps its cube pose
        assert [r.getMessage() for r in caplog.records] == \
            ["edge (0, 1) failed: no usable correspondences at voxel 0.01"]

    def test_finer_scale_without_match_diverges(self, rng, monkeypatch):
        """A finer scale whose query finds no usable match raises, as the coarsest does."""
        real = registration._residuals

        def none_below_coarsest(src, tgt, transform):
            return None if src.voxel < PARAMS.voxel_sizes[0] else real(src, tgt, transform)

        monkeypatch.setattr(registration, "_residuals", none_below_coarsest)
        cloud = corner_cloud(rng)
        with pytest.raises(DivergenceError, match="no usable correspondences at voxel 0.02"):
            colored_icp(cloud, cloud, RigidTransform.identity(), PARAMS)

    def test_objective_never_increases(self, rng):
        cloud = corner_cloud(rng, noise=0.002)
        t_true = centered_perturbation(rng, cloud.points, max_deg=8)
        target = transform_cloud(corner_cloud(np.random.default_rng(99), noise=0.002), t_true)
        r = colored_icp(cloud, target, RigidTransform.identity(), PARAMS)
        for history in r.objective_history:
            assert all(history[i + 1] <= history[i] * (1 + 1e-12)
                       for i in range(len(history) - 1))

    def test_each_step_pays_at_most_the_halvings_in_queries(self, rng, monkeypatch):
        """A scale opens with one correspondence query; every later query prices a
        trial of the latest Gauss-Newton step, at full length or one of its halvings."""
        events = []

        def counted(name):
            fn = getattr(registration, name)

            def call(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(registration, name, call)

        for name in ("_Level", "_residuals", "_gauss_newton_step"):
            counted(name)
        cloud = corner_cloud(rng, noise=0.002)
        t_true = centered_perturbation(rng, cloud.points, max_deg=8)
        target = transform_cloud(corner_cloud(np.random.default_rng(99), noise=0.002), t_true)
        r = colored_icp(cloud, target, RigidTransform.identity(), PARAMS)

        queries, steps = events.count("_residuals"), events.count("_gauss_newton_step")
        scales = len(r.objective_history)
        assert scales == len(PARAMS.voxel_sizes) and steps > 0
        assert queries <= scales + steps * (1 + registration._MAX_HALVINGS)
        # the queries after each level build or step, up to the next one
        runs = "".join("q" if e == "_residuals" else "|" for e in events).split("|")
        assert max(len(run) for run in runs) <= 1 + registration._MAX_HALVINGS


def _reference_gradients(level, idx):
    """The tangent-plane intensity gradients by a batched 3x3 solve of each system."""
    points, n, intensity = level.points, level.normals, level.intensity
    rel = points[idx] - points[:, None, :]
    rel_t = rel - np.einsum("nkj,nj->nk", rel, n)[:, :, None] * n[:, None, :]
    di = intensity[idx] - intensity[:, None]
    g = np.einsum("nki,nkj->nij", rel_t, rel_t) + n[:, :, None] * n[:, None, :]
    g += 1e-12 * np.eye(3)
    return np.linalg.solve(g, np.einsum("nki,nk->ni", rel_t, di)[:, :, None])[:, :, 0]


class TestGradients:
    def _check(self, cloud):
        level = registration._Level(cloud, 0.01, target=True)
        _, idx = level.tree.query(level.points, k=registration._LEVEL_K)
        ref = _reference_gradients(level, idx)
        assert np.abs(level.gradients - ref).max() <= 1e-9 * np.abs(ref).max()
        return level

    def test_random_level_matches_solve(self, rng):
        n = 3000
        pts = rng.random((n, 3)) * np.array([0.3, 0.2, 0.25])
        self._check(PointCloud(pts, colors=rng.random((n, 3))))

    def test_planar_neighbourhood_matches_solve(self, rng):
        """On a tilted plane under a linear intensity ramp the gradient is the
        ramp's in-plane part, with no normal component."""
        n = 3000
        frame = RigidTransform.from_axis_angle((1.0, 2.0, 0.5), 0.7)
        pts = frame.apply(np.column_stack([rng.random(n) * 0.3, rng.random(n) * 0.3,
                                           np.zeros(n)]))
        ramp = np.array([0.8, -0.5, 1.5])
        intensity = 0.2 + pts @ ramp
        level = self._check(PointCloud(pts, colors=np.tile(intensity[:, None], (1, 3))))
        normal = frame.rotation[:, 2]
        in_plane = ramp - (ramp @ normal) * normal
        np.testing.assert_allclose(level.gradients, np.tile(in_plane, (len(level.points), 1)),
                                   atol=1e-6)


class TestColorTerm:
    def test_color_resolves_planar_sliding(self, rng):
        """On a plane, only the photometric term can fix in-plane shift."""
        n = 6000
        pts = np.column_stack([rng.random(n) * 0.6, rng.random(n) * 0.6, np.zeros(n)])
        stripes = lambda p: 0.5 + 0.45 * np.sin(40 * p[:, 0] + 0.5 * np.sin(11 * p[:, 1]))
        shift = np.array([0.012, 0.0, 0.0])
        src_cols = np.tile(stripes(pts)[:, None], (1, 3))
        tgt_cols = np.tile(stripes(pts + shift)[:, None], (1, 3))
        src = PointCloud(pts, colors=np.clip(src_cols, 0, 1))
        tgt = PointCloud(pts, colors=np.clip(tgt_cols, 0, 1))
        params = MultiScaleParams((0.02, 0.01))

        colored = colored_icp(src, tgt, RigidTransform.identity(), params)
        # flat colours: zero intensity residual and gradient, so only geometry acts
        flat = PointCloud(pts, colors=np.full((n, 3), 0.5))
        geom_only = colored_icp(flat, flat, RigidTransform.identity(), params)

        def color_residual(transform):
            moved = transform.apply(pts)
            pred = stripes(moved + shift)  # target field sampled where source lands
            return float(np.mean((pred - stripes(pts + shift)) ** 2))

        # the colored run must slide toward the texture alignment (-shift)
        assert abs(colored.transform.translation[0] + shift[0]) < 0.004
        assert np.linalg.norm(geom_only.transform.translation) < 1e-6
        res_colored = float(np.mean((stripes(colored.transform.apply(pts) + shift)
                                     - stripes(pts)) ** 2))
        res_geom = float(np.mean((stripes(geom_only.transform.apply(pts) + shift)
                                  - stripes(pts)) ** 2))
        assert res_colored < res_geom


class TestJacobians:
    def _random_corr(self, rng, n=64):
        s = rng.standard_normal((n, 3))
        nrm = rng.standard_normal((n, 3))
        nrm /= np.linalg.norm(nrm, axis=1)[:, None]
        d = rng.standard_normal((n, 3))
        d -= np.einsum("ni,ni->n", d, nrm)[:, None] * nrm  # tangent gradients
        t = s + rng.standard_normal((n, 3)) * 0.01
        c_t = rng.random(n)
        c_s = rng.random(n)
        return s, t, nrm, d, c_t, c_s

    def test_analytic_matches_central_differences(self, rng):
        """100 random states, relative error below 1e-5."""
        eps = 1e-7
        for _ in range(100):
            s, t, nrm, d, c_t, c_s = self._random_corr(rng)
            corr = {"s": s, "n": nrm, "d": d}
            j_geo, j_col = residual_jacobians(corr)

            def residuals(xi):
                inc = RigidTransform(rodrigues(xi[:3]), xi[3:])
                moved = inc.apply(s)
                r_geo = np.einsum("ni,ni->n", moved - t, nrm)
                r_col = c_t + np.einsum("ni,ni->n", d, moved - t) - c_s
                return r_geo, r_col

            for k in range(6):
                xi_p = np.zeros(6)
                xi_p[k] = eps
                xi_m = np.zeros(6)
                xi_m[k] = -eps
                gp, cp = residuals(xi_p)
                gm, cm = residuals(xi_m)
                fd_geo = (gp - gm) / (2 * eps)
                fd_col = (cp - cm) / (2 * eps)
                scale_g = max(np.abs(j_geo[:, k]).max(), 1e-3)
                scale_c = max(np.abs(j_col[:, k]).max(), 1e-3)
                assert np.abs(fd_geo - j_geo[:, k]).max() / scale_g < 1e-5
                assert np.abs(fd_col - j_col[:, k]).max() / scale_c < 1e-5


class TestIncrement:
    def test_rodrigues_small_angle(self):
        r = rodrigues(np.array([1e-13, 0, 0]))
        assert np.abs(r - np.eye(3)).max() < 1e-12

    def test_apply_increment_composes_left(self, rng):
        t = RigidTransform.from_axis_angle((1, 2, 3), 0.3, (0.1, 0.2, 0.3))
        xi = np.array([0.01, -0.02, 0.03, 0.001, 0.002, -0.003])
        out = apply_increment(xi, t)
        inc = RigidTransform(rodrigues(xi[:3]), xi[3:])
        np.testing.assert_allclose(out.matrix(), inc.compose(t).matrix(), atol=1e-15)
