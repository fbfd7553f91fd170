import numpy as np
import pytest

from tofscan import registration
from tofscan.geometry import PointCloud, RigidTransform, back_project, transform_cloud
from tofscan.capture import build_schedule, simulate_capture
from tofscan.experiments import KNOWN_OBJECT_REGISTRATION, TEXTURE
from tofscan.registration import (MultiScaleParams, colored_icp, merge_clouds, register_rig,
                                  load_pose_graph, save_pose_graph, voxel_downsample,
                                  make_observations)
from tofscan.render import observe_tags
from tofscan.rigs import known_object_rig
from tofscan.scene import Scene, box, cube_tag_layout


def textured_cloud(rng, n=3000):
    pts = rng.random((n, 3)) * np.array([0.5, 0.5, 0.08])
    w = 0.5 + 0.4 * np.sin(19 * pts[:, 0] + np.sin(8 * pts[:, 1]))
    return PointCloud(pts, colors=np.clip(np.column_stack([w, w, 1 - w]), 0, 1))


class TestVoxelDownsample:
    def test_positions_average(self):
        pts = np.array([[0.001, 0, 0], [0.003, 0, 0], [0.011, 0, 0]])
        cloud = PointCloud(pts, colors=np.array([[0, 0, 0], [1, 1, 1], [0.5, 0.5, 0.5]]))
        out = voxel_downsample(cloud, 0.01)
        assert len(out) == 2
        np.testing.assert_allclose(out.points[0], [0.002, 0, 0])
        np.testing.assert_allclose(out.colors[0], [0.5, 0.5, 0.5])

    def test_deterministic(self, rng):
        cloud = textured_cloud(rng)
        a = voxel_downsample(cloud, 0.02)
        b = voxel_downsample(cloud, 0.02)
        assert np.array_equal(a.points, b.points)

    def test_invalid_voxel(self, rng):
        with pytest.raises(ValueError):
            voxel_downsample(textured_cloud(rng), 0.0)


class TestRegisterRig:
    def test_two_identical_clouds(self, rng):
        cloud = textured_cloud(rng)
        graph = register_rig({0: cloud, 1: cloud}, {}, MultiScaleParams((0.04, 0.02), (30, 20)))
        for dev in (0, 1):
            assert np.abs(graph.global_poses[dev].matrix() - np.eye(4)).max() < 1e-6

    def test_chain_consistency_and_cube_rms(self):
        """8 views of a textured 0.5 m cube register to <= 5 mm RMS from the true surface."""
        cube_pose = RigidTransform(np.eye(3), (0, 0, 0.8))
        posed = Scene((box((0.25, 0.25, 0.25), pose=cube_pose, albedo=(0.85, 0.82, 0.75),
                           texture=TEXTURE),), 5.0)
        layout = cube_tag_layout(0.5, 4)
        rig = known_object_rig()[:8]
        sensors = {s.device_id: s for s in rig}
        cap = simulate_capture(posed, rig, build_schedule(list(sensors), 160, 125), seed=0)
        clouds, fid = {}, {}
        for dev, fr in cap.frames.items():
            clouds[dev] = back_project(fr.depth, sensors[dev].intrinsics, fr.color,
                                       fr.oracle_mask)
            rng_d = np.random.default_rng(50 + dev)
            fid[dev] = make_observations(observe_tags(layout, cube_pose, sensors[dev]),
                                         0.001, rng_d)
        order = [0, 1, 3, 2, 4, 5, 7, 6]
        graph = register_rig(clouds, fid, KNOWN_OBJECT_REGISTRATION, layout, order=order)
        assert not graph.failed_edges

        # chain edges compose exactly into the published global poses
        for (a, b), r in graph.edges.items():
            lhs = graph.global_poses[a].compose(r.transform)
            assert np.abs(lhs.matrix() - graph.global_poses[b].matrix()).max() < 1e-9

        merged = merge_clouds(clouds, graph, dedup_voxel=0.0025)
        world = sensors[graph.reference].pose.apply(merged.points)
        d = posed.sdf(world)
        rms = float(np.sqrt(np.mean(d ** 2)))
        assert rms <= 0.005

    def test_unreachable_device_flagged(self, rng):
        a = textured_cloud(rng)
        c = PointCloud(a.points + 100.0, colors=a.colors)  # unregisterable outlier
        graph = register_rig({0: a, 1: a, 2: c}, {}, MultiScaleParams((0.04, 0.02), (20, 10)))
        assert (1, 2) in graph.failed_edges
        assert 2 not in graph.global_poses
        assert set(graph.global_poses) == {0, 1}


class TestSharedPyramids:
    PARAMS = MultiScaleParams((0.04, 0.02), (20, 10))

    def chain(self, rng):
        """Three overlapping views, each a few mm and under a degree off the last."""
        base = textured_cloud(rng)
        clouds = {0: base}
        for dev in (1, 2):
            nudge = RigidTransform.from_axis_angle(rng.standard_normal(3), np.radians(0.8),
                                                   rng.uniform(-0.004, 0.004, 3))
            moved = transform_cloud(clouds[dev - 1], nudge)
            clouds[dev] = PointCloud(moved.points + rng.standard_normal(moved.points.shape)
                                     * 0.0005, colors=moved.colors)
        return clouds

    def test_normals_once_per_device_and_scale(self, rng, monkeypatch):
        calls = []
        real = registration.pca_normals

        def counting(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(registration, "pca_normals", counting)
        graph = register_rig(self.chain(rng), {}, self.PARAMS)
        assert not graph.failed_edges
        assert len(calls) == 3 * len(self.PARAMS.voxel_sizes)

    def test_edges_match_standalone_icp(self, rng):
        clouds = self.chain(rng)
        graph = register_rig(clouds, {}, self.PARAMS)
        assert set(graph.edges) == {(0, 1), (1, 2)}
        for (a, b), r in graph.edges.items():
            alone = colored_icp(clouds[b], clouds[a], RigidTransform.identity(), self.PARAMS)
            assert np.array_equal(r.transform.matrix(), alone.transform.matrix())
            assert r.fitness == alone.fitness
            assert r.inlier_rmse == alone.inlier_rmse
            assert r.objective_history == alone.objective_history
            assert sum(len(h) for h in r.objective_history) > len(self.PARAMS.voxel_sizes)


class TestMergeClouds:
    def _graph(self, devs):
        from tofscan.registration import PoseGraph
        return PoseGraph(devs[0], {}, {d: RigidTransform.identity() for d in devs})

    def test_single_device_unchanged(self, rng):
        cloud = textured_cloud(rng)
        merged = merge_clouds({0: cloud}, self._graph([0]), dedup_voxel=0.01)
        assert np.array_equal(merged.points, voxel_downsample(cloud, 0.01).points)
        assert (merged.source_ids == 0).all()

    def test_dedup_collapses_duplicates(self, rng):
        cloud = textured_cloud(rng)
        merged = merge_clouds({0: cloud, 1: cloud}, self._graph([0, 1]), dedup_voxel=0.01)
        solo = voxel_downsample(cloud, 0.01)
        assert len(merged) == len(solo)

    def test_missing_pose_is_error(self, rng):
        cloud = textured_cloud(rng)
        with pytest.raises(ValueError, match="no global pose"):
            merge_clouds({0: cloud, 5: cloud}, self._graph([0]), dedup_voxel=0.01)


def test_pose_graph_json_round_trip(tmp_path, rng):
    cloud = textured_cloud(rng)
    graph = register_rig({0: cloud, 1: cloud}, {}, MultiScaleParams((0.04, 0.02), (10, 5)))
    path = tmp_path / "poses.json"
    save_pose_graph(path, graph)
    loaded = load_pose_graph(path)
    assert loaded.reference == graph.reference
    assert set(loaded.global_poses) == set(graph.global_poses)
    for d in graph.global_poses:
        np.testing.assert_allclose(loaded.global_poses[d].matrix(),
                                   graph.global_poses[d].matrix(), atol=1e-15)
