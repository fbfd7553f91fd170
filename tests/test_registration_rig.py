import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import TAG_SQUARE, pose_error, unmoved_tags

from tofscan import registration
from tofscan.geometry import PointCloud, RigidTransform, back_project, transform_cloud
from tofscan.capture import build_schedule, simulate_capture
from tofscan.experiments import KNOWN_OBJECT_REGISTRATION, TEXTURE
from tofscan.registration import (MultiScaleParams, colored_icp, estimate_pose_from_fiducials,
                                  make_observations, merge_clouds, register_rig,
                                  save_pose_graph, voxel_downsample)
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

    def test_normals_average_to_unit_length(self):
        """Two normals average and re-normalize; a voxel whose normals cancel keeps
        its first point's normal."""
        pts = np.array([[0.001, 0, 0], [0.003, 0, 0], [0.012, 0, 0], [0.011, 0, 0]])
        normals = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, 0, -1.0]])
        out = voxel_downsample(PointCloud(pts, normals=normals), 0.01)
        np.testing.assert_allclose(out.normals[0], [np.sqrt(0.5), np.sqrt(0.5), 0])
        assert np.array_equal(out.normals[1], [0.0, 0.0, 1.0])

    def test_deterministic(self, rng):
        cloud = textured_cloud(rng)
        a = voxel_downsample(cloud, 0.02)
        b = voxel_downsample(cloud, 0.02)
        assert np.array_equal(a.points, b.points)

    def test_invalid_voxel(self, rng):
        with pytest.raises(ValueError):
            voxel_downsample(textured_cloud(rng), 0.0)


class TestMultiScaleParams:
    @pytest.mark.parametrize("voxels", [(), (0.08, 0.04, 0.02, 0.01), (0.01, 0.02),
                                        (0.04, 0.02, 0.0), (0.04, -0.02)],
                             ids=["none", "four", "ascending", "zero", "negative"])
    def test_refuses_a_bad_pyramid(self, voxels):
        with pytest.raises(ValueError, match="voxel sizes"):
            MultiScaleParams(voxels)

    def test_one_to_three_descending_sizes(self):
        assert MultiScaleParams((0.02,)).voxel_sizes == (0.02,)
        assert MultiScaleParams([0.04, 0.02, 0.01]).voxel_sizes == (0.04, 0.02, 0.01)


class TestRegisterRig:
    def test_two_identical_clouds(self, rng):
        cloud = textured_cloud(rng)
        graph = register_rig({0: cloud, 1: cloud}, *unmoved_tags([0, 1]), 0.02, [0, 1])
        for dev in (0, 1):
            assert np.abs(graph.global_poses[dev].matrix() - np.eye(4)).max() < 1e-6

    def test_fused_poses_and_cube_rms(self):
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
        graph = register_rig(clouds, fid, layout, KNOWN_OBJECT_REGISTRATION, order=order)
        assert not graph.failed_edges
        assert set(graph.global_poses) == set(sensors)

        # the fused poses hold each ICP edge's transform, but need not compose into it
        for (a, b), r in graph.edges.items():
            implied = graph.global_poses[a].invert().compose(graph.global_poses[b])
            angle, offset = pose_error(implied, r.transform)
            assert angle < 0.5 and offset < 0.005, ((a, b), angle, offset)

        merged = merge_clouds(clouds, graph, dedup_voxel=0.0025)
        world = sensors[graph.reference].pose.apply(merged.points)
        d = posed.sdf(world)
        rms = float(np.sqrt(np.mean(d ** 2)))
        assert rms <= 0.005

    def test_unregisterable_edge_flagged(self, rng):
        """Device 2's cloud lies 100 m off: its edge fails and it keeps its cube pose."""
        a = textured_cloud(rng)
        c = PointCloud(a.points + 100.0, colors=a.colors)  # unregisterable outlier
        graph = register_rig({0: a, 1: a, 2: c}, *unmoved_tags(range(3)), 0.02, [0, 1, 2])
        assert graph.failed_edges == [(1, 2)]
        assert list(graph.edges) == [(0, 1)]
        assert set(graph.global_poses) == {0, 1, 2}
        assert np.abs(graph.global_poses[2].matrix() - np.eye(4)).max() < 1e-9

    def test_one_point_level_fails_its_edge(self, rng):
        """A device whose 200 points sit inside one 4 cm voxel fails its edge."""
        a = textured_cloud(rng)
        tiny = PointCloud(0.005 + rng.random((200, 3)) * 0.03, colors=rng.random((200, 3)))
        graph = register_rig({0: a, 1: a, 2: tiny}, *unmoved_tags(range(3)), 0.04, [0, 1, 2])
        assert graph.failed_edges == [(1, 2)]
        assert set(graph.global_poses) == {0, 1, 2}

    def test_failed_middle_edges_same_on_the_pool(self, rng, workers, caplog, monkeypatch):
        """Edges (1, 2) and (3, 4) diverge; (1, 2) is made to fail last, yet warns first.

        The graph is the same inline and on a pool, and warnings follow chain order.
        """
        a = textured_cloud(rng)
        far = [PointCloud(a.points + off, colors=a.colors) for off in (0.0, 100.0, 200.0)]
        clouds = {0: far[0], 1: far[0], 2: far[1], 3: far[1], 4: far[2], 5: far[2]}
        real = registration._icp

        def icp(scales, init):
            [(_source, target)] = scales
            if target.points[0, 0] < 50.0:  # edges (0, 1) and (1, 2)
                time.sleep(0.2)
            return real(scales, init)

        monkeypatch.setattr(registration, "_icp", icp)
        graphs = []
        for n in (0, 2):
            workers(n)
            caplog.clear()
            with caplog.at_level("WARNING", logger="tofscan.registration"):
                graphs.append(register_rig(clouds, *unmoved_tags(clouds), 0.02, list(clouds)))
            assert [r.getMessage().split(" failed")[0] for r in caplog.records] == \
                ["edge (1, 2)", "edge (3, 4)"]
        inline, pooled = graphs
        assert inline.failed_edges == pooled.failed_edges == [(1, 2), (3, 4)]
        assert list(inline.edges) == list(pooled.edges) == [(0, 1), (2, 3), (4, 5)]
        assert set(inline.global_poses) == set(pooled.global_poses) == set(clouds)
        for dev, pose in inline.global_poses.items():
            assert np.array_equal(pose.matrix(), pooled.global_poses[dev].matrix())

    def test_edge_without_shared_tags_runs(self, rng, workers, caplog):
        """Devices 1 and 2 see no common tag, yet each is posed against the cube, so
        their edge runs; device 4 sees no tag of the cube and fails its edge alone,
        inline and on a pool."""
        cloud = textured_cloud(rng)
        square = TAG_SQUARE
        layout = {0: square, 1: square + [0.0, 0.0, 0.2]}
        seen = {0: square, 1: square + [0.0, 0.0, 0.2]}
        fiducials = {0: seen, 1: {0: seen[0]}, 2: {1: seen[1]}, 3: seen, 4: {7: square}}
        for n in (0, 2):
            workers(n)
            caplog.clear()
            with caplog.at_level("WARNING", logger="tofscan.registration"):
                graph = register_rig(dict.fromkeys(range(5), cloud), fiducials, layout, 0.02,
                                     list(range(5)))
            assert list(graph.edges) == [(0, 1), (1, 2), (2, 3)]
            assert graph.failed_edges == [(3, 4)]
            assert [r.getMessage() for r in caplog.records] == \
                ["edge (3, 4) failed: device 4 sees no tag of the cube"]
            assert set(graph.global_poses) == {0, 1, 2, 3}
            for pose in graph.global_poses.values():
                assert np.abs(pose.matrix() - np.eye(4)).max() < 1e-9

    def test_reference_without_a_tag_is_posed_alone(self, rng):
        """A reference that sees no tag of the cube, in a rig with tags, has no start for
        its edge, and nothing links the cube-posed devices to it."""
        cloud = textured_cloud(rng)
        square = TAG_SQUARE
        layout = {0: square}
        fiducials = {0: {7: square}, 1: layout, 2: layout}
        graph = register_rig(dict.fromkeys(range(3), cloud), fiducials, layout, 0.02, [0, 1, 2])
        assert graph.failed_edges == [(0, 1)]
        assert list(graph.edges) == [(1, 2)]
        assert set(graph.global_poses) == {0}

    @pytest.mark.parametrize("fiducials", [dict.fromkeys(range(3), {}), {}],
                             ids=["no-tag-each", "no-fiducials"])
    def test_no_camera_sees_the_cube(self, rng, caplog, fiducials):
        """With no cube pose, every edge fails with DegenerateConfigError before ICP runs,
        only the reference is posed, and the merge holds the reference's cloud alone."""
        cloud = textured_cloud(rng)
        clouds = {dev: PointCloud(cloud.points + [0.3 * dev, 0.0, 0.0], colors=cloud.colors)
                  for dev in range(3)}
        with caplog.at_level("WARNING", logger="tofscan.registration"):
            graph = register_rig(clouds, fiducials, {0: TAG_SQUARE}, 0.02, [0, 1, 2])
        assert graph.failed_edges == [(0, 1), (1, 2)]
        assert graph.edges == {}
        assert [r.getMessage() for r in caplog.records] == \
            ["edge (0, 1) failed: device 0 sees no tag of the cube",
             "edge (1, 2) failed: device 1 sees no tag of the cube"]
        assert list(graph.global_poses) == [0]
        assert np.array_equal(graph.global_poses[0].matrix(), np.eye(4))
        merged = merge_clouds(clouds, graph, dedup_voxel=0.01)
        assert np.array_equal(merged.points, voxel_downsample(clouds[0], 0.01).points)


class TestSharedLevels:
    VOXEL = 0.02

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
        real = registration.neighbour_normals

        def counting(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(registration, "neighbour_normals", counting)
        graph = register_rig(self.chain(rng), *unmoved_tags(range(3)), self.VOXEL, [0, 1, 2])
        assert not graph.failed_edges
        assert len(calls) == 3

    def test_target_gradients_use_the_normal_query(self, rng, monkeypatch):
        """A target level's gradients use the neighbours of its normal query: each
        point's _LEVEL_K nearest."""
        queries = []
        real = registration.neighbour_normals

        def recording(points, idx, toward):
            queries.append(idx)
            return real(points, idx, toward)

        monkeypatch.setattr(registration, "neighbour_normals", recording)
        level = registration._Level(textured_cloud(rng), self.VOXEL, target=True)
        (idx,) = queries
        assert idx.shape == (len(level.points), registration._LEVEL_K)
        assert np.array_equal(level.gradients, level._gradients(idx))
        _, nearest = level.tree.query(level.points, k=registration._LEVEL_K)
        assert np.array_equal(np.sort(idx, axis=1), np.sort(nearest, axis=1))

    @pytest.mark.parametrize("target", [False, True], ids=["source", "target"])
    def test_level_ignores_the_cloud_normals(self, rng, monkeypatch, target):
        """A level of a cloud with normals makes the one _LEVEL_K query of a level
        of the same cloud without them, and gets the same normals and gradients."""
        queries = []

        class CountingTree(cKDTree):
            def query(self, x, k=1, **kwargs):
                queries.append(k)
                return super().query(x, k=k, **kwargs)

        monkeypatch.setattr("scipy.spatial.cKDTree", CountingTree)
        plain = textured_cloud(rng)
        normals = rng.standard_normal((len(plain), 3)) + [0.0, 0.0, -3.0]
        cloud = replace(plain, normals=normals / np.linalg.norm(normals, axis=1)[:, None])
        level = registration._Level(cloud, self.VOXEL, target=target)
        assert queries == [registration._LEVEL_K]
        ref = registration._Level(plain, self.VOXEL, target=target)
        assert np.array_equal(level.normals, ref.normals)
        assert (level.gradients is None) == (not target)
        if target:
            assert np.array_equal(level.gradients, ref.gradients)

    def test_edges_match_standalone_icp(self, rng):
        """Each edge is the one-scale colored_icp of its pair from its cube start."""
        clouds = self.chain(rng)
        fiducials, layout = unmoved_tags(range(3))
        graph = register_rig(clouds, fiducials, layout, self.VOXEL, [0, 1, 2])
        assert set(graph.edges) == {(0, 1), (1, 2)}
        cube = {dev: estimate_pose_from_fiducials(obs, layout) for dev, obs in fiducials.items()}
        for (a, b), r in graph.edges.items():
            alone = colored_icp(clouds[b], clouds[a], cube[a].compose(cube[b].invert()),
                                MultiScaleParams((self.VOXEL,)))
            assert np.array_equal(r.transform.matrix(), alone.transform.matrix())
            assert r.fitness == alone.fitness
            assert r.inlier_rmse == alone.inlier_rmse
            assert r.objective_history == alone.objective_history
            assert len(r.objective_history) == 1 and len(r.objective_history[0]) > 1


class TestMergeClouds:
    def _graph(self, devs):
        from tofscan.registration import PoseGraph
        return PoseGraph(devs[0], {}, {d: RigidTransform.identity() for d in devs})

    def test_single_device_unchanged(self, rng):
        cloud = textured_cloud(rng)
        merged = merge_clouds({0: cloud}, self._graph([0]), dedup_voxel=0.01)
        assert np.array_equal(merged.points, voxel_downsample(cloud, 0.01).points)

    def test_dedup_collapses_duplicates(self, rng):
        cloud = textured_cloud(rng)
        merged = merge_clouds({0: cloud, 1: cloud}, self._graph([0, 1]), dedup_voxel=0.01)
        solo = voxel_downsample(cloud, 0.01)
        assert len(merged) == len(solo)

    def test_device_without_pose_left_out(self, rng):
        cloud = textured_cloud(rng)
        far = PointCloud(cloud.points + 100.0, colors=cloud.colors)
        merged = merge_clouds({0: cloud, 5: far}, self._graph([0]), dedup_voxel=0.01)
        solo = merge_clouds({0: cloud}, self._graph([0]), dedup_voxel=0.01)
        assert np.array_equal(merged.points, solo.points)


def test_pose_graph_json_round_trip(tmp_path, rng):
    cloud = textured_cloud(rng)
    graph = register_rig({0: cloud, 1: cloud}, *unmoved_tags([0, 1]), 0.02, [0, 1])
    path = tmp_path / "poses.json"
    save_pose_graph(path, graph)
    doc = json.loads(path.read_text())
    assert doc["reference"] == graph.reference
    assert doc["failed_edges"] == [list(e) for e in graph.failed_edges]
    assert set(doc["global_poses"]) == {str(d) for d in graph.global_poses}
    for d, t in graph.global_poses.items():
        loaded = RigidTransform.from_json_dict(doc["global_poses"][str(d)], f"global_poses.{d}")
        np.testing.assert_allclose(loaded.matrix(), t.matrix(), atol=1e-15)
