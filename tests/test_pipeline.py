import threading

import numpy as np
import pytest
from dataclasses import replace

from tofscan import pipeline, registration

from tofscan.experiments import KNOWN_CYLINDER, known_object_config
from tofscan.geometry import BinaryMask, DepthImage, RigidTransform
from tofscan.pipeline import PipelineError, run_pipeline
from tofscan.scene import Scene, box, make_known_object_scene


@pytest.fixture(scope="module")
def cylinder_cfg():
    return replace(known_object_config(make_known_object_scene(KNOWN_CYLINDER)), resolution=64)


@pytest.fixture(scope="module")
def cylinder_run(cylinder_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("session")
    return run_pipeline(replace(cylinder_cfg, out_dir=str(out))), out


def test_pipeline_produces_measurements(cylinder_run):
    result, _ = cylinder_run
    assert result.measurements.surface_area > 0
    assert result.measurements.volume > 0
    assert not result.graph.failed_edges


def test_session_directory_layout(cylinder_run, cylinder_cfg):
    _, out = cylinder_run
    n = len(cylinder_cfg.rig)
    assert len(list((out / "raw").glob("*_depth.pgm"))) == n
    assert len(list((out / "raw").glob("*_color.ppm"))) == n
    assert len(list((out / "masks").glob("*_gtmask.pgm"))) == n
    assert len(list((out / "masks").glob("*_fused.pgm"))) == n
    assert len(list((out / "clouds").glob("*.ply"))) == n + 1  # per-device + merged
    assert (out / "poses.json").exists()
    assert (out / "mesh.ply").exists()
    assert (out / "retention.csv").exists()
    assert (out / "session.json").exists()


def test_end_to_end_determinism(cylinder_cfg):
    a = run_pipeline(cylinder_cfg)
    b = run_pipeline(cylinder_cfg)
    assert a.measurements == b.measurements
    assert np.array_equal(a.mesh.vertices, b.mesh.vertices)


def test_outputs_do_not_depend_on_the_worker_count(cylinder_cfg, workers):
    """Every map inline, then on a pool: the same mesh and merged-cloud bytes, edges
    and retention."""
    runs = []
    for n in (0, 2):
        workers(n)
        runs.append(run_pipeline(cylinder_cfg))
    inline, pooled = runs
    assert inline.mesh.vertices.tobytes() == pooled.mesh.vertices.tobytes()
    assert inline.mesh.triangles.tobytes() == pooled.mesh.triangles.tobytes()
    assert inline.merged.points.tobytes() == pooled.merged.points.tobytes()
    assert inline.merged.colors.tobytes() == pooled.merged.colors.tobytes()
    assert list(inline.graph.edges) == list(pooled.graph.edges)
    for edge, r in inline.graph.edges.items():
        p = pooled.graph.edges[edge]
        assert np.array_equal(r.transform.matrix(), p.transform.matrix())
        assert (r.fitness, r.inlier_rmse) == (p.fitness, p.inlier_rmse)
    assert inline.capture.retention == pooled.capture.retention


def test_worker_exception_is_a_registration_error(cylinder_cfg, workers, monkeypatch):
    """A non-ICP exception in a pool thread's chain edge surfaces as the stage's error."""
    workers(2)
    real = registration._icp
    raised = threading.Event()

    def icp(*args):
        if threading.current_thread().name.startswith("tofscan-map"):
            raised.set()
            raise RuntimeError("edge worker failed")
        raised.wait(timeout=30)  # the caller's own edges wait until a worker has failed
        return real(*args)

    monkeypatch.setattr(registration, "_icp", icp)
    with pytest.raises(PipelineError) as e:
        run_pipeline(cylinder_cfg)
    assert raised.is_set()
    assert e.value.stage == "registration"
    assert type(e.value.cause) is RuntimeError


def replace_frame(monkeypatch, dev, **fields):
    """Make run_pipeline's capture give device ``dev`` a frame with ``fields`` replaced."""
    real = pipeline.simulate_capture

    def simulate_capture(*args):
        capture = real(*args)
        return replace(capture, frames={**capture.frames,
                                        dev: replace(capture.frames[dev], **fields)})

    monkeypatch.setattr(pipeline, "simulate_capture", simulate_capture)


def test_device_with_an_empty_mask_keeps_its_fiducial_pose(cylinder_cfg, monkeypatch):
    """An empty fused mask gives that device no points: its edges skip ICP, keep the
    fiducial estimate with an empty objective history, and are not failures."""
    devices = sorted(s.device_id for s in cylinder_cfg.rig)
    order = list(cylinder_cfg.chain_order)
    empty = order[len(order) // 2]
    intr = next(s.intrinsics for s in cylinder_cfg.rig if s.device_id == empty)
    replace_frame(monkeypatch, empty,
                  oracle_mask=BinaryMask(np.zeros((intr.height, intr.width), bool)))
    result = run_pipeline(cylinder_cfg)

    graph = result.graph
    prev, nxt = order[order.index(empty) - 1], order[order.index(empty) + 1]
    fiducials = pipeline._calibration_observations(cylinder_cfg)
    chain = graph.global_poses[prev].compose(
        registration.estimate_pose_from_fiducials(fiducials[prev], fiducials[empty]))
    assert np.array_equal(graph.global_poses[empty].matrix(), chain.matrix())
    for edge in ((prev, empty), (empty, nxt)):
        assert graph.edges[edge].objective_history == []
        assert edge not in graph.failed_edges
    assert not graph.failed_edges
    assert set(graph.global_poses) == set(devices)
    assert result.measurements.volume > 0


@pytest.mark.parametrize("n", [0, 2])
def test_failed_back_projection_names_its_stage(cylinder_cfg, workers, monkeypatch, n):
    """One device whose depth raster does not fit its intrinsics ends the run with the
    back-projection stage's error, inline and on the pool."""
    workers(n)
    replace_frame(monkeypatch, cylinder_cfg.rig[1].device_id,
                  depth=DepthImage(np.zeros((2, 2), np.uint16)))
    with pytest.raises(PipelineError) as e:
        run_pipeline(cylinder_cfg)
    assert e.value.stage == "back-projection"
    assert type(e.value.cause) is ValueError
    assert "depth raster 2x2" in str(e.value.cause)


def test_chute_points_absent_from_merged_cloud(cylinder_cfg):
    """Oracle masks exclude chute-labeled geometry from the clouds entirely."""
    walls = [box((0.02, 0.4, 0.4), pose=RigidTransform(np.eye(3), (x, 0, 0.8)),
                 label="chute") for x in (-0.75, 0.75)]
    scene = Scene((KNOWN_CYLINDER, *walls), background_cap=5.0)
    cfg = replace(cylinder_cfg, scene=scene)
    result = run_pipeline(cfg)
    sensors = {s.device_id: s for s in cfg.rig}
    world = sensors[result.graph.reference].pose.apply(result.merged.points)
    d_chute = scene.sdf(world, labels=("chute",))
    assert d_chute.min() > 0.01


def test_stage_name_attached_to_errors(cylinder_cfg):
    """A scene with only the background ground slab fails in capture, with the cause kept."""
    ground_only = Scene(cylinder_cfg.scene.labeled("background"), background_cap=5.0)
    with pytest.raises(PipelineError) as e:
        run_pipeline(replace(cylinder_cfg, scene=ground_only))
    assert e.value.stage == "capture"
    assert type(e.value.cause) is ValueError
    assert str(e.value.cause) == "scene has no target-labeled primitive"


def test_unsynchronized_capture_guts_the_merged_cloud(cylinder_cfg, cylinder_run):
    """Zero delay leaves <= 20% of the synchronized on-target point count."""
    from conftest import target_surface_count
    sensors = {s.device_id: s for s in cylinder_cfg.rig}

    sync, _ = cylinder_run
    world = sensors[sync.graph.reference].pose.apply(sync.merged.points)
    n_sync = target_surface_count(world, cylinder_cfg.scene)
    assert n_sync > 1000

    degraded = run_pipeline(replace(cylinder_cfg, delay_us=0))
    world0 = sensors[degraded.graph.reference].pose.apply(degraded.merged.points)
    n0 = target_surface_count(world0, cylinder_cfg.scene)
    assert n0 <= 0.20 * n_sync
