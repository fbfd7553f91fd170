"""End-to-end pipeline driver: capture -> segment -> back-project -> register ->
merge -> reconstruct -> measure, with session-directory persistence.

Registration starts from a calibration pass, as a cube calibration precedes
an animal scan: the rig observes the fiducial cube (exact simulated tag
corners plus 1 mm of corner noise), and each camera is posed against the
cube's known tag layout. Those cube poses start one-scale colored ICP on the
scan clouds' chain edges, and one solve fuses the corners and the edges into
every device's pose.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .capture import CaptureResult, build_schedule, simulate_capture, write_retention_csv
from .formats import encode_pgm16, encode_ppm, encode_mask_pgm, write_ply
from .geometry import PointCloud, RigidTransform, back_project
from .metrology import MeshMeasurements, measure_mesh
from .parallel import map_ordered, trim_heap
# estimate_normals is not called by a scan (its clouds carry raster normals);
# the benchmark's tracer still rebinds it here by name
from .reconstruction import TriangleMesh, estimate_normals, poisson_reconstruct  # noqa: F401
from .registration import (CORNER_NOISE_SIGMA, PoseGraph, make_observations, merge_clouds,
                           register_rig, save_calibration, save_pose_graph)
from .render import observe_tags
from .scene import Scene, cube_tag_layout
from .segmentation import ArbitrationMode, MaskPair, fuse

logger = logging.getLogger(__name__)

__all__ = ["RunConfig", "PipelineError", "PipelineResult", "run_pipeline"]


class PipelineError(RuntimeError):
    """Stage failure; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"pipeline stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline run needs; identical configs give identical output.

    Every run reconstructs and measures a mesh. The masks are the renderer's
    label masks, fused by one-vote OR; the calibration cube sits at the centre
    of the target's bounding box and its tag corners carry 1 mm of noise; the
    first device of the chain is the reference frame, ICP runs at the one
    voxel size ``registration`` (meters), the merged cloud is deduplicated at
    half of it, and the Poisson solve must reach a relative residual of 1e-6.
    """

    scene: Scene
    rig: tuple
    delay_us: int = 160
    seed: int = 0
    registration: float = 0.01
    resolution: int = 128
    cube_edge: float = 0.5
    cube_tags_per_face: int = 1
    chain_order: tuple | None = None         # every rig device once; None is id order
    out_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "rig", tuple(self.rig))
        ids = sorted(s.device_id for s in self.rig)
        order = tuple(ids if self.chain_order is None else self.chain_order)
        # a partial chain would merge, and measure, part of the target
        if sorted(order) != ids:
            raise ValueError(f"chain_order {order} does not name each of the rig's "
                             f"devices {ids} once")
        object.__setattr__(self, "chain_order", order)


@dataclass
class PipelineResult:
    measurements: MeshMeasurements
    mesh: TriangleMesh
    merged: PointCloud
    graph: PoseGraph
    capture: CaptureResult


def _stage(name, fn, *args):
    """``fn(*args)``, with any failure raised as a PipelineError naming the stage."""
    try:
        return fn(*args)
    except PipelineError:
        raise
    except Exception as e:
        raise PipelineError(name, e) from e


def _device_cloud(out: Path | None, frame, sensor) -> PointCloud:
    """One device's raster stage: its masks fused by one-vote OR, its depth lifted
    through the fused mask with normals from its pixel neighbours, and, with a
    session directory, its five files."""
    dev = sensor.device_id
    fused = _stage("segmentation", fuse, MaskPair(frame.oracle_mask, frame.oracle_mask),
                   ArbitrationMode.ONE_VOTE_OR)
    cloud = _stage("back-projection", back_project, frame.depth, sensor.intrinsics,
                   frame.color, fused)
    if out is not None:
        (out / "raw" / f"{dev}_depth.pgm").write_bytes(encode_pgm16(frame.depth))
        (out / "raw" / f"{dev}_color.ppm").write_bytes(encode_ppm(frame.color))
        (out / "masks" / f"{dev}_gtmask.pgm").write_bytes(encode_mask_pgm(frame.oracle_mask))
        (out / "masks" / f"{dev}_fused.pgm").write_bytes(encode_mask_pgm(fused))
        write_ply(out / "clouds" / f"{dev}.ply", cloud)
    return cloud


def _calibration_observations(cfg: RunConfig, layout: dict):
    """Simulated cube-calibration pass: per-device noisy observations of ``layout``'s
    tag corners."""
    lo, hi = cfg.scene.target_bounds()
    center = RigidTransform(np.eye(3), (lo + hi) / 2)
    fiducials = {}
    for sensor in cfg.rig:
        exact = observe_tags(layout, center, sensor)
        rng = np.random.default_rng((cfg.seed * 9973 + sensor.device_id * 7919) & 0x7FFFFFFF)
        fiducials[sensor.device_id] = make_observations(exact, CORNER_NOISE_SIGMA, rng)
    return fiducials


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Run every stage on one synthetic scan and measure the resulting mesh."""
    out = None
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        for sub in ("raw", "masks", "clouds"):
            (out / sub).mkdir(parents=True, exist_ok=True)

    trim_heap()  # what earlier runs in this process freed goes back to the system first
    schedule = build_schedule([s.device_id for s in cfg.rig], cfg.delay_us)
    capture = _stage("capture", simulate_capture, cfg.scene, cfg.rig, schedule, cfg.seed)

    device_ids = sorted(capture.frames)
    sensors = {s.device_id: s for s in cfg.rig}
    clouds = dict(zip(device_ids, map_ordered(
        lambda dev: _device_cloud(out, capture.frames[dev], sensors[dev]), device_ids)))

    layout = cube_tag_layout(cfg.cube_edge, cfg.cube_tags_per_face)
    fiducials = _stage("calibration", _calibration_observations, cfg, layout)
    order = list(cfg.chain_order)
    graph = _stage("registration", register_rig, clouds, fiducials, layout, cfg.registration,
                   order)

    # the merged cloud keeps each device's raster normals, averaged per voxel
    merged = _stage("merge", merge_clouds, clouds, graph, cfg.registration / 2)
    del clouds  # merged: their memory and the merge's freed temporaries
    trim_heap()  # go back to the system before the Poisson grids
    mesh = _stage("reconstruction", poisson_reconstruct, merged, cfg.resolution)
    measurements = _stage("metrology", measure_mesh, mesh)

    if out is not None:
        write_ply(out / "clouds" / "merged.ply", merged)
        write_ply(out / "mesh.ply", mesh)
        save_pose_graph(out / "poses.json", graph)
        save_calibration(out / "calibration.json", order, cfg.registration, layout,
                         fiducials)
        write_retention_csv(out / "retention.csv", capture.retention)
        (out / "session.json").write_text(json.dumps({
            "seed": cfg.seed, "delay_us": cfg.delay_us, "exposure_us": schedule.exposure_us,
            "arbitration": ArbitrationMode.ONE_VOTE_OR.value, "resolution": cfg.resolution,
            "surface_area_m2": measurements.surface_area, "volume_m3": measurements.volume},
            indent=2))
    return PipelineResult(measurements, mesh, merged, graph, capture)
