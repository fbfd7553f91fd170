"""End-to-end pipeline driver: capture -> segment -> back-project -> register ->
merge -> reconstruct -> measure, with session-directory persistence.

Registration is initialized from a calibration pass: the fiducial cube is
observed by the same rig (exact simulated tag corners plus configurable corner
noise) and the resulting pairwise estimates seed the colored ICP chain on the
actual scan clouds, mirroring a cube calibration followed by an animal scan.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .capture import CaptureResult, build_schedule, simulate_capture, write_retention_csv
from .formats import encode_pgm16, encode_ppm, encode_mask_pgm, write_ply
from .geometry import PointCloud, RigidTransform, back_project
from .metrology import MeshMeasurements, measure_mesh
from .reconstruction import TriangleMesh, estimate_normals, poisson_reconstruct
from .registration import (MultiScaleParams, PoseGraph, make_observations, merge_clouds,
                           register_rig, save_pose_graph)
from .render import observe_tags
from .scene import Scene, cube_tag_layout
from .segmentation import ArbitrationMode, MaskPair, fuse, load_masks

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

    Masks are fused by one-vote OR, the calibration cube sits at the centre of
    the target's bounding box, the first device of the chain is the reference
    frame, the merged cloud is deduplicated at half the finest ICP voxel, and
    the Poisson solve must reach a relative residual of 1e-6.
    """

    scene: Scene
    rig: tuple
    delay_us: int = 160
    exposure_us: int = 125
    seed: int = 0
    registration: MultiScaleParams = field(default_factory=MultiScaleParams)
    resolution: int = 128
    masks_dir: str | None = None             # None -> simulator oracle masks
    cube_edge: float = 0.5
    cube_tags_per_face: int = 1
    corner_noise_sigma: float = 0.001
    chain_order: tuple | None = None         # defaults to rig device-id order
    out_dir: str | None = None
    reconstruct: bool = True                 # False: stop after the merged cloud

    def __post_init__(self):
        object.__setattr__(self, "rig", tuple(self.rig))


@dataclass
class PipelineResult:
    measurements: MeshMeasurements
    mesh: TriangleMesh
    merged: PointCloud
    graph: PoseGraph
    capture: CaptureResult


def _stage(name):
    def wrap(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PipelineError:
            raise
        except Exception as e:
            raise PipelineError(name, e) from e
    return wrap


def _calibration_observations(cfg: RunConfig):
    """Simulated cube-calibration pass: per-device noisy tag corner observations."""
    lo, hi = cfg.scene.target_bounds()
    center = RigidTransform(np.eye(3), (lo + hi) / 2)
    layout = cube_tag_layout(cfg.cube_edge, cfg.cube_tags_per_face)
    fiducials = {}
    for sensor in cfg.rig:
        exact = observe_tags(layout, center, sensor)
        rng = np.random.default_rng((cfg.seed * 9973 + sensor.device_id * 7919) & 0x7FFFFFFF)
        fiducials[sensor.device_id] = make_observations(exact, cfg.corner_noise_sigma, rng)
    return fiducials, layout


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    """Run every stage on one synthetic scan and measure the resulting mesh."""
    out = None
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        for sub in ("raw", "masks", "clouds"):
            (out / sub).mkdir(parents=True, exist_ok=True)

    schedule = build_schedule([s.device_id for s in cfg.rig], cfg.delay_us, cfg.exposure_us)
    capture = _stage("capture")(simulate_capture, cfg.scene, cfg.rig, schedule, cfg.seed)

    device_ids = sorted(capture.frames)
    if cfg.masks_dir is not None:
        pairs = _stage("segmentation")(load_masks, cfg.masks_dir, device_ids)
    else:
        pairs = {dev: MaskPair(capture.frames[dev].oracle_mask, capture.frames[dev].oracle_mask)
                 for dev in device_ids}

    sensors = {s.device_id: s for s in cfg.rig}
    clouds: dict[int, PointCloud] = {}
    for dev in device_ids:
        frame = capture.frames[dev]
        fused = _stage("segmentation")(fuse, pairs[dev], ArbitrationMode.ONE_VOTE_OR)
        clouds[dev] = _stage("back-projection")(
            back_project, frame.depth, sensors[dev].intrinsics, frame.color, fused)
        if out is not None:
            (out / "raw" / f"{dev}_depth.pgm").write_bytes(encode_pgm16(frame.depth))
            (out / "raw" / f"{dev}_color.ppm").write_bytes(encode_ppm(frame.color))
            (out / "masks" / f"{dev}_gtmask.pgm").write_bytes(encode_mask_pgm(frame.oracle_mask))
            (out / "masks" / f"{dev}_fused.pgm").write_bytes(encode_mask_pgm(fused))
            write_ply(out / "clouds" / f"{dev}.ply", clouds[dev])

    fiducials, layout = _stage("calibration")(_calibration_observations, cfg)
    order = list(cfg.chain_order) if cfg.chain_order is not None else device_ids
    graph = _stage("registration")(register_rig, clouds, fiducials, cfg.registration,
                                   layout, order)

    reachable = {d: clouds[d] for d in graph.global_poses if d in clouds}
    merged = _stage("merge")(merge_clouds, reachable, graph,
                             cfg.registration.voxel_sizes[-1] / 2)

    mesh = None
    measurements = None
    if cfg.reconstruct:
        centers = {dev: graph.global_poses[dev].translation for dev in graph.global_poses}
        oriented = _stage("normal-estimation")(estimate_normals, merged, centers)
        mesh = _stage("reconstruction")(poisson_reconstruct, oriented, cfg.resolution)
        measurements = _stage("metrology")(measure_mesh, mesh)

    if out is not None:
        write_ply(out / "clouds" / "merged.ply", merged)
        if mesh is not None:
            write_ply(out / "mesh.ply", vertices=mesh.vertices, triangles=mesh.triangles)
        save_pose_graph(out / "poses.json", graph)
        write_retention_csv(out / "retention.csv", capture.retention)
        (out / "session.json").write_text(json.dumps({
            "seed": cfg.seed, "delay_us": cfg.delay_us, "exposure_us": cfg.exposure_us,
            "arbitration": ArbitrationMode.ONE_VOTE_OR.value, "resolution": cfg.resolution,
            "surface_area_m2": None if measurements is None else measurements.surface_area,
            "volume_m3": None if measurements is None else measurements.volume}, indent=2))
    return PipelineResult(measurements, mesh, merged, graph, capture)
