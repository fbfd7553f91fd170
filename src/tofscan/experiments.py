"""Experiment runners: known-object metrology, synchronization study, cattle analogue.

The studies' tuned setups (objects, orientations, texture, run configs) are
defined here once; the CLI and the tests build from them.

Reports carry per-run measurements, mean/std per quantity, the independent
reference (closed form or voxelization oracle), and the percent error of the
mean, defined as 100 * |mean - reference| / reference.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .capture import build_schedule, simulate_capture
from .geometry import RigidTransform
from .metrology import MeshMeasurements
from .oracle import oracle_measurements
from .pipeline import PipelineError, RunConfig, run_pipeline
from .render import render
from .rigs import CATTLE_CHAIN, KNOWN_OBJECT_CHAIN, RING_CENTER, cattle_rig, known_object_rig
from .scene import Scene, ScenePrimitive, box, cylinder, make_known_object_scene

logger = logging.getLogger(__name__)

__all__ = ["ExperimentReport", "run_known_object_experiment",
           "run_interference_experiment", "run_animal_experiment",
           "write_report_csv", "write_retention_report_csv",
           "TEXTURE", "ORIENTATIONS", "KNOWN_CYLINDER", "KNOWN_BOXES", "SYNC_SCENE",
           "KNOWN_OBJECT_REGISTRATION", "known_object_config", "animal_config"]

# --- study presets: the tuned setups of the three studies ---------------------

# smooth at voxel scale, so colored ICP sees view-consistent colors
TEXTURE = {"kind": "smooth_noise", "scale": 0.07, "color2": (0.2, 0.25, 0.55)}
_SUSPENDED = RigidTransform(np.eye(3), RING_CENTER)

# cylinder orientations of the known-object study, applied about its center
ORIENTATIONS = (RigidTransform.identity(),
                RigidTransform.from_axis_angle((0, 1, 0), np.pi / 2),
                RigidTransform.from_axis_angle((1, 0, 0), np.pi / 2),
                RigidTransform.from_axis_angle((1, 1, 0), np.pi / 5),
                RigidTransform.from_axis_angle((1, 0, 1), 2 * np.pi / 5))
KNOWN_CYLINDER = cylinder(0.1, 0.3, pose=_SUSPENDED, albedo=(0.85, 0.7, 0.4), texture=TEXTURE)
KNOWN_BOXES = {name: box(half, pose=_SUSPENDED, albedo=(0.8, 0.75, 0.55), texture=TEXTURE)
               for name, half in (("small", (0.125, 0.10, 0.075)),
                                  ("medium", (0.20, 0.15, 0.125)),
                                  ("large", (0.30, 0.22, 0.18)))}
# synchronization study: the medium box, untextured (capture only, no registration)
SYNC_SCENE = make_known_object_scene(replace(KNOWN_BOXES["medium"], texture=None))

# voxelization oracle spacing for the scale-1 animal, in meters
_ORACLE_SPACING = 0.004

# the known-object ICP voxel size: half the default
KNOWN_OBJECT_REGISTRATION = 0.005


def known_object_config(scene: Scene) -> RunConfig:
    """The known-object study's run: 10-sensor ring, 0.4 m calibration cube, 128^3 grid."""
    return RunConfig(scene=scene, rig=known_object_rig(),
                     registration=KNOWN_OBJECT_REGISTRATION, resolution=128,
                     cube_edge=0.4, cube_tags_per_face=4, chain_order=KNOWN_OBJECT_CHAIN)


def animal_config(scene: Scene) -> RunConfig:
    """The cattle-analogue study's run: 8-sensor chute rig, 0.6 m calibration cube, 192^3 grid."""
    return RunConfig(scene=scene, rig=cattle_rig(), resolution=192,
                     cube_edge=0.6, cube_tags_per_face=4, chain_order=CATTLE_CHAIN)


def _pct_err(value: float, reference: float) -> float:
    return 100.0 * abs(value - reference) / reference


@dataclass
class ExperimentReport:
    object_id: str
    runs: list                    # MeshMeasurements, successful runs only
    seeds: list
    reference: MeshMeasurements
    failed_runs: list = field(default_factory=list)   # (seed/tag, reason)

    @property
    def mean_area(self) -> float:
        return float(np.mean([r.surface_area for r in self.runs]))

    @property
    def std_area(self) -> float:
        return float(np.std([r.surface_area for r in self.runs]))

    @property
    def mean_volume(self) -> float:
        return float(np.mean([r.volume for r in self.runs]))

    @property
    def pct_err_area(self) -> float:
        return _pct_err(self.mean_area, self.reference.surface_area)

    @property
    def pct_err_volume(self) -> float:
        return _pct_err(self.mean_volume, self.reference.volume)

    def summary(self) -> str:
        return (f"{self.object_id}: area {self.mean_area:.4f} m^2 "
                f"(ref {self.reference.surface_area:.4f}, err {self.pct_err_area:.2f}%, "
                f"std {self.std_area:.4f}), volume {self.mean_volume:.6f} m^3 "
                f"(ref {self.reference.volume:.6f}, err {self.pct_err_volume:.2f}%), "
                f"{len(self.runs)} runs, {len(self.failed_runs)} failed")


def _study(object_id: str, reference: MeshMeasurements, cfgs) -> ExperimentReport:
    """One measured run per config, in order; a failed run is logged and recorded by seed.

    A run with a diverged registration edge fails too: ``run_pipeline`` merges
    only the devices reachable along the chain, so it would measure part of the object.
    """
    runs, seeds, failed = [], [], []
    for cfg in cfgs:
        try:
            result = run_pipeline(cfg)
            edges = result.graph.failed_edges
            reason = f"diverged edges {edges}" if edges else ""
        except PipelineError as e:
            reason = str(e)
        if reason:
            logger.warning("%s run seed %d failed: %s", object_id, cfg.seed, reason)
            failed.append((cfg.seed, reason))
        else:
            runs.append(result.measurements)
            seeds.append(cfg.seed)
    return ExperimentReport(object_id, runs, seeds, reference, failed)


def run_known_object_experiment(object_id: str, obj: ScenePrimitive, n_runs: int,
                                orientations: list[RigidTransform],
                                cfg: RunConfig) -> ExperimentReport:
    """Pipeline per (orientation x seed) against the closed-form reference.

    ``obj`` is posed at each orientation (composed with its own pose); failed
    runs, including runs with a diverged registration edge, are recorded,
    excluded from the statistics, and flagged. The report is named
    ``object_id``.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    reference = oracle_measurements(obj)
    cfgs = []
    for oi, orient in enumerate(orientations):
        # rotate in place about the object's own center so it stays in the rig
        center = obj.pose.translation
        pose = RigidTransform(orient.rotation @ obj.pose.rotation,
                              center + orient.translation)
        posed = replace(obj, pose=pose)
        scene = Scene(make_known_object_scene(posed).primitives, cfg.scene.background_cap)
        cfgs += [replace(cfg, scene=scene, seed=cfg.seed + 1000 * oi + run)
                 for run in range(n_runs)]
    return _study(object_id, reference, cfgs)


def run_interference_experiment(delays_us: list[int], cfg: RunConfig,
                                n_seeds: int = 20) -> dict[int, float]:
    """Mean target-point retention per daisy-chain delay, averaged over seeds.

    The clean renders are reused across seeds and delays (rendering is
    deterministic); only the noise/interference corruption is re-drawn.
    """
    if not delays_us:
        raise ValueError("need at least one delay")
    renders = {s.device_id: render(cfg.scene, s) for s in cfg.rig}
    out: dict[int, float] = {}
    for delay in delays_us:
        schedule = build_schedule([s.device_id for s in cfg.rig], delay)
        values = []
        for k in range(n_seeds):
            capture = simulate_capture(cfg.scene, list(cfg.rig), schedule,
                                       seed=cfg.seed + k, renders=renders)
            stats = capture.retention.values()
            values.append(float(np.mean([s.retention for s in stats])))
        out[delay] = float(np.mean(values))
    return out


def run_animal_experiment(scale: float, n_runs: int, cfg: RunConfig,
                          reference: MeshMeasurements | None = None) -> ExperimentReport:
    """Synthetic cattle analogue: n_runs scans of ``cfg.scene`` vs the voxelization oracle.

    Mirrors the live protocol of scanning each animal several times and
    averaging; requires n_runs >= 5. ``scale`` names the report and scales
    the oracle's 4 mm spacing. A precomputed ``reference`` skips the oracle
    voxelization.
    """
    if n_runs < 5:
        raise ValueError("the scan protocol uses at least 5 runs per animal")
    if reference is None:
        reference = oracle_measurements(cfg.scene, spacing=_ORACLE_SPACING * scale)
    return _study(f"animal-x{scale:g}", reference,
                  [replace(cfg, seed=cfg.seed + run) for run in range(n_runs)])


def write_report_csv(path, *reports: ExperimentReport) -> None:
    """One CSV for any number of reports: one header, then each report's runs and mean."""
    with open(Path(path), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["object_id", "run", "seed", "surface_area_m2", "volume_m3",
                    "ref_area", "ref_volume", "pct_err_area", "pct_err_volume"])
        for report in reports:
            ref = report.reference
            rows = [(i, seed, m.surface_area, m.volume)
                    for i, (m, seed) in enumerate(zip(report.runs, report.seeds))]
            for run, seed, area, vol in rows + [("mean", "", report.mean_area,
                                                 report.mean_volume)]:
                w.writerow([report.object_id, run, seed, f"{area:.6f}", f"{vol:.8f}",
                            f"{ref.surface_area:.6f}", f"{ref.volume:.8f}",
                            f"{_pct_err(area, ref.surface_area):.4f}",
                            f"{_pct_err(vol, ref.volume):.4f}"])


def write_retention_report_csv(path, retention_by_delay: dict[int, float]) -> None:
    with open(Path(path), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["delay_us", "mean_retention"])
        for delay in sorted(retention_by_delay):
            w.writerow([delay, f"{retention_by_delay[delay]:.6f}"])
