"""Daisy-chain capture scheduling and simulated synchronized multi-device capture.

Device k in the chain opens its exposure window at k * delay_us. Two sensors
interfere when their exposure windows overlap in time AND both can see the
target volume; each such partner raises a device's interferer count, which
drives the per-pixel corruption model in :mod:`tofscan.render`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import project
from .render import RenderResult, SensorModel, apply_interference, apply_tof_noise, render
from .scene import Scene

__all__ = [
    "CaptureSchedule", "CaptureResult", "RetentionStat",
    "build_schedule", "overlapping_pairs", "simulate_capture", "corrupt_device_frame",
    "write_retention_csv", "DEFAULT_P_INT",
]

DEFAULT_P_INT = 0.45  # per-interferer corruption probability; 9 partners -> ~99.5% loss


@dataclass(frozen=True)
class CaptureSchedule:
    device_order: tuple
    delay_us: int
    exposure_us: int

    def __post_init__(self):
        order = tuple(int(d) for d in self.device_order)
        if not order:
            raise ValueError("schedule needs at least one device")
        if len(set(order)) != len(order):
            raise ValueError("device ids must be unique")
        if self.delay_us < 0:
            raise ValueError("delay_us must be >= 0")
        if self.exposure_us <= 0:
            raise ValueError("exposure_us must be > 0")
        object.__setattr__(self, "device_order", order)

    def to_json_dict(self) -> dict:
        return {"device_order": list(self.device_order),
                "delay_us": self.delay_us, "exposure_us": self.exposure_us}

    @staticmethod
    def from_json_dict(d: dict) -> "CaptureSchedule":
        return CaptureSchedule(tuple(d["device_order"]), int(d["delay_us"]), int(d["exposure_us"]))


def build_schedule(device_ids, delay_us: int, exposure_us: int = 125) -> CaptureSchedule:
    return CaptureSchedule(tuple(device_ids), delay_us, exposure_us)


def overlapping_pairs(schedule: CaptureSchedule) -> list[tuple[int, int]]:
    """Device pairs whose exposure windows intersect, in schedule order.

    Position k exposes over [k * delay_us, k * delay_us + exposure_us), so
    positions i < j overlap iff (j - i) * delay_us < exposure_us.
    """
    order, n = schedule.device_order, len(schedule.device_order)
    return [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
            if (j - i) * schedule.delay_us < schedule.exposure_us]


def _sees_target(sensor: SensorModel, lo: np.ndarray, hi: np.ndarray, cap: float) -> bool:
    """Conservative frustum test: does the target AABB show up in this camera?"""
    c = sensor.camera_center()
    if np.all(c >= lo) and np.all(c <= hi):
        return True
    xs = [lo[0], hi[0]]
    ys = [lo[1], hi[1]]
    zs = [lo[2], hi[2]]
    samples = [np.array([x, y, z]) for x in xs for y in ys for z in zs]
    samples.append((lo + hi) / 2)
    pts = sensor.pose.invert().apply(np.array(samples))
    ahead = pts[pts[:, 2] > 0]
    if not len(ahead):
        return False
    intr = sensor.intrinsics
    u, v, z = project(ahead, intr)
    inside = (u >= 0) & (u <= intr.width - 1) & (v >= 0) & (v <= intr.height - 1) & (z <= cap)
    return bool(inside.any())


def interferer_counts(scene: Scene, rig: list[SensorModel],
                      schedule: CaptureSchedule) -> dict[int, int]:
    """Per-device count of schedule-overlapping partners that share target visibility."""
    lo, hi = scene.target_bounds()
    sees = {s.device_id: _sees_target(s, lo, hi, scene.background_cap) for s in rig}
    counts = {s.device_id: 0 for s in rig}
    for a, b in overlapping_pairs(schedule):
        if a in sees and b in sees and sees[a] and sees[b]:
            counts[a] += 1
            counts[b] += 1
    return counts


def _noise_seed(seed: int, device_id: int) -> int:
    return (seed * 1_000_003 + device_id * 2) & 0x7FFFFFFF


def _interference_seed(seed: int, device_id: int) -> int:
    return (seed * 1_000_003 + device_id * 2 + 1) & 0x7FFFFFFF


def _corrupt(clean: RenderResult, sensor: SensorModel, count: int, seed: int,
             cap_m: float):
    """Noise, then interference from ``count`` partners: ``(noisy, corrupted)`` depth."""
    dev = sensor.device_id
    noisy = apply_tof_noise(clean.depth, sensor, _noise_seed(seed, dev))
    corrupted = apply_interference(noisy, count, p_int=DEFAULT_P_INT,
                                   seed=_interference_seed(seed, dev), cap_m=cap_m,
                                   depth_scale=sensor.intrinsics.depth_scale)
    return noisy, corrupted


def corrupt_device_frame(scene: Scene, rig: list[SensorModel], schedule: CaptureSchedule,
                         device_id: int, seed: int,
                         clean: RenderResult | None = None) -> RenderResult:
    """Render one device (or reuse a clean render) and apply noise + interference.

    Seeding is per (capture seed, device id), so a device server computing only
    its own frame produces bytes identical to a whole-rig simulation.
    """
    sensors = {s.device_id: s for s in rig}
    if device_id not in sensors:
        raise ValueError(f"device {device_id} not in rig")
    sensor = sensors[device_id]
    if clean is None:
        clean = render(scene, sensor)
    count = interferer_counts(scene, rig, schedule)[device_id]
    _, corrupted = _corrupt(clean, sensor, count, seed, scene.background_cap)
    return RenderResult(corrupted, clean.color, clean.oracle_mask)


@dataclass(frozen=True)
class RetentionStat:
    device_id: int
    points_before: int
    points_after: int

    @property
    def retention(self) -> float:
        if self.points_before == 0:
            return 1.0
        return self.points_after / self.points_before


@dataclass(frozen=True)
class CaptureResult:
    frames: dict        # device_id -> RenderResult (depth post noise+interference)
    retention: dict     # device_id -> RetentionStat


def simulate_capture(scene: Scene, rig: list[SensorModel], schedule: CaptureSchedule,
                     seed: int = 0, renders: dict | None = None) -> CaptureResult:
    """One synchronized trigger: render, per-device noise, then interference.

    Retention counts target-mask pixels whose range measurement survived
    interference unchanged; spurious replacement ranges count as lost, since
    they carry no information about the object.
    """
    rig_ids = {s.device_id for s in rig}
    sched_ids = set(schedule.device_order)
    if rig_ids != sched_ids:
        raise ValueError(f"schedule devices {sorted(sched_ids)} do not match rig {sorted(rig_ids)}")

    counts = interferer_counts(scene, rig, schedule)
    frames: dict[int, RenderResult] = {}
    stats: dict[int, RetentionStat] = {}
    for sensor in rig:
        dev = sensor.device_id
        clean = renders[dev] if renders is not None else render(scene, sensor)
        noisy, corrupted = _corrupt(clean, sensor, counts[dev], seed, scene.background_cap)
        fg = clean.oracle_mask.foreground()
        before = noisy.data[fg]
        after = corrupted.data[fg]
        survived = int(((after == before) & (before > 0)).sum())
        stats[dev] = RetentionStat(dev, int((before > 0).sum()), survived)
        frames[dev] = RenderResult(corrupted, clean.color, clean.oracle_mask)
    return CaptureResult(frames, stats)


def write_retention_csv(path, stats: dict) -> None:
    with open(Path(path), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["device_id", "points_before", "points_after", "retention"])
        for dev in sorted(stats):
            s = stats[dev]
            w.writerow([s.device_id, s.points_before, s.points_after, f"{s.retention:.6f}"])
