"""Daisy-chain capture scheduling and simulated synchronized multi-device capture.

Device k in the chain opens its exposure window at k * delay_us. Two sensors
interfere when their exposure windows overlap in time AND both see the target's
bounding box (``render.box_rectangle``, a conservative test); each such partner
raises a device's interferer count, which drives the corruption in :mod:`tofscan.render`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .jsondoc import build, get
from .parallel import map_ordered
from .render import (RenderResult, SensorModel, apply_interference, apply_tof_noise,
                     box_rectangle, render)
from .scene import BOX_CORNERS, Scene

__all__ = [
    "CaptureSchedule", "CaptureResult", "RetentionStat",
    "build_schedule", "overlapping_pairs", "simulate_capture", "corrupt_device_frame",
    "write_retention_csv",
]


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
    def from_json_dict(d: dict, path: str) -> "CaptureSchedule":
        """The schedule of JSON object ``d``, read at key path ``path``."""
        return build(path, CaptureSchedule, get(d, path, "device_order", "list", "integer"),
                     get(d, path, "delay_us", "integer"), get(d, path, "exposure_us", "integer"))


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


def interferer_counts(scene: Scene, rig: list[SensorModel],
                      schedule: CaptureSchedule) -> dict[int, int]:
    """Per-device count of schedule-overlapping partners that share target visibility."""
    lo, hi = scene.target_bounds()
    corners = np.where(BOX_CORNERS > 0, hi, lo)
    pairs = overlapping_pairs(schedule)
    paired = {dev for pair in pairs for dev in pair}  # the only devices tested for visibility
    seeing = {s.device_id for s in rig if s.device_id in paired and box_rectangle(
        s.pose.invert().apply(corners), s.intrinsics, scene.background_cap) is not None}
    counts = {s.device_id: 0 for s in rig}
    for a, b in pairs:
        if a in seeing and b in seeing:
            counts[a] += 1
            counts[b] += 1
    return counts


def _device_seed(seed: int, device_id: int, draw: int) -> int:
    """Seed of a device's noise (``draw`` 0) or interference (``draw`` 1) for a capture seed."""
    return (seed * 1_000_003 + device_id * 2 + draw) & 0x7FFFFFFF


def _corrupt(clean: RenderResult, sensor: SensorModel, count: int, seed: int,
             cap_m: float):
    """Noise, then interference from ``count`` partners: the noisy depth and the frame."""
    dev = sensor.device_id
    noisy = apply_tof_noise(clean.depth, sensor, _device_seed(seed, dev, 0))
    corrupted = apply_interference(noisy, count, _device_seed(seed, dev, 1), cap_m=cap_m)
    return noisy, RenderResult(corrupted, clean.color, clean.oracle_mask)


def corrupt_device_frame(scene: Scene, rig: list[SensorModel], schedule: CaptureSchedule,
                         device_id: int, seed: int, clean: RenderResult) -> RenderResult:
    """Apply noise and interference to a device's clean render.

    ``clean`` is ``render(scene, sensor)`` for the rig's sensor ``device_id``.
    Seeding is per (capture seed, device id), so a device server computing only
    its own frame produces bytes identical to a whole-rig simulation.
    """
    sensors = {s.device_id: s for s in rig}
    if device_id not in sensors:
        raise ValueError(f"device {device_id} not in rig")
    count = interferer_counts(scene, rig, schedule)[device_id]
    return _corrupt(clean, sensors[device_id], count, seed, scene.background_cap)[1]


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

    def device(sensor: SensorModel) -> tuple[RenderResult, RetentionStat]:
        dev = sensor.device_id
        clean = renders[dev] if renders is not None else render(scene, sensor)
        noisy, frame = _corrupt(clean, sensor, counts[dev], seed, scene.background_cap)
        fg = clean.oracle_mask.data
        before = noisy.data[fg]
        after = frame.depth.data[fg]
        survived = int(((after == before) & (before > 0)).sum())
        return frame, RetentionStat(dev, int((before > 0).sum()), survived)

    done = map_ordered(device, rig)  # devices are independent: seeding is per (seed, device)
    frames = {s.device_id: frame for s, (frame, _) in zip(rig, done)}
    stats = {s.device_id: stat for s, (_, stat) in zip(rig, done)}
    return CaptureResult(frames, stats)


def write_retention_csv(path, stats: dict) -> None:
    with open(Path(path), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["device_id", "points_before", "points_after", "retention"])
        for dev in sorted(stats):
            s = stats[dev]
            w.writerow([s.device_id, s.points_before, s.points_after, f"{s.retention:.6f}"])
