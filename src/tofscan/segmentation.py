"""Voting arbitration between RGB- and depth-derived masks, plus quality metrics.

The mask provider is pluggable: simulator oracle masks and file-loaded masks
travel through the same code path. The fused mask is applied by
``geometry.back_project``. Metric definitions:

    iou      = |P ∩ G| / |P ∪ G|          (1.0 when both empty)
    fn_rate  = 100 * |G \\ P| / |G|
    fp_rate  = 100 * |P \\ G| / (total - |G|)   (false positives over true background)

The false-positive denominator is the true-background pixel count so that both
rates live in [0, 100].
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

from .formats import decode_mask_pgm
from .geometry import BinaryMask, check_size

__all__ = [
    "ArbitrationMode", "MaskPair", "SegMetrics",
    "fuse", "metrics", "load_masks",
]


class ArbitrationMode(enum.Enum):
    RGB_ONLY = "rgb"
    DEPTH_ONLY = "depth"
    ONE_VOTE_OR = "or"
    TWO_VOTE_AND = "and"


@dataclass(frozen=True)
class MaskPair:
    rgb_mask: BinaryMask
    depth_mask: BinaryMask

    def __post_init__(self):
        check_size("rgb mask", self.rgb_mask, "depth mask", self.depth_mask)


@dataclass(frozen=True)
class SegMetrics:
    iou: float
    fp_rate: float  # percent
    fn_rate: float  # percent


def fuse(pair: MaskPair, mode: ArbitrationMode) -> BinaryMask:
    """Pixelwise vote: OR = 1-vote union, AND = 2-vote intersection."""
    if mode is ArbitrationMode.RGB_ONLY:
        return pair.rgb_mask
    if mode is ArbitrationMode.DEPTH_ONLY:
        return pair.depth_mask
    a, b = pair.rgb_mask.data, pair.depth_mask.data
    return BinaryMask(a | b if mode is ArbitrationMode.ONE_VOTE_OR else a & b)


def metrics(pred: BinaryMask, gt: BinaryMask) -> SegMetrics:
    """IOU, false-positive and false-negative rates of ``pred`` against ``gt``."""
    check_size("prediction", pred, "ground truth", gt)
    p, g = pred.data, gt.data
    n_g = int(g.sum())
    n_p = int(p.sum())
    if n_g == 0:
        raise ValueError("ground truth has empty foreground; fn rate undefined")
    inter = int((p & g).sum())
    union = n_p + n_g - inter
    iou = 1.0 if union == 0 else inter / union
    fn = 100.0 * (n_g - inter) / n_g
    background = p.size - n_g
    fp = 0.0 if background == 0 else 100.0 * (n_p - inter) / background
    return SegMetrics(iou=iou, fp_rate=fp, fn_rate=fn)


def load_masks(directory, device_ids) -> dict[int, MaskPair]:
    """Load <device>_rgbmask.pgm / <device>_depthmask.pgm pairs for every device."""
    directory = Path(directory)
    out: dict[int, MaskPair] = {}
    for dev in device_ids:
        pair = []
        for suffix in ("rgbmask", "depthmask"):
            path = directory / f"{dev}_{suffix}.pgm"
            if not path.exists():
                raise FileNotFoundError(f"missing {suffix} for device {dev}: {path}")
            try:
                pair.append(decode_mask_pgm(path.read_bytes()))
            except ValueError as e:
                raise ValueError(f"{path}: {e}") from e
        out[int(dev)] = MaskPair(rgb_mask=pair[0], depth_mask=pair[1])
    return out
