"""Camera rig builders: look-at poses and the default sensor layouts.

Two stock layouts: a 10-sensor ring (five rods, two heights) used for the
known-object and interference studies, and an 8-sensor chute rig (2 covering
the head, 2 on top, 4 on the body sides). Chain order in each builder lists
physically adjacent sensors consecutively so that neighbors share calibration
cube faces and view overlap.
"""

from __future__ import annotations

import numpy as np

from .geometry import CameraIntrinsics, RigidTransform
from .render import SensorModel

__all__ = ["look_at", "default_intrinsics", "known_object_rig", "cattle_rig",
           "KNOWN_OBJECT_CHAIN", "CATTLE_CHAIN"]

# registration chain orders: consecutive devices share calibration-cube faces
# and view overlap (same rod first, then same-height ring hops)
KNOWN_OBJECT_CHAIN = (0, 1, 3, 2, 4, 5, 7, 6, 8, 9)
# walk: top-rear, +y side rear/front, +y head, top-front, -y head, -y side front/rear
CATTLE_CHAIN = (3, 2, 1, 0, 4, 7, 6, 5)


def look_at(eye, center) -> RigidTransform:
    """Camera-to-world pose: +z toward ``center``, +y (image down) roughly along world -z.

    A view along world ±z takes its right axis from world +x instead.
    """
    eye = np.asarray(eye, dtype=np.float64)
    f = np.asarray(center, dtype=np.float64) - eye
    nf = np.linalg.norm(f)
    if nf == 0:
        raise ValueError("eye and center coincide")
    f = f / nf
    r = np.cross(f, (0.0, 0.0, 1.0))
    if np.linalg.norm(r) < 1e-9:
        r = np.cross(f, (1.0, 0.0, 0.0))
    r = r / np.linalg.norm(r)
    d = np.cross(f, r)  # image-down axis
    rot = np.column_stack([r, d, f])
    return RigidTransform(rot, eye)


def default_intrinsics(width: int = 320, height: int = 240) -> CameraIntrinsics:
    """Square pixels, focal length 0.7 * width, principal point at the raster centre."""
    f = 0.7 * width
    return CameraIntrinsics(fx=f, fy=f, cx=(width - 1) / 2, cy=(height - 1) / 2,
                            width=width, height=height)


# tuned sensor noise sigma(z) = SENSOR_SIGMA0 + SENSOR_SIGMA1 * z^2 (meters)
SENSOR_SIGMA0, SENSOR_SIGMA1 = 0.0015, 0.0003
KNOWN_OBJECT_INTRINSICS = default_intrinsics()
CATTLE_INTRINSICS = default_intrinsics(384, 288)
# known-object ring: rods on a circle about the center, one sensor per rod height
RING_RODS, RING_RADIUS, RING_CENTER, ROD_HEIGHTS = 5, 1.2, (0.0, 0.0, 0.8), (0.45, 1.15)


def known_object_rig() -> list[SensorModel]:
    """Sensors paired on rods around a suspended object; ids walk rod by rod.

    Every sensor has the tuned noise ``SENSOR_SIGMA0``, ``SENSOR_SIGMA1``.
    """
    rig = []
    for k in range(RING_RODS):
        angle = 2 * np.pi * k / RING_RODS
        x = RING_CENTER[0] + RING_RADIUS * np.cos(angle)
        y = RING_CENTER[1] + RING_RADIUS * np.sin(angle)
        for z in ROD_HEIGHTS:
            pose = look_at((x, y, z), RING_CENTER)
            rig.append(SensorModel(len(rig), KNOWN_OBJECT_INTRINSICS, pose,
                                   SENSOR_SIGMA0, SENSOR_SIGMA1))
    return rig


def cattle_rig(intrinsics: CameraIntrinsics = CATTLE_INTRINSICS,
               sigma0: float = SENSOR_SIGMA0,
               sigma1: float = SENSOR_SIGMA1) -> list[SensorModel]:
    """8 sensors around the chute volume, ordered as a view-overlap chain.

    Walks one body side head-to-tail, crosses over the top, and returns along
    the other side to the head cameras, keeping consecutive devices' frustums
    overlapped.
    """
    head = (1.15, 0.0, 1.35)
    # side cameras sit below the body midline so their rays pass under the
    # flank and over the chute rail, covering the belly
    stations = [
        ((2.35, 0.75, 1.70), head),     # head side +y
        ((1.45, 1.70, 0.78), (0.5, 0.0, 0.95)),   # body side +y, front
        ((-0.95, 1.70, 0.78), (-0.4, 0.0, 0.95)),  # body side +y, rear
        ((-0.65, 0.0, 2.85), (-0.3, 0.0, 1.0)),   # top, rear
        ((0.65, 0.0, 2.85), (0.3, 0.0, 1.0)),     # top, front
        ((-0.95, -1.70, 0.78), (-0.4, 0.0, 0.95)),  # body side -y, rear
        ((1.45, -1.70, 0.78), (0.5, 0.0, 0.95)),   # body side -y, front
        ((2.35, -0.75, 1.70), head),    # head side -y
    ]
    return [SensorModel(dev, intrinsics, look_at(eye, at), sigma0, sigma1)
            for dev, (eye, at) in enumerate(stations)]
