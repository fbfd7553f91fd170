"""Ray-cast synthetic RGBD rendering with ToF noise and IR cross-interference.

Rays go through pixel centers; the stored depth is range along the camera +z
axis (t along the unnormalized direction ((u-cx)/fx, (v-cy)/fy, 1)), matching
commodity depth rasters. Box/cylinder/capsule hits are closed-form;
superellipsoids are bracketed by a bounding-box slab test and resolved by a
fixed-step march plus bisection, which is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import (BinaryMask, CameraIntrinsics, ColorImage, DepthImage, RigidTransform,
                       project)
from .scene import Scene, ScenePrimitive

__all__ = [
    "SensorModel", "RenderResult",
    "render", "apply_tof_noise", "apply_interference",
    "observe_tags", "save_rig", "load_rig", "rig_to_list", "rig_from_list",
]

_TMIN = 1e-6
_MARCH_STEPS = 64
_BISECT_ITERS = 40
_LIGHT_DIR = np.array([0.25, -0.15, 1.0]) / np.linalg.norm([0.25, -0.15, 1.0])


@dataclass(frozen=True)
class SensorModel:
    """One ToF sensor: pinhole intrinsics, camera-to-world pose, and range noise.

    Depth noise is Gaussian with sigma(z) = sigma0 + sigma1 * z^2 (meters).
    """

    device_id: int
    intrinsics: CameraIntrinsics
    pose: RigidTransform
    sigma0: float = 0.002
    sigma1: float = 0.0

    def __post_init__(self):
        if self.sigma0 < 0 or self.sigma1 < 0:
            raise ValueError("noise sigmas must be non-negative")

    def camera_center(self) -> np.ndarray:
        return self.pose.translation


@dataclass(frozen=True)
class RenderResult:
    depth: DepthImage
    color: ColorImage
    oracle_mask: BinaryMask  # pixels whose first hit is a target primitive


def _pixel_rays(intr: CameraIntrinsics) -> np.ndarray:
    u = np.arange(intr.width, dtype=np.float64)
    v = np.arange(intr.height, dtype=np.float64)
    uu, vv = np.meshgrid(u, v)
    d = np.empty((intr.height * intr.width, 3))
    d[:, 0] = ((uu - intr.cx) / intr.fx).ravel()
    d[:, 1] = ((vv - intr.cy) / intr.fy).ravel()
    d[:, 2] = 1.0
    return d


def _slab_interval(o: np.ndarray, d: np.ndarray, half: np.ndarray):
    """Entry/exit parameters of rays against the box |p_i| <= half_i."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-half - o) / d
        t2 = (half - o) / d
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    # d == 0 along an axis: ray parallel to slab; inside -> (-inf, inf), outside -> empty
    for ax in range(3):
        par = d[:, ax] == 0.0
        if par.any():
            inside = np.abs(o[ax]) <= half[ax]
            lo[par, ax] = -np.inf if inside else np.inf
            hi[par, ax] = np.inf if inside else -np.inf
    return lo.max(axis=1), hi.min(axis=1)


def _intersect_box(prim: ScenePrimitive, o: np.ndarray, d: np.ndarray) -> np.ndarray:
    half = np.asarray(prim.params)
    t_near, t_far = _slab_interval(o, d, half)
    t = np.where((t_near <= t_far) & (t_near > _TMIN), t_near, np.inf)
    return t


def _quad_roots(a, b, c):
    disc = b * b - 4 * a * c
    ok = disc >= 0
    sq = np.sqrt(np.where(ok, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = (-b - sq) / (2 * a)
        r2 = (-b + sq) / (2 * a)
    r1 = np.where(ok, r1, np.inf)
    r2 = np.where(ok, r2, np.inf)
    return r1, r2


def _side_wall(o: np.ndarray, d: np.ndarray, r: float, hz: float) -> list:
    """Both ray parameters at the tube x^2 + y^2 = r^2, |z| <= hz (inf where missed)."""
    a = d[:, 0] ** 2 + d[:, 1] ** 2
    b = 2 * (o[0] * d[:, 0] + o[1] * d[:, 1])
    c = o[0] ** 2 + o[1] ** 2 - r * r
    a_safe = np.where(a == 0, 1.0, a)
    r1, r2 = _quad_roots(a_safe, b, c)
    r1 = np.where(a == 0, np.inf, r1)
    r2 = np.where(a == 0, np.inf, r2)
    cands = []
    for t in (r1, r2):
        z = o[2] + t * d[:, 2]
        ok = np.isfinite(t) & (t > _TMIN) & (np.abs(z) <= hz)
        cands.append(np.where(ok, t, np.inf))
    return cands


def _intersect_cylinder(prim: ScenePrimitive, o: np.ndarray, d: np.ndarray) -> np.ndarray:
    r, h = prim.params
    hz = h / 2
    cands = _side_wall(o, d, r, hz)
    with np.errstate(divide="ignore", invalid="ignore"):
        for zcap in (hz, -hz):
            t = (zcap - o[2]) / d[:, 2]
            x = o[0] + t * d[:, 0]
            y = o[1] + t * d[:, 1]
            ok = np.isfinite(t) & (t > _TMIN) & (x * x + y * y <= r * r)
            cands.append(np.where(ok, t, np.inf))
    return np.minimum.reduce(cands)


def _intersect_capsule(prim: ScenePrimitive, o: np.ndarray, d: np.ndarray) -> np.ndarray:
    r, seg = prim.params
    hz = seg / 2
    cands = _side_wall(o, d, r, hz)
    dd = (d * d).sum(axis=1)
    for zc in (hz, -hz):
        oc = o - np.array([0.0, 0.0, zc])
        bs = 2 * (d @ oc)
        cs = oc @ oc - r * r
        s1, s2 = _quad_roots(dd, bs, cs)
        for t in (s1, s2):
            z = o[2] + t * d[:, 2]
            on_cap = z >= hz if zc > 0 else z <= -hz
            ok = np.isfinite(t) & (t > _TMIN) & on_cap
            cands.append(np.where(ok, t, np.inf))
    return np.minimum.reduce(cands)


def _intersect_superellipsoid(prim: ScenePrimitive, o: np.ndarray, d: np.ndarray) -> np.ndarray:
    t_near, t_far = _slab_interval(o, d, prim.local_bounds())
    active = (t_near <= t_far) & (t_far > _TMIN)
    t = np.full(len(d), np.inf)
    if not active.any():
        return t
    idx = np.nonzero(active)[0]
    t0 = np.maximum(t_near[idx], _TMIN)
    t1 = t_far[idx]
    dl = d[idx]

    lo = t0.copy()
    hi = np.full_like(t0, np.nan)
    found = np.zeros(len(idx), dtype=bool)
    prev = prim._superellipsoid_value(o + t0[:, None] * dl)
    for k in range(1, _MARCH_STEPS + 1):
        tk = t0 + (t1 - t0) * (k / _MARCH_STEPS)
        val = prim._superellipsoid_value(o + tk[:, None] * dl)
        crossed = ~found & (prev > 0) & (val <= 0)
        lo[crossed] = t0[crossed] + (t1[crossed] - t0[crossed]) * ((k - 1) / _MARCH_STEPS)
        hi[crossed] = tk[crossed]
        found |= crossed
        prev = val
    if not found.any():
        return t
    flo = lo[found]
    fhi = hi[found]
    fd = dl[found]
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (flo + fhi)
        v = prim._superellipsoid_value(o + mid[:, None] * fd)
        neg = v <= 0
        fhi = np.where(neg, mid, fhi)
        flo = np.where(neg, flo, mid)
    out = np.full(len(idx), np.inf)
    out[found] = 0.5 * (flo + fhi)
    t[idx] = out
    return t


_INTERSECTORS = {
    "box": _intersect_box,
    "cylinder": _intersect_cylinder,
    "capsule": _intersect_capsule,
    "superellipsoid": _intersect_superellipsoid,
}


def _surface_normal(prim: ScenePrimitive, pts_local: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.stack(prim.implicit_differences(pts_local, h), axis=1)
    n = np.linalg.norm(g, axis=1)
    n[n == 0] = 1.0
    return g / n[:, None]


def render(scene: Scene, sensor: SensorModel) -> RenderResult:
    """Cast one ray per pixel and shade the nearest hit within the background cap."""
    intr = sensor.intrinsics
    dirs_cam = _pixel_rays(intr)
    dirs_world = sensor.pose.apply_direction(dirs_cam)
    origin = sensor.camera_center()

    n = len(dirs_world)
    best_t = np.full(n, np.inf)
    best_prim = np.full(n, -1, dtype=np.int32)
    for i, prim in enumerate(scene.primitives):
        inv = prim.pose.invert()
        o_l = inv.apply(origin)
        d_l = inv.apply_direction(dirs_world)
        t = _INTERSECTORS[prim.shape](prim, o_l, d_l)
        closer = t < best_t
        best_t[closer] = t[closer]
        best_prim[closer] = i

    hit = np.isfinite(best_t) & (best_t <= scene.background_cap)
    depth_m = np.where(hit, best_t, 0.0)
    raw = np.clip(np.round(depth_m / intr.depth_scale), 0, 65535).astype(np.uint16)
    raw[~hit] = 0

    color = np.zeros((n, 3), dtype=np.float64)
    mask = np.zeros(n, dtype=bool)
    for i, prim in enumerate(scene.primitives):
        sel = hit & (best_prim == i)
        if not sel.any():
            continue
        pts_w = origin + best_t[sel, None] * dirs_world[sel]
        pts_l = prim.to_local(pts_w)
        albedo = prim.albedo_at(pts_l)
        n_l = _surface_normal(prim, pts_l)
        n_w = prim.pose.apply_direction(n_l)
        view = -dirs_world[sel]
        view = view / np.linalg.norm(view, axis=1)[:, None]
        # outward normal = implicit-gradient normal flipped toward the camera;
        # the lamp is fixed in the world so shading is view-consistent and the
        # photometric ICP term sees the same intensity from every sensor
        facing = (n_w * view).sum(axis=1)
        n_w[facing < 0] *= -1.0
        shade = 0.45 + 0.55 * np.clip(n_w @ _LIGHT_DIR, 0.0, 1.0)
        color[sel] = albedo * shade[:, None]
        if prim.label == "target":
            mask[sel] = True

    h, w = intr.height, intr.width
    depth_img = DepthImage(w, h, raw.reshape(h, w))
    color_img = ColorImage(w, h, np.clip(np.round(color * 255), 0, 255).astype(np.uint8).reshape(h, w, 3))
    oracle = BinaryMask.from_bool(mask.reshape(h, w))
    return RenderResult(depth_img, color_img, oracle)


def apply_tof_noise(depth: DepthImage, model: SensorModel, seed: int) -> DepthImage:
    """Gaussian range noise sigma(z) = sigma0 + sigma1 z^2 on the valid pixels."""
    rng = np.random.default_rng(seed)
    raw = depth.data.astype(np.float64)
    valid = raw > 0
    z = raw * model.intrinsics.depth_scale
    sigma = model.sigma0 + model.sigma1 * z * z
    noisy = z + rng.standard_normal(z.shape) * sigma
    out = np.where(valid, noisy, 0.0)
    out_raw = np.clip(np.round(out / model.intrinsics.depth_scale), 0, 65535).astype(np.uint16)
    out_raw[~valid] = 0
    return DepthImage(depth.width, depth.height, out_raw)


def apply_interference(depth: DepthImage, interferer_count: int, p_int: float, seed: int,
                       cap_m: float = 5.0, depth_scale: float = 0.001) -> DepthImage:
    """Corrupt valid pixels with probability 1 - (1 - p_int)^interferer_count.

    A corrupted pixel is zeroed with probability 0.7, otherwise replaced with a
    spurious uniform range in [0.3 m, cap_m]. Invalid pixels are never revived.
    """
    if interferer_count < 0:
        raise ValueError("interferer_count must be >= 0")
    if not (0.0 <= p_int <= 1.0):
        raise ValueError("p_int must be in [0, 1]")
    if interferer_count == 0 or p_int == 0.0:
        return DepthImage(depth.width, depth.height, depth.data.copy())
    rng = np.random.default_rng(seed)
    p_corrupt = 1.0 - (1.0 - p_int) ** interferer_count
    valid = depth.data > 0
    corrupt = (rng.random(depth.data.shape) < p_corrupt) & valid
    zero_out = rng.random(depth.data.shape) < 0.7
    spurious_m = rng.uniform(0.3, cap_m, size=depth.data.shape)
    out = depth.data.copy()
    out[corrupt & zero_out] = 0
    sp = corrupt & ~zero_out
    out[sp] = np.clip(np.round(spurious_m[sp] / depth_scale), 1, 65535).astype(np.uint16)
    return DepthImage(depth.width, depth.height, out)


def observe_tags(layout: dict[int, np.ndarray], cube_pose: RigidTransform,
                 sensor: SensorModel) -> dict[int, np.ndarray]:
    """Exact camera-frame corner geometry of the tags visible to a sensor.

    A tag is visible when its face points toward the camera and all four
    corners project inside the raster with positive depth. Detection noise is
    injected downstream by the registration module, not here.
    """
    intr = sensor.intrinsics
    world_to_cam = sensor.pose.invert()
    cam_center = sensor.camera_center()
    seen: dict[int, np.ndarray] = {}
    for tag_id, corners_cube in layout.items():
        corners_w = cube_pose.apply(corners_cube)
        axis = int(np.argmax(np.ptp(corners_cube, axis=0) == 0.0))
        normal_cube = np.zeros(3)
        normal_cube[axis] = np.sign(corners_cube[0, axis])
        normal_w = cube_pose.apply_direction(normal_cube)
        to_cam = cam_center - corners_w.mean(axis=0)
        if normal_w @ to_cam <= 0:
            continue
        corners_c = world_to_cam.apply(corners_w)
        if np.any(corners_c[:, 2] <= 0):
            continue
        u, v, _ = project(corners_c, intr)
        if np.any(u < 0) or np.any(u > intr.width - 1) or np.any(v < 0) or np.any(v > intr.height - 1):
            continue
        seen[tag_id] = corners_c
    return seen


# --- rig persistence ------------------------------------------------------

def rig_to_list(rig: list[SensorModel]) -> list[dict]:
    return [{"device_id": s.device_id, "intrinsics": s.intrinsics.to_json_dict(),
             "pose": s.pose.to_json_dict(), "sigma0": s.sigma0, "sigma1": s.sigma1}
            for s in rig]


def rig_from_list(doc: list[dict]) -> list[SensorModel]:
    """Sensors from rig JSON; a ``seed`` key is ignored, a non-zero ``dropout`` rejected."""
    for d in doc:
        if float(d.get("dropout", 0.0)) != 0.0:
            raise ValueError(f"device {d.get('device_id')}: dropout is not modelled "
                             f"(got {d['dropout']})")
    return [SensorModel(device_id=int(d["device_id"]),
                        intrinsics=CameraIntrinsics.from_json_dict(d["intrinsics"]),
                        pose=RigidTransform.from_json_dict(d["pose"]),
                        sigma0=float(d.get("sigma0", 0.002)),
                        sigma1=float(d.get("sigma1", 0.0))) for d in doc]


def save_rig(path, rig: list[SensorModel]) -> None:
    Path(path).write_text(json.dumps(rig_to_list(rig), indent=2))


def load_rig(path) -> list[SensorModel]:
    return rig_from_list(json.loads(Path(path).read_text()))
