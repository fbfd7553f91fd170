"""Ray-cast synthetic RGBD rendering with ToF noise and IR cross-interference.

Rays go through pixel centers; the stored depth is range along the camera +z
axis (t along the unnormalized direction ((u-cx)/fx, (v-cy)/fy, 1)), matching
commodity depth rasters. Each primitive is intersected only with the rays of
the pixels inside the screen rectangle of its local bounding box, clipped
between the camera's near side and the background cap (``box_rectangle``).
Box/cylinder/capsule hits are closed-form; a superellipsoid ray is clipped to
the bounding box by a slab test and marched over 64 fixed samples to its first
crossing. Its implicit function is convex along the ray, so the march skips
the samples a chord proves outside, drops a ray the chord proves a miss, and
leaves a ray once it crosses. Illinois steps then refine the crossing's
bracket to 1e-9 m. Every step is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import (DEPTH_SCALE, BinaryMask, CameraIntrinsics, ColorImage, DepthImage,
                       RigidTransform, project)
from .jsondoc import build, check, get
from .scene import BOX_CORNERS, Scene, ScenePrimitive

__all__ = [
    "SensorModel", "RenderResult",
    "render", "box_rectangle", "apply_tof_noise", "apply_interference",
    "observe_tags", "save_rig", "load_rig", "rig_to_list", "rig_from_list",
]

_TMIN = 1e-6
_MARCH_STEPS = 64
_REFINE_TOL = 1e-9  # width in t (camera depth, m) below which a hit's bracket is final
_ILLINOIS_STEPS = 16  # then halvings finish a bracket that is still wider
_LIGHT_DIR = np.array([0.25, -0.15, 1.0]) / np.linalg.norm([0.25, -0.15, 1.0])
_P_INT = 0.45  # per-interferer corruption probability; 9 partners -> ~99.5% loss
# corner pairs of BOX_CORNERS that differ in one coordinate: the box's 12 edges
_BOX_EDGES = np.array([(i, j) for i in range(8) for j in range(i + 1, 8)
                       if bin(i ^ j).count("1") == 1])


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
    """First-crossing ray parameters, inf for a miss: ``_march``, then ``_refine``."""
    t_near, t_far = _slab_interval(o, d, prim.local_bounds())
    idx = np.nonzero((t_near <= t_far) & (t_far > _TMIN))[0]
    t = np.full(len(d), np.inf)
    t0 = np.maximum(t_near[idx], _TMIN)
    span = t_far[idx] - t0
    dl = d[idx]

    def f(rays, ts):
        return prim.implicit_local(*(o + ts[:, None] * dl[rays]).T)

    rays, lo, hi, flo, fhi = _march(f, t0, span)
    rays = rays.astype(np.intp)
    t[idx[rays]] = _refine(f, rays, lo, hi, flo, fhi)
    return t


def _march(f, t0, span) -> np.ndarray:
    """Brackets of the first crossings f(t_{k-1}) > 0 >= f(t_k), t_k = t0 + span k / 64.

    f is convex along every ray: with exponents in (0, 2] it is a nested lp
    norm (p, q >= 1) raised to a power >= 1, minus 1. So a ray that starts
    inside never crosses, and the chord through a ray's last two samples
    i < j, f(t_i) > 0, bounds f from below beyond t_j: the march skips the
    samples the chord proves outside and drops a ray the chord proves a miss.
    A crossed ray's bracket [t_i, t_j] then holds the root of [t_{j-1}, t_j],
    the only one in it. Returns rows ray, t_i, t_j, f(t_i), f(t_j), one
    column per crossed ray.
    """
    fi = f(slice(None), t0)
    live = np.nonzero(fi > 0)[0]
    ti, fi = t0[live], fi[live]
    i, j = np.zeros(len(live)), np.ones(len(live))
    brackets = [np.empty((5, 0))]
    while len(live):
        tj = t0[live] + span[live] * (j / _MARCH_STEPS)
        fj = f(live, tj)
        crossed = fj <= 0
        brackets.append(np.stack([live, ti, tj, fi, fj])[:, crossed])
        slope = (fj - fi) / (j - i)
        go = ~crossed & (fj + slope * (_MARCH_STEPS - j) <= 0)
        # the first sample the chord does not prove outside, rounded toward j
        step = np.maximum(1.0, np.ceil(fj[go] / -slope[go] - 1e-9))
        live, i, ti, fi, j = live[go], j[go], tj[go], fj[go], j[go] + step
    return np.hstack(brackets)


def _refine(f, rays, a, b, fa, fb) -> np.ndarray:
    """Midpoints of brackets a < b (f(a) > 0 >= f(b)) narrowed below ``_REFINE_TOL``.

    Illinois steps (Dowell & Jarratt 1971): the secant point of the bracket
    replaces the end of its sign, and an end kept twice in a row has its value
    halved. A bracket still too wide after ``_ILLINOIS_STEPS`` finishes by
    halvings. A point where f is exactly 0 closes its bracket.
    """
    last = np.zeros(len(a), dtype=np.int8)  # the end the last step replaced: 1 b, -1 a
    act = np.nonzero(b - a >= _REFINE_TOL)[0]
    for _ in range(_ILLINOIS_STEPS):
        if not len(act):
            break
        aa, bb, ffa, ffb = a[act], b[act], fa[act], fb[act]
        c = bb - ffb * (bb - aa) / (ffb - ffa)
        fc = f(rays[act], c)
        neg, pos = fc <= 0, fc >= 0
        a[act], b[act] = np.where(pos, c, aa), np.where(neg, c, bb)
        fa[act] = np.where(pos, fc, np.where(last[act] == 1, 0.5 * ffa, ffa))
        fb[act] = np.where(neg, fc, np.where(last[act] == -1, 0.5 * ffb, ffb))
        last[act] = np.where(neg, 1, -1)
        act = act[b[act] - a[act] >= _REFINE_TOL]
    while len(act):
        mid = 0.5 * (a[act] + b[act])
        neg = f(rays[act], mid) <= 0
        a[act], b[act] = np.where(neg, a[act], mid), np.where(neg, mid, b[act])
        act = act[b[act] - a[act] >= _REFINE_TOL]
    return 0.5 * (a + b)


_INTERSECTORS = {
    "box": _intersect_box,
    "cylinder": _intersect_cylinder,
    "capsule": _intersect_capsule,
    "superellipsoid": _intersect_superellipsoid,
}


def _surface_normal(prim: ScenePrimitive, pts_local: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.stack(prim.implicit_differences(*pts_local.T, h), axis=1)
    n = np.linalg.norm(g, axis=1)
    n[n == 0] = 1.0
    return g / n[:, None]


def box_rectangle(corners: np.ndarray, intr: CameraIntrinsics, far: float):
    """Pixel bounds ``(u0, u1, v0, v1)``, inclusive, of the rays that can meet a box.

    ``corners`` are the box's 8 camera-frame corners in ``BOX_CORNERS`` order. A
    hit at ray parameter t lies at camera depth z = t, and only a hit with
    ``_TMIN <= z <= far`` counts, so only the box clipped to that slab matters.
    Its vertices are the corners inside the slab and the points where the 12
    edges cross either plane. The bounds are those of the projected vertices,
    widened by one pixel and clipped to the raster; a ray through a pixel
    outside them misses the clipped box. None when no ray can meet it.
    """
    a, b = corners[_BOX_EDGES[:, 0]], corners[_BOX_EDGES[:, 1]]
    verts = [corners[(corners[:, 2] >= _TMIN) & (corners[:, 2] <= far)]]
    for plane in (_TMIN, far):
        cut = (a[:, 2] < plane) != (b[:, 2] < plane)
        s = (plane - a[cut, 2]) / (b[cut, 2] - a[cut, 2])
        verts.append(a[cut] + s[:, None] * (b[cut] - a[cut]))
    verts = np.vstack(verts)
    if far < _TMIN or not len(verts):
        return None
    u, v, _ = project(verts, intr)
    u0, u1 = max(int(np.floor(u.min())) - 1, 0), min(int(np.ceil(u.max())) + 1, intr.width - 1)
    v0, v1 = max(int(np.floor(v.min())) - 1, 0), min(int(np.ceil(v.max())) + 1, intr.height - 1)
    return None if u0 > u1 or v0 > v1 else (u0, u1, v0, v1)


def _raw_depth(depth_m: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Metres rounded to raw uint16 depth units; 0 (no return) outside ``valid``."""
    return np.clip(np.round(np.where(valid, depth_m, 0.0) / DEPTH_SCALE),
                   0, 65535).astype(np.uint16)


def render(scene: Scene, sensor: SensorModel) -> RenderResult:
    """Cast one ray per pixel and shade the nearest hit within the background cap."""
    intr = sensor.intrinsics
    dirs_cam = _pixel_rays(intr)
    dirs_world = sensor.pose.apply_direction(dirs_cam)
    origin = sensor.camera_center()

    n = len(dirs_world)
    best_t = np.full(n, np.inf)
    best_prim = np.full(n, -1, dtype=np.int32)
    world_to_cam = sensor.pose.invert()
    for i, prim in enumerate(scene.primitives):
        corners = world_to_cam.apply(prim.pose.apply(BOX_CORNERS * prim.local_bounds()))
        rect = box_rectangle(corners, intr, scene.background_cap)
        if rect is None:
            continue
        u0, u1, v0, v1 = rect
        rays = (np.arange(v0, v1 + 1)[:, None] * intr.width + np.arange(u0, u1 + 1)).ravel()
        inv = prim.pose.invert()
        o_l = inv.apply(origin)
        d_l = inv.apply_direction(dirs_world[rays])
        t = _INTERSECTORS[prim.shape](prim, o_l, d_l)
        closer = t < best_t[rays]
        best_t[rays[closer]] = t[closer]
        best_prim[rays[closer]] = i

    hit = np.isfinite(best_t) & (best_t <= scene.background_cap)
    raw = _raw_depth(best_t, hit)

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
    depth_img = DepthImage(raw.reshape(h, w))
    color_img = ColorImage(np.clip(np.round(color * 255), 0, 255).astype(np.uint8).reshape(h, w, 3))
    return RenderResult(depth_img, color_img, BinaryMask(mask.reshape(h, w)))


def apply_tof_noise(depth: DepthImage, model: SensorModel, seed: int) -> DepthImage:
    """Gaussian range noise sigma(z) = sigma0 + sigma1 z^2 on the valid pixels."""
    rng = np.random.default_rng(seed)
    raw = depth.data.astype(np.float64)
    valid = raw > 0
    z = raw * DEPTH_SCALE
    sigma = model.sigma0 + model.sigma1 * z * z
    noisy = z + rng.standard_normal(z.shape) * sigma
    return DepthImage(_raw_depth(noisy, valid))


def apply_interference(depth: DepthImage, interferer_count: int, seed: int,
                       cap_m: float = 5.0) -> DepthImage:
    """Corrupt valid pixels with probability 1 - (1 - 0.45)^interferer_count.

    Each interferer corrupts a pixel independently with probability 0.45. A
    corrupted pixel is zeroed with probability 0.7, otherwise replaced with a
    spurious uniform range in [0.3 m, cap_m]. Invalid pixels are never revived.
    """
    if interferer_count < 0:
        raise ValueError("interferer_count must be >= 0")
    if interferer_count == 0:
        return DepthImage(depth.data.copy())
    rng = np.random.default_rng(seed)
    p_corrupt = 1.0 - (1.0 - _P_INT) ** interferer_count
    valid = depth.data > 0
    corrupt = (rng.random(depth.data.shape) < p_corrupt) & valid
    zero_out = rng.random(depth.data.shape) < 0.7
    spurious_m = rng.uniform(0.3, cap_m, size=depth.data.shape)
    out = depth.data.copy()
    out[corrupt & zero_out] = 0
    sp = corrupt & ~zero_out
    out[sp] = np.clip(np.round(spurious_m[sp] / DEPTH_SCALE), 1, 65535).astype(np.uint16)
    return DepthImage(out)


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
    """Sensors from rig JSON; a ``seed`` key is ignored, a non-zero ``dropout`` rejected.

    Any defect raises ValueError naming its key path, ``rig[0].intrinsics`` say.
    """
    rig = []
    for i, d in enumerate(check(doc, "rig", "list", "object")):
        p = f"rig[{i}]"
        if get(d, p, "dropout", "number", default=0) != 0:
            raise ValueError(f"{p}.dropout: not modelled (got {d['dropout']})")
        rig.append(build(p, SensorModel, get(d, p, "device_id", "integer"),
                         CameraIntrinsics.from_json_dict(get(d, p, "intrinsics", "object"),
                                                         f"{p}.intrinsics"),
                         RigidTransform.from_json_dict(get(d, p, "pose", "object"), f"{p}.pose"),
                         get(d, p, "sigma0", "number", default=0.002),
                         get(d, p, "sigma1", "number", default=0.0)))
    return rig


def save_rig(path, rig: list[SensorModel]) -> None:
    Path(path).write_text(json.dumps(rig_to_list(rig), indent=2))


def load_rig(path) -> list[SensorModel]:
    return rig_from_list(json.loads(Path(path).read_text()))
