"""Analytic scene description: primitives, implicit surfaces, and scene builders.

Primitives are defined in a local frame and placed by a rigid pose. Every
primitive exposes a signed implicit function (negative inside) used for ray
casting, oracle voxelization, and visibility tests. Box, cylinder and capsule
use exact signed distance; the superellipsoid has no closed-form distance, so
its implicit value is normalized by the local gradient magnitude, which is
first-order accurate near the surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import RigidTransform

__all__ = [
    "ScenePrimitive", "Scene",
    "box", "cylinder", "capsule", "superellipsoid",
    "cube_tag_layout", "make_animal_model",
    "make_known_object_scene",
    "load_scene", "save_scene", "scene_to_dict", "scene_from_dict",
]

LABELS = ("target", "chute", "background")
TEXTURE_KINDS = ("patches", "smooth_noise")


@dataclass(frozen=True)
class ScenePrimitive:
    """One analytic solid with pose, base albedo, semantic label and optional texture."""

    shape: str                      # box | cylinder | capsule | superellipsoid
    params: tuple                   # shape-specific sizes, see constructors below
    pose: RigidTransform = field(default_factory=RigidTransform.identity)
    albedo: tuple = (0.7, 0.7, 0.7)
    label: str = "target"
    texture: dict | None = None     # {"kind": "patches"|"smooth_noise", ...}

    def __post_init__(self):
        if self.shape not in ("box", "cylinder", "capsule", "superellipsoid"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        p = tuple(float(v) for v in self.params)
        sizes = p[:3] if self.shape == "superellipsoid" else p
        if any(v <= 0 for v in sizes):
            raise ValueError(f"{self.shape} size parameters must be positive: {p}")
        if self.shape == "superellipsoid":
            e1, e2 = p[3], p[4]
            if not (0 < e1 <= 2 and 0 < e2 <= 2):
                raise ValueError(f"superellipsoid exponents must be in (0, 2]: {e1}, {e2}")
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "albedo", tuple(float(c) for c in self.albedo))
        if self.texture is not None:
            kind = self.texture.get("kind") if isinstance(self.texture, dict) else None
            if kind not in TEXTURE_KINDS:
                raise ValueError(f"unknown texture kind {kind!r}: expected one of {TEXTURE_KINDS}")
            # normalize through JSON so in-memory and file-loaded scenes compare equal
            object.__setattr__(self, "texture", json.loads(json.dumps(self.texture)))

    # -- local-frame geometry -------------------------------------------

    def local_bounds(self) -> np.ndarray:
        """Half-extents of the axis-aligned local bounding box."""
        p = self.params
        if self.shape == "box":
            return np.array(p)
        if self.shape == "cylinder":
            r, h = p
            return np.array([r, r, h / 2])
        if self.shape == "capsule":
            r, seg = p
            return np.array([r, r, seg / 2 + r])
        a, b, c = p[:3]
        return np.array([a, b, c])

    def sdf_local(self, pts: np.ndarray) -> np.ndarray:
        """Signed distance (exact, or gradient-normalized for superellipsoids)."""
        pts = np.asarray(pts, dtype=np.float64)
        if self.shape == "box":
            q = np.abs(pts) - np.asarray(self.params)
            outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
            inside = np.minimum(q.max(axis=-1), 0.0)
            return outside + inside
        if self.shape == "cylinder":
            r, h = self.params
            dr = np.hypot(pts[..., 0], pts[..., 1]) - r
            dz = np.abs(pts[..., 2]) - h / 2
            d = np.stack([dr, dz], axis=-1)
            return (np.minimum(d.max(axis=-1), 0.0)
                    + np.linalg.norm(np.maximum(d, 0.0), axis=-1))
        if self.shape == "capsule":
            r, seg = self.params
            z = np.clip(pts[..., 2], -seg / 2, seg / 2)
            return np.sqrt(pts[..., 0] ** 2 + pts[..., 1] ** 2
                           + (pts[..., 2] - z) ** 2) - r
        h = 1e-5
        g = np.sqrt(sum((d / (2 * h)) ** 2 for d in self.implicit_differences(pts, h)))
        return self._superellipsoid_value(pts) / np.maximum(g, 1e-12)

    def _superellipsoid_value(self, pts: np.ndarray) -> np.ndarray:
        a, b, c, e1, e2 = self.params
        x = np.abs(pts[..., 0]) / a
        y = np.abs(pts[..., 1]) / b
        z = np.abs(pts[..., 2]) / c
        return (x ** (2 / e2) + y ** (2 / e2)) ** (e2 / e1) + z ** (2 / e1) - 1.0

    def implicit_local(self, pts: np.ndarray) -> np.ndarray:
        """Raw implicit value (negative inside); cheaper than sdf for sign tests."""
        if self.shape == "superellipsoid":
            return self._superellipsoid_value(np.asarray(pts, dtype=np.float64))
        return self.sdf_local(pts)

    def implicit_differences(self, pts: np.ndarray, h: float) -> list:
        """Central differences f(p + h e_i) - f(p - h e_i) of ``implicit_local``, i = x, y, z."""
        return [self.implicit_local(pts + d) - self.implicit_local(pts - d) for d in h * np.eye(3)]

    # -- world-frame helpers ---------------------------------------------

    def to_local(self, pts_world: np.ndarray) -> np.ndarray:
        return self.pose.invert().apply(pts_world)

    def sdf(self, pts_world: np.ndarray) -> np.ndarray:
        return self.sdf_local(self.to_local(pts_world))

    def world_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) corners of the world-frame AABB."""
        h = self.local_bounds()
        corners = np.array([[sx * h[0], sy * h[1], sz * h[2]]
                            for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
        w = self.pose.apply(corners)
        return w.min(axis=0), w.max(axis=0)

    def albedo_at(self, pts_local: np.ndarray) -> np.ndarray:
        """Per-point RGB in [0,1]; constant unless a texture is attached."""
        pts_local = np.asarray(pts_local, dtype=np.float64).reshape(-1, 3)
        base = np.tile(np.asarray(self.albedo), (len(pts_local), 1))
        if self.texture is None:
            return base
        kind = self.texture["kind"]
        if kind == "patches":
            # hash-based two-tone patches (cattle-hide look, deterministic)
            s = float(self.texture.get("scale", 0.18))
            c2 = np.asarray(self.texture.get("color2", (0.92, 0.9, 0.88)))
            cells = np.floor(pts_local / s).astype(np.int64)
            hsh = (cells[:, 0] * 73856093 ^ cells[:, 1] * 19349663
                   ^ cells[:, 2] * 83492791) & 0xFFFFFFFF
            base[(hsh % 5) < 2] = c2
            return base
        # smooth_noise: aperiodic gradient texture; smooth at voxel scale so that
        # visual alignment terms see view-consistent colors under point averaging
        s = float(self.texture.get("scale", 0.08))
        c2 = np.asarray(self.texture.get("color2", (0.2, 0.25, 0.5)))
        k = 2 * np.pi / s
        x, y, z = pts_local[:, 0], pts_local[:, 1], pts_local[:, 2]
        w = (0.5 + 0.25 * np.sin(k * (x + 0.31 * z) + 1.7 * np.sin(0.61 * k * y))
             + 0.25 * np.cos(k * (0.83 * y - 0.27 * x) + 1.3 * np.sin(0.47 * k * z)))
        w = np.clip(w, 0.0, 1.0)[:, None]
        return base * w + c2 * (1.0 - w)


def box(half_extents, pose=None, albedo=(0.7, 0.7, 0.7), label="target", texture=None) -> ScenePrimitive:
    return ScenePrimitive("box", tuple(half_extents), pose or RigidTransform.identity(),
                          albedo, label, texture)


def cylinder(radius, height, pose=None, albedo=(0.7, 0.7, 0.7), label="target", texture=None) -> ScenePrimitive:
    return ScenePrimitive("cylinder", (radius, height), pose or RigidTransform.identity(),
                          albedo, label, texture)


def capsule(radius, seg_length, pose=None, albedo=(0.7, 0.7, 0.7), label="target", texture=None) -> ScenePrimitive:
    return ScenePrimitive("capsule", (radius, seg_length), pose or RigidTransform.identity(),
                          albedo, label, texture)


def superellipsoid(a, b, c, e1, e2, pose=None, albedo=(0.7, 0.7, 0.7), label="target",
                   texture=None) -> ScenePrimitive:
    return ScenePrimitive("superellipsoid", (a, b, c, e1, e2),
                          pose or RigidTransform.identity(), albedo, label, texture)


@dataclass(frozen=True)
class Scene:
    """A list of primitives plus the background depth cap (meters)."""

    primitives: tuple
    background_cap: float = 5.0

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))

    def labeled(self, label: str) -> tuple:
        return tuple(p for p in self.primitives if p.label == label)

    def target_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """World AABB of all target-labeled primitives."""
        targets = self.labeled("target")
        if not targets:
            raise ValueError("scene has no target-labeled primitive")
        lo = np.full(3, np.inf)
        hi = np.full(3, -np.inf)
        for p in targets:
            a, b = p.world_bounds()
            lo = np.minimum(lo, a)
            hi = np.maximum(hi, b)
        return lo, hi

    def sdf(self, pts_world: np.ndarray, labels=("target",)) -> np.ndarray:
        """Union signed distance over primitives with the given labels."""
        prims = [p for p in self.primitives if p.label in labels]
        if not prims:
            raise ValueError(f"no primitives labeled {labels}")
        return np.minimum.reduce([p.sdf(pts_world) for p in prims])


# --- calibration cube ----------------------------------------------------

# (normal axis, sign, in-face u axis, in-face v axis) for the 6 faces
_CUBE_FACES = [
    (0, +1, 1, 2), (0, -1, 1, 2),
    (1, +1, 0, 2), (1, -1, 0, 2),
    (2, +1, 0, 1), (2, -1, 0, 1),
]


def cube_tag_layout(edge: float, tags_per_face: int) -> dict[int, np.ndarray]:
    """Deterministic square-tag layout: tag id -> (4, 3) corner coordinates, cube frame.

    Corners are ordered around the tag perimeter; every corner lies exactly on
    the cube surface. Tags on a face form a g x g grid (g = ceil(sqrt(n))).
    """
    if edge <= 0:
        raise ValueError("cube edge must be positive")
    if tags_per_face < 1:
        raise ValueError("tags_per_face must be >= 1")
    half = edge / 2.0
    g = int(np.ceil(np.sqrt(tags_per_face)))
    cell = edge / g
    offsets = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)]) * (0.7 * cell / 2)
    model: dict[int, np.ndarray] = {}
    for face, (axis, sign, ua, va) in enumerate(_CUBE_FACES):
        for i in range(tags_per_face):
            gv, gu = divmod(i, g)  # row-major on the g x g grid
            corners = np.zeros((4, 3))
            corners[:, axis] = sign * half
            corners[:, ua] = -half + (gu + 0.5) * cell + offsets[:, 0]
            corners[:, va] = -half + (gv + 0.5) * cell + offsets[:, 1]
            model[face * tags_per_face + i] = corners
    return model


# --- synthetic animal -----------------------------------------------------

def make_animal_model(scale: float = 1.0) -> Scene:
    """Synthetic quadruped: superellipsoid body, capsule legs/neck, ellipsoid head.

    At scale 1 the target bounding box is ~2.42 m long. Two thin rail boxes
    labeled ``chute`` flank the animal.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    s = float(scale)
    hide = {"kind": "patches", "scale": 0.18 * s, "color2": (0.93, 0.91, 0.88)}
    brown = (0.45, 0.28, 0.18)
    prims = [
        superellipsoid(0.95 * s, 0.36 * s, 0.46 * s, 0.7, 0.9,
                       pose=RigidTransform(np.eye(3), (0, 0, 1.08 * s)),
                       albedo=brown, label="target", texture=hide),
        superellipsoid(0.24 * s, 0.14 * s, 0.17 * s, 1.0, 1.0,
                       pose=RigidTransform(np.eye(3), (1.28 * s, 0, 1.48 * s)),
                       albedo=brown, label="target", texture=hide),
        _segment_capsule((0.82 * s, 0, 1.10 * s), (1.18 * s, 0, 1.44 * s), 0.13 * s,
                         albedo=brown, texture=hide),
    ]
    for lx in (0.58, -0.58):
        for ly in (0.24, -0.24):
            prims.append(_segment_capsule((lx * s, ly * s, 0.14 * s),
                                          (lx * s, ly * s, 0.70 * s), 0.075 * s,
                                          albedo=brown, texture=hide))
    # low rails at hock height: side-camera rays to the legs pass above
    # them, so the rails occlude little besides the hoof band
    for wy in (0.55, -0.55):
        prims.append(box((1.30 * s, 0.018 * s, 0.04 * s),
                         pose=RigidTransform(np.eye(3), (0, wy * s, 0.22 * s)),
                         albedo=(0.35, 0.38, 0.42), label="chute"))
    return Scene(tuple(prims), background_cap=6.0 * max(1.0, s))


def _segment_capsule(a, b, radius, albedo, texture=None, label="target") -> ScenePrimitive:
    """Capsule whose axis runs from point a to point b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = b - a
    length = np.linalg.norm(d)
    z = d / length
    # any unit vector not parallel to z
    up = np.array([1.0, 0, 0]) if abs(z[0]) < 0.9 else np.array([0, 1.0, 0])
    x = np.cross(up, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    R = np.column_stack([x, y, z])
    pose = RigidTransform(R, (a + b) / 2)
    return capsule(radius, length, pose=pose, albedo=albedo, label=label, texture=texture)


def make_known_object_scene(obj: ScenePrimitive) -> Scene:
    """A single target object suspended above a background ground slab."""
    ground = box((3.0, 3.0, 0.01), pose=RigidTransform(np.eye(3), (0, 0, -0.01)),
                 albedo=(0.5, 0.5, 0.52), label="background")
    return Scene((obj, ground), background_cap=5.0)


# --- JSON persistence -----------------------------------------------------

def _prim_to_dict(p: ScenePrimitive) -> dict:
    return {"shape": p.shape, "params": list(p.params), "pose": p.pose.to_json_dict(),
            "albedo": list(p.albedo), "label": p.label, "texture": p.texture}


def _prim_from_dict(d: dict) -> ScenePrimitive:
    return ScenePrimitive(d["shape"], tuple(d["params"]),
                          RigidTransform.from_json_dict(d["pose"]),
                          tuple(d.get("albedo", (0.7, 0.7, 0.7))),
                          d.get("label", "target"), d.get("texture"))


def scene_to_dict(scene: Scene) -> dict:
    return {"background_cap": scene.background_cap,
            "primitives": [_prim_to_dict(p) for p in scene.primitives]}


def scene_from_dict(doc: dict) -> Scene:
    return Scene(tuple(_prim_from_dict(d) for d in doc["primitives"]),
                 float(doc.get("background_cap", 5.0)))


def save_scene(path, scene: Scene) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2))


def load_scene(path) -> Scene:
    return scene_from_dict(json.loads(Path(path).read_text()))
