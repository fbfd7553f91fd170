"""Analytic scene description: primitives, implicit surfaces, and scene builders.

Primitives are defined in a local frame and placed by a rigid pose. Every
primitive exposes a signed implicit function (negative inside) used for ray
casting, oracle voxelization, and visibility tests. Box, cylinder and capsule
use exact signed distance; the superellipsoid has no closed-form distance, so
its implicit value is normalized by the local gradient magnitude, which is
first-order accurate near the surface. Each shape's formula is written once,
over local coordinates x, y, z that broadcast against each other: (N,)
columns for rays and points, or one array per grid axis for the oracle.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import RigidTransform
from .jsondoc import build, check, get

__all__ = [
    "ScenePrimitive", "Scene",
    "box", "cylinder", "capsule", "superellipsoid",
    "cube_tag_layout", "make_animal_model",
    "make_known_object_scene",
    "load_scene", "save_scene", "scene_to_dict", "scene_from_dict",
]

LABELS = ("target", "chute", "background")
TEXTURE_KINDS = ("patches", "smooth_noise")
_PARAM_COUNTS = {"box": 3, "cylinder": 2, "capsule": 2, "superellipsoid": 5}
# the eight corners of the box [-1, 1]^3, x slowest and z fastest
BOX_CORNERS = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                       dtype=np.float64)


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
        if self.shape not in _PARAM_COUNTS:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        p = tuple(float(v) for v in self.params)
        if len(p) != _PARAM_COUNTS[self.shape]:
            raise ValueError(f"{self.shape} takes {_PARAM_COUNTS[self.shape]} parameters: {p}")
        sizes = p[:3] if self.shape == "superellipsoid" else p
        if any(v <= 0 for v in sizes):
            raise ValueError(f"{self.shape} size parameters must be positive: {p}")
        if self.shape == "superellipsoid":
            e1, e2 = p[3], p[4]
            if not (0 < e1 <= 2 and 0 < e2 <= 2):
                raise ValueError(f"superellipsoid exponents must be in (0, 2]: {e1}, {e2}")
        object.__setattr__(self, "params", p)
        albedo = tuple(float(c) for c in self.albedo)
        if len(albedo) != 3:
            raise ValueError(f"albedo takes 3 values: {albedo}")
        object.__setattr__(self, "albedo", albedo)
        if self.texture is not None:
            kind = self.texture.get("kind") if isinstance(self.texture, dict) else None
            if kind not in TEXTURE_KINDS:
                raise ValueError(f"unknown texture kind {kind!r}: expected one of {TEXTURE_KINDS}")
            color2, scale = self.texture.get("color2"), self.texture.get("scale")
            if color2 is not None and len(color2) != 3:
                raise ValueError(f"texture color2 takes 3 values: {color2}")
            if scale is not None and scale <= 0:
                raise ValueError(f"texture scale must be positive: {scale}")
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

    def sdf_local(self, x, y, z) -> np.ndarray:
        """Signed distance at local (x, y, z): exact, or gradient-normalized for superellipsoids.

        x, y and z broadcast against each other: (N,) columns give N values, and
        arrays that each lie along one grid axis give the grid's values, with
        every term that reads one coordinate taken once per grid line.
        """
        if self.shape == "box":
            a, b, c = self.params
            qx, qy, qz = np.abs(x) - a, np.abs(y) - b, np.abs(z) - c
            outside = np.sqrt(np.maximum(qx, 0.0) ** 2 + np.maximum(qy, 0.0) ** 2
                              + np.maximum(qz, 0.0) ** 2)
            return outside + np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)
        if self.shape == "cylinder":
            r, h = self.params
            dr = np.hypot(x, y) - r
            dz = np.abs(z) - h / 2
            return (np.minimum(np.maximum(dr, dz), 0.0)
                    + np.sqrt(np.maximum(dr, 0.0) ** 2 + np.maximum(dz, 0.0) ** 2))
        if self.shape == "capsule":
            r, seg = self.params
            return np.sqrt(x ** 2 + y ** 2 + (z - np.clip(z, -seg / 2, seg / 2)) ** 2) - r
        h = 1e-5
        g = np.sqrt(sum((d / (2 * h)) ** 2 for d in self.implicit_differences(x, y, z, h)))
        return self.implicit_local(x, y, z) / np.maximum(g, 1e-12)

    def implicit_local(self, x, y, z) -> np.ndarray:
        """Raw implicit value (negative inside) at local (x, y, z), broadcast as in ``sdf_local``.

        Cheaper than the sdf for sign tests.
        """
        if self.shape != "superellipsoid":
            return self.sdf_local(x, y, z)
        return self._outer(self._power(x, 0), self._power(y, 1), self._power(z, 2))

    def implicit_differences(self, x, y, z, h: float) -> list:
        """Central differences f(p + h e_i) - f(p - h e_i) of ``implicit_local``, i = x, y, z."""
        if self.shape != "superellipsoid":
            f = self.implicit_local
            return [f(x + h, y, z) - f(x - h, y, z), f(x, y + h, z) - f(x, y - h, z),
                    f(x, y, z + h) - f(x, y, z - h)]
        # the terms at p are taken once, and so is the outer power of the z
        # difference: the bits of the six calls from 9 inner and 5 outer powers
        e1, e2 = self.params[3:]
        px, py, pz = self._power(x, 0), self._power(y, 1), self._power(z, 2)
        dx = (self._outer(self._power(x + h, 0), py, pz)
              - self._outer(self._power(x - h, 0), py, pz))
        dy = (self._outer(px, self._power(y + h, 1), pz)
              - self._outer(px, self._power(y - h, 1), pz))
        mid = (px + py) ** (e2 / e1)
        return [dx, dy, (mid + self._power(z + h, 2) - 1.0) - (mid + self._power(z - h, 2) - 1.0)]

    def _power(self, v, axis: int):
        """The superellipsoid term of one coordinate: (|v| / size) ** (2 / e2), e1 for z."""
        return (np.abs(v) / self.params[axis]) ** (2 / self.params[3 if axis == 2 else 4])

    def _outer(self, px, py, pz):
        """The superellipsoid's implicit value from its three terms."""
        e1, e2 = self.params[3:]
        return (px + py) ** (e2 / e1) + pz - 1.0

    # -- world-frame helpers ---------------------------------------------

    def to_local(self, pts_world: np.ndarray) -> np.ndarray:
        return self.pose.invert().apply(pts_world)

    def sdf(self, pts_world: np.ndarray) -> np.ndarray:
        return self.sdf_local(*self.to_local(pts_world).T)

    def world_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) corners of the world-frame AABB."""
        w = self.pose.apply(BOX_CORNERS * self.local_bounds())
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
            s = self.texture.get("scale", 0.18)
            c2 = np.asarray(self.texture.get("color2", (0.92, 0.9, 0.88)))
            cells = np.floor(pts_local / s).astype(np.int64)
            hsh = (cells[:, 0] * 73856093 ^ cells[:, 1] * 19349663
                   ^ cells[:, 2] * 83492791) & 0xFFFFFFFF
            base[(hsh % 5) < 2] = c2
            return base
        # smooth_noise: aperiodic gradient texture; smooth at voxel scale so that
        # visual alignment terms see view-consistent colors under point averaging
        s = self.texture.get("scale", 0.08)
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
            "albedo": list(p.albedo), "label": p.label,
            "texture": copy.deepcopy(p.texture)}


def _prim_from_dict(d: dict, path: str) -> ScenePrimitive:
    texture = d.get("texture")
    if isinstance(texture, dict):  # a non-object or kindless texture is ScenePrimitive's to refuse
        for key, kind, items in (("kind", "string", None), ("scale", "number", None),
                                 ("color2", "list", "number")):
            get(texture, f"{path}.texture", key, kind, items, default=None)
    return build(path, ScenePrimitive, get(d, path, "shape", "string"),
                 get(d, path, "params", "list", "number"),
                 RigidTransform.from_json_dict(get(d, path, "pose", "object"), f"{path}.pose"),
                 get(d, path, "albedo", "list", "number", default=(0.7, 0.7, 0.7)),
                 get(d, path, "label", "string", default="target"), texture)


def scene_to_dict(scene: Scene) -> dict:
    return {"background_cap": scene.background_cap,
            "primitives": [_prim_to_dict(p) for p in scene.primitives]}


def scene_from_dict(doc: dict) -> Scene:
    """A scene from its JSON object; any defect raises ValueError naming its key path,
    ``scene.primitives[1].params`` say."""
    prims = get(check(doc, "scene", "object"), "scene", "primitives", "list", "object")
    return Scene(tuple(_prim_from_dict(d, f"scene.primitives[{i}]") for i, d in enumerate(prims)),
                 get(doc, "scene", "background_cap", "number", default=5.0))


def save_scene(path, scene: Scene) -> None:
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2))


def load_scene(path) -> Scene:
    return scene_from_dict(json.loads(Path(path).read_text()))
