"""Core geometric types and the projection/back-projection/transform operations.

Conventions used throughout the package:

    Camera frame (right-handed): x right, y down, z forward (the camera
    looks down +z). Pixel coordinates (u, v) are measured at pixel centers,
    u rightward (column index), v downward (row index), so integer pixel
    (u, v) back-projects and re-projects onto itself.

    Depth rasters store range along +z (not Euclidean ray length) as 16-bit
    unsigned integers in millimeters; 0 means no return. ``depth_scale``
    converts raw units to meters (default 0.001).

    Points and translations are in meters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "RigidTransform",
    "CameraIntrinsics",
    "DepthImage",
    "ColorImage",
    "BinaryMask",
    "PointCloud",
    "back_project",
    "project",
    "transform_cloud",
    "pca_normals",
]

_ORTHONORMAL_TOL = 1e-9
PCA_BLOCK = 16384  # points per pca_normals block


class GeometryError(ValueError):
    """Invalid geometric input (bad rotation, behind-camera point, ...)."""


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64).reshape(3)
    if not np.all(np.isfinite(a)):
        raise GeometryError(f"non-finite 3-vector: {a}")
    return a


@dataclass(frozen=True)
class RigidTransform:
    """6-DoF rigid motion: p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = _as_vec3(self.translation)
        err = np.abs(R.T @ R - np.eye(3)).max()
        if err >= _ORTHONORMAL_TOL:
            raise GeometryError(f"rotation not orthonormal (max |R^T R - I| = {err:.3e})")
        if np.linalg.det(R) < 0:
            raise GeometryError("rotation has negative determinant (reflection)")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_axis_angle(axis, angle_rad: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        """Rodrigues rotation about ``axis`` by ``angle_rad`` plus a translation."""
        a = _as_vec3(axis)
        n = np.linalg.norm(a)
        if n == 0:
            raise GeometryError("zero rotation axis")
        a = a / n
        K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
        R = np.eye(3) + np.sin(angle_rad) * K + (1 - np.cos(angle_rad)) * (K @ K)
        return RigidTransform(R, translation)

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to an (N, 3) array (or a single 3-vector)."""
        p = np.asarray(points, dtype=np.float64)
        return p @ self.rotation.T + self.translation

    def apply_direction(self, dirs: np.ndarray) -> np.ndarray:
        """Rotate directions without translating (normals, ray directions)."""
        return np.asarray(dirs, dtype=np.float64) @ self.rotation.T

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self ∘ other: ``other`` is applied first."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)

    def invert(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -(self.rotation.T @ self.translation))

    def to_json_dict(self) -> dict:
        return {"rotation": self.rotation.reshape(-1).tolist(),
                "translation": self.translation.tolist()}

    @staticmethod
    def from_json_dict(d: dict) -> "RigidTransform":
        return RigidTransform(np.asarray(d["rotation"], dtype=np.float64).reshape(3, 3),
                              np.asarray(d["translation"], dtype=np.float64))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model without lens distortion."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    depth_scale: float = 0.001  # meters per raw depth unit

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError(f"focal lengths must be positive (fx={self.fx}, fy={self.fy})")
        if not (0 <= self.cx < self.width):
            raise GeometryError(f"cx={self.cx} outside [0, {self.width})")
        if not (0 <= self.cy < self.height):
            raise GeometryError(f"cy={self.cy} outside [0, {self.height})")
        if self.depth_scale <= 0:
            raise GeometryError("depth_scale must be positive")

    def to_json_dict(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy,
                "width": self.width, "height": self.height, "depth_scale": self.depth_scale}

    @staticmethod
    def from_json_dict(d: dict) -> "CameraIntrinsics":
        return CameraIntrinsics(fx=float(d["fx"]), fy=float(d["fy"]),
                                cx=float(d["cx"]), cy=float(d["cy"]),
                                width=int(d["width"]), height=int(d["height"]),
                                depth_scale=float(d.get("depth_scale", 0.001)))


def _check_raster(name: str, data: np.ndarray, height: int, width: int, channels: int | None):
    expected = (height, width) if channels is None else (height, width, channels)
    if data.shape != expected:
        raise ValueError(f"{name} raster shape {data.shape} does not match expected {expected}")


@dataclass(frozen=True)
class DepthImage:
    """16-bit depth raster in millimeters; 0 = invalid / no return."""

    width: int
    height: int
    data: np.ndarray  # (height, width) uint16

    def __post_init__(self):
        d = np.ascontiguousarray(self.data, dtype=np.uint16)
        _check_raster("depth", d, self.height, self.width, None)
        object.__setattr__(self, "data", d)

    def valid_mask(self) -> np.ndarray:
        return self.data > 0


@dataclass(frozen=True)
class ColorImage:
    """8-bit RGB raster."""

    width: int
    height: int
    data: np.ndarray  # (height, width, 3) uint8

    def __post_init__(self):
        d = np.ascontiguousarray(self.data, dtype=np.uint8)
        _check_raster("color", d, self.height, self.width, 3)
        object.__setattr__(self, "data", d)


@dataclass(frozen=True)
class BinaryMask:
    """{0, 255} raster; 255 = foreground."""

    width: int
    height: int
    data: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        d = np.ascontiguousarray(self.data, dtype=np.uint8)
        _check_raster("mask", d, self.height, self.width, None)
        bad = ~np.isin(d, (0, 255))
        if bad.any():
            vals = np.unique(d[bad])[:8]
            raise ValueError(f"mask contains non-binary values {vals.tolist()}")
        object.__setattr__(self, "data", d)

    def foreground(self) -> np.ndarray:
        return self.data == 255

    def count(self) -> int:
        return int((self.data == 255).sum())

    @staticmethod
    def from_bool(fg: np.ndarray) -> "BinaryMask":
        fg = np.asarray(fg, dtype=bool)
        return BinaryMask(fg.shape[1], fg.shape[0], np.where(fg, 255, 0).astype(np.uint8))


@dataclass(frozen=True)
class PointCloud:
    """Points in meters with optional per-point color, unit normals, and source device ids.

    ``source_ids`` records which device produced each point; it is filled in
    by cloud merging and consumed by camera-aware normal estimation.
    """

    points: np.ndarray                      # (N, 3) float64
    colors: np.ndarray | None = None        # (N, 3) float64 in [0, 1]
    normals: np.ndarray | None = None       # (N, 3) float64, unit length
    source_ids: np.ndarray | None = None    # (N,) int32

    def __post_init__(self):
        p = np.ascontiguousarray(self.points, dtype=np.float64).reshape(-1, 3)
        object.__setattr__(self, "points", p)
        n = len(p)
        if self.colors is not None:
            c = np.ascontiguousarray(self.colors, dtype=np.float64).reshape(-1, 3)
            if len(c) != n:
                raise ValueError(f"colors length {len(c)} != points length {n}")
            object.__setattr__(self, "colors", c)
        if self.normals is not None:
            nm = np.ascontiguousarray(self.normals, dtype=np.float64).reshape(-1, 3)
            if len(nm) != n:
                raise ValueError(f"normals length {len(nm)} != points length {n}")
            lens = np.linalg.norm(nm, axis=1)
            if n and np.abs(lens - 1.0).max() > 1e-6:
                raise ValueError("normals must be unit length")
            object.__setattr__(self, "normals", nm)
        if self.source_ids is not None:
            s = np.ascontiguousarray(self.source_ids, dtype=np.int32).reshape(-1)
            if len(s) != n:
                raise ValueError(f"source_ids length {len(s)} != points length {n}")
            object.__setattr__(self, "source_ids", s)

    def __len__(self) -> int:
        return len(self.points)


def back_project(depth: DepthImage, intr: CameraIntrinsics,
                 color: ColorImage | None = None,
                 mask: BinaryMask | None = None) -> PointCloud:
    """Lift valid (and optionally masked) depth pixels to 3D camera-frame points.

    One point per pixel with depth > 0 and, when a mask is given, mask
    foreground. Point = ((u-cx)·z/fx, (v-cy)·z/fy, z) with z = raw·depth_scale.
    """
    if (depth.width, depth.height) != (intr.width, intr.height):
        raise ValueError(f"depth raster {depth.width}x{depth.height} does not match "
                         f"intrinsics {intr.width}x{intr.height}")
    if color is not None and (color.width, color.height) != (depth.width, depth.height):
        raise ValueError(f"color raster {color.width}x{color.height} does not match "
                         f"depth {depth.width}x{depth.height}")
    if mask is not None and (mask.width, mask.height) != (depth.width, depth.height):
        raise ValueError(f"mask raster {mask.width}x{mask.height} does not match "
                         f"depth {depth.width}x{depth.height}")

    keep = depth.valid_mask()
    if mask is not None:
        keep &= mask.foreground()
    v, u = np.nonzero(keep)
    z = depth.data[v, u].astype(np.float64) * intr.depth_scale
    x = (u.astype(np.float64) - intr.cx) * z / intr.fx
    y = (v.astype(np.float64) - intr.cy) * z / intr.fy
    pts = np.column_stack([x, y, z])
    cols = None
    if color is not None:
        cols = color.data[v, u].astype(np.float64) / 255.0
    return PointCloud(pts, colors=cols)


def project(pts: np.ndarray, intr: CameraIntrinsics) -> tuple:
    """Project (N, 3) camera-frame points to pixel arrays (u, v, z). Raises for z <= 0."""
    z = pts[:, 2]
    if np.any(z <= 0):
        raise GeometryError("cannot project points with z <= 0 (behind camera)")
    u = intr.fx * pts[:, 0] / z + intr.cx
    v = intr.fy * pts[:, 1] / z + intr.cy
    return u, v, z


def transform_cloud(cloud: PointCloud, t: RigidTransform) -> PointCloud:
    """Rigidly move a cloud; normals are rotated only, colors are untouched."""
    normals = None if cloud.normals is None else t.apply_direction(cloud.normals)
    return PointCloud(t.apply(cloud.points), cloud.colors, normals, cloud.source_ids)


def pca_normals(points: np.ndarray, tree, k: int, centers) -> np.ndarray:
    """Unit normals by PCA over each point's k nearest neighbours in ``tree``.

    ``tree`` is a KD-tree built on ``points``. Each normal is the covariance
    eigenvector of least eigenvalue, flipped to face ``centers`` (one
    viewpoint, or one per point). Points go through in blocks of
    ``PCA_BLOCK`` to bound the (block, k, 3) neighbour array.
    """
    centers = np.asarray(centers, dtype=np.float64)
    normals = np.empty((len(points), 3))
    for lo in range(0, len(points), PCA_BLOCK):
        block = slice(lo, lo + PCA_BLOCK)
        _, idx = tree.query(points[block], k=k)
        centered = points[idx]                       # (B, k, 3), centred in place
        centered -= centered.mean(axis=1, keepdims=True)
        _, vecs = np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered))
        n = vecs[:, :, 0]                            # least eigenvalue (ascending order)
        toward = centers if centers.ndim == 1 else centers[block]
        n[np.einsum("ni,ni->n", n, toward - points[block]) < 0] *= -1.0
        normals[block] = n / np.linalg.norm(n, axis=1)[:, None]
    return normals
