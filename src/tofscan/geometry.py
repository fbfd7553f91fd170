"""Core geometric types and the projection/back-projection/transform operations.

Conventions used throughout the package:

    Camera frame (right-handed): x right, y down, z forward (the camera
    looks down +z). Pixel coordinates (u, v) are measured at pixel centers,
    u rightward (column index), v downward (row index), so integer pixel
    (u, v) back-projects and re-projects onto itself.

    Depth rasters store range along +z (not Euclidean ray length) as 16-bit
    unsigned integers in millimeters; 0 means no return. ``DEPTH_SCALE``
    converts raw units to meters.

    Points and translations are in meters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jsondoc import build, get
from .parallel import map_ordered

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
    "neighbour_normals",
]

DEPTH_SCALE = 0.001  # meters per raw depth unit
_ORTHONORMAL_TOL = 1e-9
PCA_BLOCK = 4096  # points per pca_normals block, the unit the pool shares out
# relative floor on the longest cross product of two rows of A - lambda I:
# below it the two smaller eigenvalues are too close for the closed form
_CROSS_FLOOR = 1e-3


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
    def from_json_dict(d: dict, path: str) -> "RigidTransform":
        """The transform of JSON object ``d`` (row-major rotation), read at key path ``path``."""
        return build(path, RigidTransform, get(d, path, "rotation", "list", "number"),
                     get(d, path, "translation", "list", "number"))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model without lens distortion."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError(f"focal lengths must be positive (fx={self.fx}, fy={self.fy})")
        if not (0 <= self.cx < self.width):
            raise GeometryError(f"cx={self.cx} outside [0, {self.width})")
        if not (0 <= self.cy < self.height):
            raise GeometryError(f"cy={self.cy} outside [0, {self.height})")

    def to_json_dict(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy,
                "width": self.width, "height": self.height}

    @staticmethod
    def from_json_dict(d: dict, path: str) -> "CameraIntrinsics":
        """The intrinsics of JSON object ``d``, read at key path ``path``; a
        ``depth_scale`` other than ``DEPTH_SCALE`` is refused."""
        if get(d, path, "depth_scale", "number", default=DEPTH_SCALE) != DEPTH_SCALE:
            raise ValueError(f"{path}.depth_scale: only {DEPTH_SCALE} is modelled "
                             f"(got {d['depth_scale']})")
        return build(path, CameraIntrinsics,
                     *(get(d, path, k, "number") for k in ("fx", "fy", "cx", "cy")),
                     *(get(d, path, k, "integer") for k in ("width", "height")))


def _check_raster(name: str, data: np.ndarray, channels: int | None):
    expected = ("height", "width") if channels is None else ("height", "width", channels)
    if data.ndim != len(expected) or data.shape[2:] != expected[2:]:
        raise ValueError(f"{name} raster shape {data.shape} is not {expected}")


def check_size(name: str, raster, ref_name: str, ref) -> None:
    """Raise ValueError unless ``raster`` has the width and height of ``ref``
    (a raster or the intrinsics), naming both in the message."""
    if (raster.width, raster.height) != (ref.width, ref.height):
        raise ValueError(f"{name} {raster.width}x{raster.height} does not match "
                         f"{ref_name} {ref.width}x{ref.height}")


class _Raster:
    """A raster's size is its array's: ``data`` is (height, width[, channels])."""

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class DepthImage(_Raster):
    """16-bit depth raster in millimeters; 0 = invalid / no return."""

    data: np.ndarray  # (height, width) uint16

    def __post_init__(self):
        d = np.ascontiguousarray(self.data, dtype=np.uint16)
        _check_raster("depth", d, None)
        object.__setattr__(self, "data", d)

    def valid_mask(self) -> np.ndarray:
        return self.data > 0


@dataclass(frozen=True)
class ColorImage(_Raster):
    """8-bit RGB raster."""

    data: np.ndarray  # (height, width, 3) uint8

    def __post_init__(self):
        d = np.ascontiguousarray(self.data, dtype=np.uint8)
        _check_raster("color", d, 3)
        object.__setattr__(self, "data", d)


@dataclass(frozen=True)
class BinaryMask(_Raster):
    """Boolean raster; True = foreground."""

    data: np.ndarray  # (height, width) bool

    def __post_init__(self):
        d = np.ascontiguousarray(self.data)
        if d.dtype != bool:
            raise ValueError(f"non-binary mask: dtype {d.dtype}, not bool")
        _check_raster("mask", d, None)
        object.__setattr__(self, "data", d)

    def count(self) -> int:
        return int(np.count_nonzero(self.data))


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


def back_project(depth: DepthImage, intr: CameraIntrinsics, color: ColorImage,
                 mask: BinaryMask) -> PointCloud:
    """Lift the depth pixels that are valid and mask foreground to coloured 3D
    camera-frame points: ((u-cx)·z/fx, (v-cy)·z/fy, z) with z = raw·DEPTH_SCALE.
    """
    check_size("depth raster", depth, "intrinsics", intr)
    check_size("color raster", color, "depth", depth)
    check_size("mask raster", mask, "depth", depth)

    v, u = np.nonzero(depth.valid_mask() & mask.data)
    z = depth.data[v, u].astype(np.float64) * DEPTH_SCALE
    x = (u.astype(np.float64) - intr.cx) * z / intr.fx
    y = (v.astype(np.float64) - intr.cy) * z / intr.fy
    return PointCloud(np.column_stack([x, y, z]),
                      colors=color.data[v, u].astype(np.float64) / 255.0)


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

    ``tree`` is a KD-tree built on ``points``. Each block of ``PCA_BLOCK``
    points runs one k-nearest query and hands the indices to
    ``neighbour_normals``, flipping each normal to face ``centers`` (one
    viewpoint, or one per point). The block bounds the (block, k) neighbour
    arrays; the blocks run concurrently, each writing its own slice.
    """
    centers = np.asarray(centers, dtype=np.float64)
    normals = np.empty((len(points), 3))

    def fill(lo: int) -> None:
        block = slice(lo, lo + PCA_BLOCK)
        _, idx = tree.query(points[block], k=k)
        toward = centers if centers.ndim == 1 else centers[block]
        normals[block] = neighbour_normals(points, idx, toward - points[block])

    map_ordered(fill, range(0, len(points), PCA_BLOCK))
    return normals


def neighbour_normals(points: np.ndarray, idx: np.ndarray, toward: np.ndarray) -> np.ndarray:
    """Unit PCA normal of each row of neighbour indices ``idx`` (B, k) into ``points``.

    The normal is the least eigenvector of the neighbours' 3x3 covariance
    (Hoppe et al., SIGGRAPH 1992), flipped so that its dot product with
    ``toward`` (B, 3), the direction from the point to its viewpoint, is not
    negative. The least eigenvalue comes from the trigonometric formula for
    symmetric 3x3 matrices and the eigenvector is the longest cross product
    of two rows of A - lambda I. Rows with zero covariance or a cross product
    below ``_CROSS_FLOOR`` relative to |A - lambda I|^2 (coincident or
    collinear neighbours) fall back to ``np.linalg.eigh`` on those rows only.
    """
    x, y, z = (points[idx, axis] for axis in range(3))  # (B, k) each, centred in place
    for coord in (x, y, z):
        coord -= coord.mean(axis=1, keepdims=True)
    sxx, syy, szz = (np.einsum("nk,nk->n", coord, coord) for coord in (x, y, z))
    sxy, sxz, syz = (np.einsum("nk,nk->n", a, b) for a, b in ((x, y), (x, z), (y, z)))

    # least eigenvalue: A = q I + p B with det(B) / 2 = cos(3 phi)
    q = (sxx + syy + szz) / 3.0
    a, b, c = sxx - q, syy - q, szz - q
    off = sxy * sxy + sxz * sxz + syz * syz
    p = np.sqrt((a * a + b * b + c * c + 2.0 * off) / 6.0)
    det = a * (b * c - syz * syz) - sxy * (sxy * c - syz * sxz) + sxz * (sxy * syz - b * sxz)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.clip(det / (2.0 * p ** 3), -1.0, 1.0)
    lam = q + 2.0 * p * np.cos(np.arccos(r) / 3.0 + 2.0 * np.pi / 3.0)

    # rows of A - lam I and their three pairwise cross products
    dx, dy, dz = sxx - lam, syy - lam, szz - lam
    crosses = np.array([
        [sxy * syz - sxz * dy, sxz * sxy - dx * syz, dx * dy - sxy * sxy],     # r0 x r1
        [sxy * dz - sxz * syz, sxz * sxz - dx * dz, dx * syz - sxy * sxz],     # r0 x r2
        [dy * dz - syz * syz, syz * sxz - sxy * dz, sxy * syz - dy * sxz]])    # r1 x r2
    lengths = np.einsum("pin,pin->pn", crosses, crosses)
    n = crosses[lengths.argmax(axis=0), :, np.arange(len(dx))]  # (B, 3)
    longest = lengths.max(axis=0)
    scale = dx * dx + dy * dy + dz * dz + 2.0 * off             # |A - lam I|_F^2
    bad = ~(longest > (_CROSS_FLOOR * scale) ** 2)              # NaN-safe: p == 0 lands here
    if bad.any():
        cov = np.empty((int(bad.sum()), 3, 3))
        cov[:, 0, 0], cov[:, 1, 1], cov[:, 2, 2] = sxx[bad], syy[bad], szz[bad]
        cov[:, 0, 1] = cov[:, 1, 0] = sxy[bad]
        cov[:, 0, 2] = cov[:, 2, 0] = sxz[bad]
        cov[:, 1, 2] = cov[:, 2, 1] = syz[bad]
        n[bad] = np.linalg.eigh(cov)[1][:, :, 0]              # least eigenvalue first
    n /= np.linalg.norm(n, axis=1)[:, None]
    n[np.einsum("ni,ni->n", n, toward) < 0] *= -1.0
    return n
