"""Fiducial-cube initial alignment, multi-scale colored ICP, and rig chaining.

The pairwise refinement minimizes, per pyramid scale,

    E(T) = delta * mean(r_geo^2) + (1 - delta) * mean(r_col^2)

where r_geo is the point-to-plane residual against target normals and r_col
compares source intensity with the target's tangent-plane linearized intensity
at the projected point. Gauss-Newton steps are parameterized by (omega, t)
with the update T <- (Rodrigues(omega), t) o T; a step that would raise the
objective is halved up to six times and the scale stops if it still raises,
so the recorded objective never increases across accepted iterations.

Each cloud's level at one scale (downsampled points, intensity, PCA normals,
one KD-tree for every neighbour query and, for a target, intensity gradients)
is built once: ``register_rig`` shares each device's levels across both of
its chain edges, and ``colored_icp`` runs the same loop on one pair.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .geometry import PointCloud, RigidTransform, pca_normals, transform_cloud

logger = logging.getLogger(__name__)

__all__ = [
    "DegenerateConfigError", "DivergenceError",
    "FiducialObservation", "MultiScaleParams", "RegistrationResult", "PoseGraph",
    "make_observations", "estimate_pose_from_fiducials",
    "voxel_downsample", "colored_icp", "register_rig", "merge_clouds",
    "save_pose_graph", "load_pose_graph", "rodrigues", "apply_increment",
]


class DegenerateConfigError(ValueError):
    """Too few non-collinear correspondences for a pose estimate."""


class DivergenceError(RuntimeError):
    """ICP found no usable correspondences; carries the initial transform."""

    def __init__(self, msg: str, init: RigidTransform):
        super().__init__(msg)
        self.init = init


@dataclass(frozen=True)
class FiducialObservation:
    """One detected tag: its id and 4 ordered corner points in the camera frame."""

    tag_id: int
    corners_camera: np.ndarray      # (4, 3) meters

    def __post_init__(self):
        c = np.ascontiguousarray(self.corners_camera, dtype=np.float64).reshape(4, 3)
        object.__setattr__(self, "corners_camera", c)
        centered = c - c.mean(axis=0)
        if np.linalg.svd(centered, compute_uv=False)[1] < 1e-9:
            raise DegenerateConfigError(f"tag {self.tag_id}: corners are collinear")


def make_observations(tag_corners: dict[int, np.ndarray], sigma: float = 0.0,
                      rng: np.random.Generator | None = None) -> list[FiducialObservation]:
    """Wrap simulator tag detections, optionally adding Gaussian corner noise."""
    rng = rng or np.random.default_rng(0)
    obs = []
    for tag_id in sorted(tag_corners):
        corners = np.asarray(tag_corners[tag_id], dtype=np.float64)
        if sigma > 0:
            corners = corners + rng.standard_normal(corners.shape) * sigma
        obs.append(FiducialObservation(tag_id, corners))
    return obs


def estimate_pose_from_fiducials(obs_a: list[FiducialObservation],
                                 obs_b: list[FiducialObservation],
                                 cube_model: dict[int, np.ndarray]) -> RigidTransform:
    """Least-squares rigid transform mapping camera-b points into camera-a.

    Corners of tags seen by both cameras correspond one-to-one through the
    cube model's corner ordering. Closed-form SVD absolute orientation, no
    scale.
    """
    a_by_tag = {o.tag_id: o.corners_camera for o in obs_a}
    b_by_tag = {o.tag_id: o.corners_camera for o in obs_b}
    shared = sorted(set(a_by_tag) & set(b_by_tag) & set(cube_model))
    if not shared:
        raise DegenerateConfigError("no shared tags between the two cameras")
    pa = np.vstack([a_by_tag[t] for t in shared])
    pb = np.vstack([b_by_tag[t] for t in shared])
    return _absolute_orientation(pa, pb)


def _absolute_orientation(pa: np.ndarray, pb: np.ndarray) -> RigidTransform:
    """R, t minimizing sum ||pa - (R pb + t)||^2 (Kabsch/Horn)."""
    if len(pa) < 3:
        raise DegenerateConfigError(f"need >= 3 correspondences, got {len(pa)}")
    ca = pa.mean(axis=0)
    cb = pb.mean(axis=0)
    qa = pa - ca
    qb = pb - cb
    if np.linalg.svd(qb, compute_uv=False)[1] < 1e-9:
        raise DegenerateConfigError("correspondences are collinear")
    h = qb.T @ qa
    u, _s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(r, ca - r @ cb)


# --- multi-scale colored ICP -------------------------------------------------

_RELATIVE_CHANGE = 1e-6  # fitness/rmse convergence threshold
_MIN_FITNESS = 0.1  # below this matched fraction an edge has diverged
_NORMAL_K = 30
_GRADIENT_K = 15
_MAX_CORR_FACTOR = 2.0  # max correspondence distance / voxel
# keep this fraction of matches by distance: partial-overlap boundary points
# otherwise clamp to the target rim and drag the pose
_TRIM_FRACTION = 0.85
# wrapped-around points from a partially overlapping view face the wrong way;
# matches whose normals disagree by more than 40 degrees are rejected
_MIN_NORMAL_DOT = float(np.cos(np.radians(40.0)))


@dataclass(frozen=True)
class MultiScaleParams:
    """Coarse-to-fine pyramid configuration."""

    voxel_sizes: tuple = (0.04, 0.02, 0.01)
    max_iterations: tuple = (50, 30, 14)
    delta: float = 0.968                      # geometric weight in [0, 1]

    def __post_init__(self):
        v = tuple(float(x) for x in self.voxel_sizes)
        it = tuple(int(x) for x in self.max_iterations)
        if len(v) != len(it):
            raise ValueError("voxel_sizes and max_iterations must have equal length")
        if any(v[i] <= v[i + 1] for i in range(len(v) - 1)):
            raise ValueError(f"voxel sizes must be strictly descending: {v}")
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError("delta must be in [0, 1]")
        object.__setattr__(self, "voxel_sizes", v)
        object.__setattr__(self, "max_iterations", it)


@dataclass
class RegistrationResult:
    transform: RigidTransform
    inlier_rmse: float
    fitness: float
    objective_history: list = field(default_factory=list)  # one list per scale


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """Average position/color per occupied voxel; deterministic ordering."""
    if voxel <= 0:
        raise ValueError("voxel size must be positive")
    if len(cloud) == 0:
        return cloud
    keys = np.floor(cloud.points / voxel).astype(np.int64)
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    sk = keys[order]
    boundaries = np.any(np.diff(sk, axis=0) != 0, axis=1)
    group = np.concatenate([[0], np.cumsum(boundaries)])
    n_groups = group[-1] + 1
    counts = np.bincount(group, minlength=n_groups).astype(np.float64)

    def mean_of(arr):
        out = np.zeros((n_groups, arr.shape[1]))
        for c in range(arr.shape[1]):
            out[:, c] = np.bincount(group, weights=arr[order, c], minlength=n_groups)
        return out / counts[:, None]

    pts = mean_of(cloud.points)
    cols = mean_of(cloud.colors) if cloud.colors is not None else None
    src = None
    if cloud.source_ids is not None:
        first = np.concatenate([[0], np.nonzero(boundaries)[0] + 1])
        src = cloud.source_ids[order][first]
    return PointCloud(pts, colors=cols, source_ids=src)


def rodrigues(omega: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(omega)
    if theta < 1e-12:
        k = np.array([[0, -omega[2], omega[1]], [omega[2], 0, -omega[0]],
                      [-omega[1], omega[0], 0]])
        return np.eye(3) + k  # first order is exact enough at this scale
    a = omega / theta
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)


def apply_increment(xi: np.ndarray, t: RigidTransform) -> RigidTransform:
    """Left-multiplied update: (Rodrigues(omega), tau) composed with t."""
    inc = RigidTransform(rodrigues(xi[:3]), xi[3:])
    return inc.compose(t)


class _Level:
    """One cloud at one pyramid scale; its one KD-tree serves every neighbour query."""

    def __init__(self, cloud: PointCloud, params: MultiScaleParams, scale: int, viewpoint):
        if cloud.colors is None:
            raise ValueError("colored ICP needs per-point colors on both clouds")
        down = voxel_downsample(cloud, params.voxel_sizes[scale])
        self.points = down.points
        self.intensity = down.colors.mean(axis=1)
        self.tree = cKDTree(self.points)
        self.normals = pca_normals(self.points, self.tree, min(_NORMAL_K, len(down)), viewpoint)

    @cached_property
    def gradients(self) -> np.ndarray:
        """Tangent-plane intensity gradients; built on first use, as only a target needs them."""
        points, n, intensity = self.points, self.normals, self.intensity
        _, idx = self.tree.query(points, k=min(_GRADIENT_K, len(points)))
        # project neighbors onto each point's tangent plane
        rel = points[idx] - points[:, None, :]
        rel_t = rel - np.einsum("nkj,nj->nk", rel, n)[:, :, None] * n[:, None, :]
        di = intensity[idx] - intensity[:, None]
        g = np.einsum("nki,nkj->nij", rel_t, rel_t)
        g += n[:, :, None] * n[:, None, :]  # pin the normal component to zero
        rhs = np.einsum("nki,nk->ni", rel_t, di)
        g += 1e-12 * np.eye(3)
        return np.linalg.solve(g, rhs[:, :, None])[:, :, 0]


def _residuals(src: _Level, tgt: _Level, transform: RigidTransform, voxel: float):
    """Residuals and correspondence data at the current transform."""
    moved = transform.apply(src.points)
    dist, idx = tgt.tree.query(moved, distance_upper_bound=_MAX_CORR_FACTOR * voxel)
    valid = np.isfinite(dist)
    if not valid.any():
        return None
    n_matched = int(valid.sum())  # reported fitness counts these, not the gated subset
    moved_n = src.normals @ transform.rotation.T
    idx_safe = np.where(valid, idx, 0)
    agree = np.abs(np.einsum("ni,ni->n", moved_n, tgt.normals[idx_safe]))
    valid &= agree >= _MIN_NORMAL_DOT
    if not valid.any():
        return None
    if valid.sum() > 20:
        cutoff = np.quantile(dist[valid], _TRIM_FRACTION)
        valid &= dist <= max(cutoff, 1e-12)
        if not valid.any():
            return None
    s = moved[valid]
    j = idx[valid]
    t = tgt.points[j]
    n = tgt.normals[j]
    d = tgt.gradients[j]
    diff = s - t
    r_geo = np.einsum("ni,ni->n", diff, n)
    r_col = tgt.intensity[j] + np.einsum("ni,ni->n", d, diff) - src.intensity[valid]
    return {"s": s, "t": t, "n": n, "d": d, "r_geo": r_geo, "r_col": r_col,
            "dist": dist[valid], "valid": valid, "n_matched": n_matched}


def _objective(corr, delta: float) -> float:
    return float(delta * np.mean(corr["r_geo"] ** 2)
                 + (1 - delta) * np.mean(corr["r_col"] ** 2))


def residual_jacobians(corr) -> tuple[np.ndarray, np.ndarray]:
    """Analytic Jacobians of r_geo and r_col w.r.t. the increment (omega, t)."""
    s = corr["s"]
    n = corr["n"]
    d = corr["d"]
    j_geo = np.hstack([np.cross(s, n), n])
    j_col = np.hstack([np.cross(s, d), d])
    return j_geo, j_col


def _gauss_newton_step(corr, delta: float) -> np.ndarray:
    j_geo, j_col = residual_jacobians(corr)
    h = delta * (j_geo.T @ j_geo) + (1 - delta) * (j_col.T @ j_col)
    g = delta * (j_geo.T @ corr["r_geo"]) + (1 - delta) * (j_col.T @ corr["r_col"])
    h += 1e-12 * np.trace(h) / 6.0 * np.eye(6)
    return np.linalg.solve(h, -g)


def colored_icp(source: PointCloud, target: PointCloud, init: RigidTransform,
                params: MultiScaleParams = MultiScaleParams(),
                target_viewpoint=(0.0, 0.0, 0.0),
                source_viewpoint=(0.0, 0.0, 0.0)) -> RegistrationResult:
    """Coarse-to-fine joint geometric/photometric alignment of source onto target."""
    return _icp(partial(_Level, source, params, viewpoint=source_viewpoint),
                partial(_Level, target, params, viewpoint=target_viewpoint), init, params)


def _icp(source_level, target_level, init: RigidTransform,
         params: MultiScaleParams) -> RegistrationResult:
    """The ICP loop over scales; ``*_level(scale)`` gives each cloud's level."""
    transform = init
    history_all: list[list[float]] = []
    corr = None
    for scale, voxel in enumerate(params.voxel_sizes):
        src, tgt = source_level(scale), target_level(scale)
        corr = _residuals(src, tgt, transform, voxel)
        if corr is None or (scale == 0 and corr["n_matched"] / len(src.points) < _MIN_FITNESS):
            if scale == 0:
                raise DivergenceError(
                    f"no usable correspondences at coarsest scale (voxel {voxel})", init)
            break
        energy = _objective(corr, params.delta)
        history = [energy]
        prev_fit = corr["n_matched"] / len(src.points)
        prev_rmse = float(np.sqrt(np.mean(corr["dist"] ** 2)))
        for _ in range(params.max_iterations[scale]):
            xi = _gauss_newton_step(corr, params.delta)
            accepted = None
            for _damp in range(7):
                trial = apply_increment(xi, transform)
                trial_corr = _residuals(src, tgt, trial, voxel)
                if trial_corr is not None:
                    trial_energy = _objective(trial_corr, params.delta)
                    if trial_energy <= energy:
                        accepted = (trial, trial_corr, trial_energy)
                        break
                xi = xi / 2.0
            if accepted is None:
                break
            transform, corr, energy = accepted
            history.append(energy)
            fit = corr["n_matched"] / len(src.points)
            rmse = float(np.sqrt(np.mean(corr["dist"] ** 2)))
            if (abs(fit - prev_fit) < _RELATIVE_CHANGE * max(prev_fit, 1e-12)
                    and abs(rmse - prev_rmse) < _RELATIVE_CHANGE * max(prev_rmse, 1e-12)):
                prev_fit, prev_rmse = fit, rmse
                break
            prev_fit, prev_rmse = fit, rmse
        history_all.append(history)

    fitness = 0.0 if corr is None else float(corr["n_matched"] / len(src.points))
    rmse = 0.0 if corr is None else float(np.sqrt(np.mean(corr["dist"] ** 2)))
    return RegistrationResult(transform, rmse, fitness, history_all)


# --- rig chaining -----------------------------------------------------------


@dataclass
class PoseGraph:
    reference: int
    edges: dict                      # (a, b) -> RegistrationResult, transform maps b -> a
    global_poses: dict               # device -> RigidTransform into the reference frame
    failed_edges: list = field(default_factory=list)


def register_rig(clouds: dict[int, PointCloud], fiducials: dict[int, list],
                 params: MultiScaleParams = MultiScaleParams(),
                 cube_model: dict | None = None,
                 order: list[int] | None = None) -> PoseGraph:
    """Chain-register per-device clouds: fiducial init + pairwise colored ICP.

    ``order`` is the physical rig order (defaults to sorted device ids);
    consecutive devices form the chain edges and ``order[0]`` is the reference
    frame. A diverged or failed edge is flagged and the devices beyond it stay
    out of ``global_poses``.
    """
    order = list(order) if order is not None else sorted(clouds)
    cube_model = cube_model if cube_model is not None else {}

    edges: dict[tuple, RegistrationResult] = {}
    failed: list[tuple] = []

    def levels(dev: int):  # each scale is built on first use, then kept
        return cache(partial(_Level, clouds[dev], params, viewpoint=(0.0, 0.0, 0.0)))

    source = None
    for a, b in zip(order, order[1:]):
        # a was the previous edge's source: reuse its levels, and keep b's for the next edge
        target, source = source or levels(a), levels(b)
        try:
            init = estimate_pose_from_fiducials(fiducials[a], fiducials[b], cube_model) \
                if fiducials else RigidTransform.identity()
            if len(clouds[a]) and len(clouds[b]):
                result = _icp(source, target, init, params)
            else:
                result = RegistrationResult(init, 0.0, 1.0, [])
        except (DivergenceError, DegenerateConfigError) as e:
            logger.warning("edge (%s, %s) failed: %s", a, b, e)
            failed.append((a, b))
            continue
        if result.fitness < _MIN_FITNESS:
            logger.warning("edge (%s, %s) diverged (fitness %.3f)", a, b, result.fitness)
            failed.append((a, b))
            continue
        edges[(a, b)] = result

    # walk the chain from the reference along surviving edges
    poses: dict[int, RigidTransform] = {order[0]: RigidTransform.identity()}
    for a, b in zip(order, order[1:]):
        if (a, b) in edges and a in poses:
            poses[b] = poses[a].compose(edges[(a, b)].transform)
    return PoseGraph(order[0], edges, poses, failed)


def merge_clouds(clouds: dict[int, PointCloud], graph: PoseGraph,
                 dedup_voxel: float) -> PointCloud:
    """Transform every cloud into the reference frame, concatenate and deduplicate.

    Adds per-point source device ids for downstream camera-aware normal
    orientation; voxel deduplication keeps one averaged point per
    ``dedup_voxel`` cell.
    """
    pts, cols, ids = [], [], []
    has_colors = all(clouds[d].colors is not None for d in clouds)
    for dev in sorted(clouds):
        if dev not in graph.global_poses:
            raise ValueError(f"device {dev} has no global pose (diverged edge?)")
        moved = transform_cloud(clouds[dev], graph.global_poses[dev])
        pts.append(moved.points)
        if has_colors:
            cols.append(moved.colors)
        ids.append(np.full(len(moved), dev, dtype=np.int32))
    merged = PointCloud(np.vstack(pts) if pts else np.empty((0, 3)),
                        colors=np.vstack(cols) if has_colors and cols else None,
                        source_ids=np.concatenate(ids) if ids else None)
    return voxel_downsample(merged, dedup_voxel)


def save_pose_graph(path, graph: PoseGraph) -> None:
    doc = {"reference": graph.reference,
           "edges": [{"a": a, "b": b, "transform": r.transform.to_json_dict(),
                      "rmse": r.inlier_rmse, "fitness": r.fitness}
                     for (a, b), r in graph.edges.items()],
           "failed_edges": [list(e) for e in graph.failed_edges],
           "global_poses": {str(d): t.to_json_dict() for d, t in graph.global_poses.items()}}
    Path(path).write_text(json.dumps(doc, indent=2))


def load_pose_graph(path) -> PoseGraph:
    doc = json.loads(Path(path).read_text())
    edges = {(e["a"], e["b"]): RegistrationResult(
        RigidTransform.from_json_dict(e["transform"]), e["rmse"], e["fitness"])
        for e in doc["edges"]}
    poses = {int(d): RigidTransform.from_json_dict(t)
             for d, t in doc["global_poses"].items()}
    return PoseGraph(doc["reference"], edges, poses,
                     [tuple(e) for e in doc.get("failed_edges", [])])
