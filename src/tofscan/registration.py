"""Fiducial-cube initial alignment, multi-scale colored ICP, and rig chaining.

The pairwise refinement minimizes, per pyramid scale,

    E(T) = delta * mean(r_geo^2) + (1 - delta) * mean(r_col^2)

where r_geo is the point-to-plane residual against target normals and r_col
compares source intensity with the target's tangent-plane linearized intensity
at the projected point. delta is fixed at 0.968, the weight of Park, Zhou and
Koltun, "Colored Point Cloud Registration Revisited" (ICCV 2017), and the
scales run at most 50, 30 and 14 iterations, coarsest first. The sign of a
level's normal never reaches the arithmetic (the normal gate takes its
absolute value, a flip negates both r_geo and its Jacobian row, and the
intensity gradients use n n^T), so every level's normals face the camera
origin. Gauss-Newton steps are parameterized by (omega, t) with the update
T <- (Rodrigues(omega), t) o T; a step that would raise the objective is
halved up to three times and the scale stops if it still raises, so the
recorded objective never increases across accepted iterations. Each trial
re-queries the correspondences; a halving mostly re-draws which matches
fall inside the trim quantile, so further halvings would rarely pay.

Each cloud's level at one scale (downsampled points, intensity, PCA normals,
one KD-tree for every neighbour query and, for a target, intensity gradients)
is built once, and one KD query per level serves both: each point's 15
nearest neighbours give its normal and its gradient.
``register_rig`` builds every device's levels at every scale up front, shares
them across both of the device's chain edges, and runs one function per chain
edge (fiducial start, ICP, outcome) concurrently; one pass in chain order then
flags the failed edges and walks the chain. ``colored_icp`` runs one pair.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .geometry import PointCloud, RigidTransform, neighbour_normals
from .jsondoc import build, check, get
from .parallel import map_ordered

logger = logging.getLogger(__name__)

__all__ = [
    "DegenerateConfigError", "DivergenceError",
    "MultiScaleParams", "RegistrationResult", "PoseGraph",
    "make_observations", "estimate_pose_from_fiducials",
    "voxel_downsample", "colored_icp", "register_rig", "merge_clouds",
    "save_pose_graph", "save_calibration", "load_calibration", "rodrigues", "apply_increment",
]


class DegenerateConfigError(ValueError):
    """Too few non-collinear correspondences for a pose estimate."""


class DivergenceError(RuntimeError):
    """ICP found a level of fewer than 2 points, no usable correspondences at some
    scale, or fitness below ``_MIN_FITNESS`` at the start of its coarsest scale or at
    its end; carries the initial transform."""

    def __init__(self, msg: str, init: RigidTransform):
        super().__init__(msg)
        self.init = init


def make_observations(tag_corners: dict[int, np.ndarray], sigma: float = 0.0,
                      rng: np.random.Generator | None = None) -> dict[int, np.ndarray]:
    """``{tag_id: (4, 3) camera-frame corners}`` in tag order, with optional Gaussian noise."""
    rng = rng or np.random.default_rng(0)
    obs = {}
    for tag_id in sorted(tag_corners):
        corners = np.asarray(tag_corners[tag_id], dtype=np.float64)
        if sigma > 0:
            corners = corners + rng.standard_normal(corners.shape) * sigma
        obs[tag_id] = corners.reshape(4, 3)
    return obs


def estimate_pose_from_fiducials(obs_a: dict[int, np.ndarray],
                                 obs_b: dict[int, np.ndarray]) -> RigidTransform:
    """Least-squares rigid transform mapping camera-b points into camera-a.

    Corners of tags seen by both cameras correspond one-to-one in their
    layout order. Closed-form SVD absolute orientation, no scale.
    """
    shared = sorted(set(obs_a) & set(obs_b))
    if not shared:
        raise DegenerateConfigError("no shared tags between the two cameras")
    pa = np.vstack([obs_a[t] for t in shared])
    pb = np.vstack([obs_b[t] for t in shared])
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
_LEVEL_K = 15  # neighbours of a level point's PCA normal and intensity gradient
# an averaged normal shorter than this is a voxel whose normals cancel
_CANCELLED_NORMAL = 1e-6
_MAX_CORR_FACTOR = 2.0  # max correspondence distance / voxel
# keep this fraction of matches by distance: partial-overlap boundary points
# otherwise clamp to the target rim and drag the pose
_TRIM_FRACTION = 0.85
# wrapped-around points from a partially overlapping view face the wrong way;
# matches whose normals disagree by more than 40 degrees are rejected
_MIN_NORMAL_DOT = float(np.cos(np.radians(40.0)))
_DELTA = 0.968  # geometric weight of the objective
_MAX_ITERATIONS = (50, 30, 14)  # per scale, coarsest first
_MAX_HALVINGS = 3  # a step is tried at full length and at most this many halvings


@dataclass(frozen=True)
class MultiScaleParams:
    """Coarse-to-fine pyramid: 1 to 3 positive voxel sizes, strictly descending."""

    voxel_sizes: tuple = (0.04, 0.02, 0.01)

    def __post_init__(self):
        v = tuple(float(x) for x in self.voxel_sizes)
        if not 1 <= len(v) <= len(_MAX_ITERATIONS):
            raise ValueError(f"need 1 to {len(_MAX_ITERATIONS)} voxel sizes, got {len(v)}")
        if not all(x > 0 for x in v):
            raise ValueError(f"voxel sizes must be positive: {v}")
        if any(v[i] <= v[i + 1] for i in range(len(v) - 1)):
            raise ValueError(f"voxel sizes must be strictly descending: {v}")
        object.__setattr__(self, "voxel_sizes", v)


@dataclass
class RegistrationResult:
    transform: RigidTransform
    inlier_rmse: float
    fitness: float
    objective_history: list = field(default_factory=list)  # one list per scale


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """Average position, color and normal per occupied voxel; deterministic ordering.

    An averaged normal is scaled back to unit length; a voxel whose normals
    cancel keeps the normal of its first point.
    """
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
    first = order[np.concatenate([[0], np.nonzero(boundaries)[0] + 1])]

    def mean_of(arr):
        out = np.zeros((n_groups, arr.shape[1]))
        for c in range(arr.shape[1]):
            out[:, c] = np.bincount(group, weights=arr[order, c], minlength=n_groups)
        return out / counts[:, None]

    pts = mean_of(cloud.points)
    cols = mean_of(cloud.colors) if cloud.colors is not None else None
    normals = None
    if cloud.normals is not None:
        normals = mean_of(cloud.normals)
        lengths = np.linalg.norm(normals, axis=1)
        cancel = lengths < _CANCELLED_NORMAL
        normals[cancel], lengths[cancel] = cloud.normals[first[cancel]], 1.0
        normals /= lengths[:, None]
    return PointCloud(pts, colors=cols, normals=normals)


def rodrigues(omega: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(omega)
    if theta < 1e-12:
        k = np.array([[0, -omega[2], omega[1]], [omega[2], 0, -omega[0]],
                      [-omega[1], omega[0], 0]])
        return np.eye(3) + k  # first order is exact enough at this scale
    return RigidTransform.from_axis_angle(omega, theta).rotation


def apply_increment(xi: np.ndarray, t: RigidTransform) -> RigidTransform:
    """Left-multiplied update: (Rodrigues(omega), tau) composed with t."""
    inc = RigidTransform(rodrigues(xi[:3]), xi[3:])
    return inc.compose(t)


class _Level:
    """One cloud at one pyramid scale; its one KD-tree serves every neighbour query.

    Each point's ``_LEVEL_K`` nearest give its PCA normal and, for a target,
    its tangent-plane intensity gradient; a source level has ``gradients =
    None``. The cloud's own normals (a raster cloud's) are not used: a 5x5
    raster window on oblique, curved overlap tilts them, and the
    point-to-plane residuals would carry that tilt into the pose. A level of
    fewer than 2 points has no normals either (``normals = None``), and ICP
    on it diverges.
    """

    def __init__(self, cloud: PointCloud, params: MultiScaleParams, scale: int, target: bool):
        if cloud.colors is None:
            raise ValueError("colored ICP needs per-point colors on both clouds")
        # the cloud's own normals are not averaged: the level fits its own
        down = voxel_downsample(replace(cloud, normals=None), params.voxel_sizes[scale])
        self.points = down.points
        self.intensity = down.colors.mean(axis=1)
        self.tree = cKDTree(self.points)
        self.normals = self.gradients = None
        if len(down) < 2:
            return  # no neighbourhood to fit a normal to; _icp refuses the level
        _, idx = self.tree.query(self.points, k=min(_LEVEL_K, len(down)))
        self.normals = neighbour_normals(self.points, idx, -self.points)
        if target:
            self.gradients = self._gradients(idx)

    def _gradients(self, idx: np.ndarray) -> np.ndarray:
        """Each point's intensity gradient in its tangent plane, from neighbours ``idx``.

        Least squares over the tangent-projected neighbour offsets u:
        (sum u u^T + n n^T + 1e-12 I) g = sum u (i_nb - i), the n n^T term
        pinning the normal component to zero; the symmetric 3x3 system is
        built from its six moments and solved by its adjugate.
        """
        points, n, intensity = self.points, self.normals, self.intensity
        rel = [points[idx, axis] - points[:, axis, None] for axis in range(3)]  # (N, k) each
        along = sum(r * n[:, axis, None] for axis, r in enumerate(rel))
        ux, uy, uz = (r - along * n[:, axis, None] for axis, r in enumerate(rel))
        di = intensity[idx] - intensity[:, None]
        nx, ny, nz = n.T
        dot = partial(np.einsum, "nk,nk->n")
        sxx = dot(ux, ux) + nx * nx + 1e-12
        syy = dot(uy, uy) + ny * ny + 1e-12
        szz = dot(uz, uz) + nz * nz + 1e-12
        sxy, sxz, syz = dot(ux, uy) + nx * ny, dot(ux, uz) + nx * nz, dot(uy, uz) + ny * nz
        rx, ry, rz = dot(ux, di), dot(uy, di), dot(uz, di)
        # adjugate (the cofactors, symmetric) and determinant
        c_xx, c_yy, c_zz = syy * szz - syz * syz, sxx * szz - sxz * sxz, sxx * syy - sxy * sxy
        c_xy, c_xz, c_yz = sxz * syz - sxy * szz, sxy * syz - syy * sxz, sxy * sxz - sxx * syz
        det = sxx * c_xx + sxy * c_xy + sxz * c_xz
        return np.column_stack([c_xx * rx + c_xy * ry + c_xz * rz,
                                c_xy * rx + c_yy * ry + c_yz * rz,
                                c_xz * rx + c_yz * ry + c_zz * rz]) / det[:, None]


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
        valid &= dist <= max(cutoff, 1e-12)  # keeps the nearest match
    s = moved[valid]
    j = idx[valid]
    n = tgt.normals[j]
    d = tgt.gradients[j]
    diff = s - tgt.points[j]
    r_geo = np.einsum("ni,ni->n", diff, n)
    r_col = tgt.intensity[j] + np.einsum("ni,ni->n", d, diff) - src.intensity[valid]
    return {"s": s, "n": n, "d": d, "r_geo": r_geo, "r_col": r_col,
            "dist": dist[valid], "n_matched": n_matched}


def _fit_rmse(corr, n_source: int) -> tuple[float, float]:
    """Fitness (matched share of ``n_source`` points) and inlier rmse of one match set."""
    return corr["n_matched"] / n_source, float(np.sqrt(np.mean(corr["dist"] ** 2)))


def _objective(corr) -> float:
    return float(_DELTA * np.mean(corr["r_geo"] ** 2)
                 + (1 - _DELTA) * np.mean(corr["r_col"] ** 2))


def residual_jacobians(corr) -> tuple[np.ndarray, np.ndarray]:
    """Analytic Jacobians of r_geo and r_col w.r.t. the increment (omega, t)."""
    s = corr["s"]
    n = corr["n"]
    d = corr["d"]
    j_geo = np.hstack([np.cross(s, n), n])
    j_col = np.hstack([np.cross(s, d), d])
    return j_geo, j_col


def _gauss_newton_step(corr) -> np.ndarray:
    j_geo, j_col = residual_jacobians(corr)
    h = _DELTA * (j_geo.T @ j_geo) + (1 - _DELTA) * (j_col.T @ j_col)
    g = _DELTA * (j_geo.T @ corr["r_geo"]) + (1 - _DELTA) * (j_col.T @ corr["r_col"])
    h += 1e-12 * np.trace(h) / 6.0 * np.eye(6)
    return np.linalg.solve(h, -g)


def colored_icp(source: PointCloud, target: PointCloud, init: RigidTransform,
                params: MultiScaleParams = MultiScaleParams()) -> RegistrationResult:
    """Coarse-to-fine joint geometric/photometric alignment of source onto target."""
    return _icp(partial(_Level, source, params, target=False),
                partial(_Level, target, params, target=True), init, params)


def _icp(source_level, target_level, init: RigidTransform,
         params: MultiScaleParams) -> RegistrationResult:
    """The ICP loop over scales; ``*_level(scale)`` gives each cloud's level."""
    transform = init
    history_all: list[list[float]] = []
    for scale, voxel in enumerate(params.voxel_sizes):
        src, tgt = source_level(scale), target_level(scale)
        if src.normals is None or tgt.normals is None:
            raise DivergenceError(f"a cloud has fewer than 2 points at voxel {voxel}", init)
        corr = _residuals(src, tgt, transform, voxel)
        if corr is None or (scale == 0 and _fit_rmse(corr, len(src.points))[0] < _MIN_FITNESS):
            raise DivergenceError(f"no usable correspondences at voxel {voxel}", init)
        energy = _objective(corr)
        history = [energy]
        prev_fit, prev_rmse = _fit_rmse(corr, len(src.points))
        for _ in range(_MAX_ITERATIONS[scale]):
            xi = _gauss_newton_step(corr)
            accepted = None
            for _damp in range(1 + _MAX_HALVINGS):
                trial = apply_increment(xi, transform)
                trial_corr = _residuals(src, tgt, trial, voxel)
                if trial_corr is not None:
                    trial_energy = _objective(trial_corr)
                    if trial_energy <= energy:
                        accepted = (trial, trial_corr, trial_energy)
                        break
                xi = xi / 2.0
            if accepted is None:
                break
            transform, corr, energy = accepted
            history.append(energy)
            fit, rmse = _fit_rmse(corr, len(src.points))
            if (abs(fit - prev_fit) < _RELATIVE_CHANGE * max(prev_fit, 1e-12)
                    and abs(rmse - prev_rmse) < _RELATIVE_CHANGE * max(prev_rmse, 1e-12)):
                break
            prev_fit, prev_rmse = fit, rmse
        history_all.append(history)

    fitness, rmse = _fit_rmse(corr, len(src.points))
    if fitness < _MIN_FITNESS:
        raise DivergenceError(f"fitness {fitness:.3f} below {_MIN_FITNESS}", init)
    return RegistrationResult(transform, rmse, fitness, history_all)


# --- rig chaining -----------------------------------------------------------


@dataclass
class PoseGraph:
    reference: int
    edges: dict                      # (a, b) -> RegistrationResult, transform maps b -> a
    global_poses: dict               # device -> RigidTransform into the reference frame
    failed_edges: list = field(default_factory=list)


def register_rig(clouds: dict[int, PointCloud], fiducials: dict[int, dict],
                 params: MultiScaleParams = MultiScaleParams(),
                 order: list[int] | None = None) -> PoseGraph:
    """Chain-register per-device clouds: fiducial init + pairwise colored ICP.

    ``fiducials`` holds each device's ``make_observations`` tag corners; when
    it is empty every edge starts from the identity. ``order`` is the physical
    rig order (defaults to sorted device ids); consecutive devices form the
    chain edges and ``order[0]`` is the reference frame. An edge that raises is
    flagged and the devices beyond it stay out of ``global_poses``.
    """
    order = list(order) if order is not None else sorted(clouds)
    chain = list(zip(order, order[1:]))

    # one level per (non-empty device, scale); a device that is some edge's
    # target also gets its gradients
    targets = set(order[:-1])
    units = [(dev, scale) for dev in order if len(clouds[dev])
             for scale in range(len(params.voxel_sizes))]
    levels = dict(zip(units, map_ordered(
        lambda u: _Level(clouds[u[0]], params, u[1], target=u[0] in targets), units)))

    def run_edge(edge):
        """The edge's result, or the DegenerateConfigError or DivergenceError that fails it."""
        a, b = edge
        try:
            init = estimate_pose_from_fiducials(fiducials[a], fiducials[b]) \
                if fiducials else RigidTransform.identity()
            if not (len(clouds[a]) and len(clouds[b])):
                return RegistrationResult(init, 0.0, 1.0, [])
            return _icp(lambda s: levels[b, s], lambda s: levels[a, s], init, params)
        except (DegenerateConfigError, DivergenceError) as e:
            return e

    # in chain order: flag the failed edges, walk the rest from the reference
    edges: dict[tuple, RegistrationResult] = {}
    failed: list[tuple] = []
    poses: dict[int, RigidTransform] = {order[0]: RigidTransform.identity()}
    for (a, b), outcome in zip(chain, map_ordered(run_edge, chain)):
        if isinstance(outcome, Exception):
            logger.warning("edge (%s, %s) failed: %s", a, b, outcome)
            failed.append((a, b))
        else:
            edges[(a, b)] = outcome
            if a in poses:
                poses[b] = poses[a].compose(outcome.transform)
    return PoseGraph(order[0], edges, poses, failed)


def merge_clouds(clouds: dict[int, PointCloud], graph: PoseGraph,
                 dedup_voxel: float) -> PointCloud:
    """Move every posed cloud into the reference frame, concatenate and deduplicate.

    Devices without a global pose are left out. Colours and normals are kept
    when every posed cloud has them, each normal still facing its own
    camera. Voxel deduplication keeps one averaged point per ``dedup_voxel``
    cell.
    """
    posed = sorted(d for d in clouds if d in graph.global_poses)
    if not posed:
        return PointCloud(np.empty((0, 3)))
    parts = [(clouds[d], graph.global_poses[d]) for d in posed]
    bounds = np.cumsum([0] + [len(c) for c, _ in parts])

    def joined(attr, move):
        """Each posed cloud's ``attr`` moved by its pose, filled into one array (no
        per-device copies held at once); None unless every posed cloud has it."""
        if any(getattr(c, attr) is None for c, _ in parts):
            return None
        out = np.empty((bounds[-1], 3))
        for (c, pose), lo, hi in zip(parts, bounds, bounds[1:]):
            out[lo:hi] = move(pose, getattr(c, attr))
        return out

    merged = PointCloud(joined("points", RigidTransform.apply),
                        colors=joined("colors", lambda pose, colors: colors),
                        normals=joined("normals", RigidTransform.apply_direction))
    return voxel_downsample(merged, dedup_voxel)


def save_pose_graph(path, graph: PoseGraph) -> None:
    doc = {"reference": graph.reference,
           "edges": [{"a": a, "b": b, "transform": r.transform.to_json_dict(),
                      "rmse": r.inlier_rmse, "fitness": r.fitness}
                     for (a, b), r in graph.edges.items()],
           "failed_edges": [list(e) for e in graph.failed_edges],
           "global_poses": {str(d): t.to_json_dict() for d, t in graph.global_poses.items()}}
    Path(path).write_text(json.dumps(doc, indent=2))


def save_calibration(path, order: list[int], params: MultiScaleParams,
                     fiducials: dict[int, dict]) -> None:
    """What ``register_rig`` gets besides the clouds: chain order, ICP pyramid, tag corners."""
    doc = {"order": list(order), "voxel_sizes": list(params.voxel_sizes),
           "fiducials": {str(d): {str(t): c.ravel().tolist() for t, c in obs.items()}
                         for d, obs in fiducials.items()}}
    Path(path).write_text(json.dumps(doc, indent=2))


def load_calibration(path) -> tuple[list[int], MultiScaleParams, dict[int, dict]]:
    """``save_calibration``'s order, pyramid and tag corners of every device in the order.

    Any defect raises ValueError naming its key path, ``calibration.voxel_sizes`` say.
    """
    doc = check(json.loads(Path(path).read_text()), "calibration", "object")
    order = get(doc, "calibration", "order", "list", "integer")
    if len(set(order)) != len(order):
        raise ValueError(f"calibration.order: {order} names a device twice")
    params = build("calibration.voxel_sizes", MultiScaleParams,
                   get(doc, "calibration", "voxel_sizes", "list", "number"))
    tags = get(doc, "calibration", "fiducials", "object")
    fiducials = {}
    for dev in order:
        fiducials[dev] = obs = {}
        for t, corners in get(tags, "calibration.fiducials", str(dev), "object").items():
            p = f"calibration.fiducials.{dev}.{t}"
            if len(check(corners, p, "list", "number")) != 12:
                raise ValueError(f"{p}: expected 12 numbers, 4 corners of 3, got {len(corners)}")
            obs[build(p, int, t)] = np.reshape(corners, (4, 3)).astype(np.float64)
    return order, params, fiducials
