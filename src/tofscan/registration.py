"""Cube calibration, colored ICP, and the rig's fused pose solve.

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

Each cloud's level at one voxel size (downsampled points, intensity, PCA
normals, one KD-tree for every neighbour query and, for a target, intensity
gradients) is built once, and one KD query per level serves both: each
point's 15 nearest neighbours give its normal and its gradient.
``colored_icp`` runs one pair over a ``MultiScaleParams`` pyramid.

``register_rig`` poses a rig in three steps. Each camera is posed against the
calibration cube by fitting its observed tag corners to the cube's layout
(target-based calibration, Zhang, TPAMI 2000). Each chain edge then runs ICP
at one voxel size, the finest, from the relative pose of its two cube poses;
the levels are built once per device and shared by both of its edges, and
the edges run concurrently. Last, one least-squares solve over every
device's pose weighs the corners by their 1 mm noise and each edge by its
ICP information (a pose graph in the manner of Choi, Zhou and Koltun,
"Robust Reconstruction of Indoor Scenes", CVPR 2015). That information
counts every trimmed match as independent; an edge whose ICP moved further
from its cube start than the information allows has it scaled down to fit
the move.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

# SciPy is imported in the functions that call it: the device server, the scan
# client and the oracle import this module and run on numpy alone
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
    its end."""


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
    pairs = _shared_corners(obs_a, obs_b)
    if pairs is None:
        raise DegenerateConfigError("no shared tags between the two cameras")
    return _absolute_orientation(*pairs)


def _shared_corners(obs_a: dict[int, np.ndarray],
                    obs_b: dict[int, np.ndarray]) -> tuple[np.ndarray, np.ndarray] | None:
    """The corners of the tags in both ``obs_a`` and ``obs_b``, stacked in tag order,
    (n, 3) each; None if they share no tag."""
    shared = sorted(set(obs_a) & set(obs_b))
    if not shared:
        return None
    return np.vstack([obs_a[t] for t in shared]), np.vstack([obs_b[t] for t in shared])


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
# an edge's information divides by at least this objective, (1 micron)^2: a
# match set that fits better is not trusted more
_MIN_OBJECTIVE = 1e-12


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


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])


def rodrigues(omega: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(omega)
    if theta < 1e-12:
        return np.eye(3) + _skew(omega)  # first order is exact enough at this scale
    return RigidTransform.from_axis_angle(omega, theta).rotation


def apply_increment(xi: np.ndarray, t: RigidTransform) -> RigidTransform:
    """Left-multiplied update: (Rodrigues(omega), tau) composed with t."""
    inc = RigidTransform(rodrigues(xi[:3]), xi[3:])
    return inc.compose(t)


class _Level:
    """One cloud at one voxel size; its one KD-tree serves every neighbour query.

    Each point's ``_LEVEL_K`` nearest give its PCA normal and, for a target,
    its tangent-plane intensity gradient; a source level has ``gradients =
    None``. The cloud's own normals (a raster cloud's) are not used: a 5x5
    raster window on oblique, curved overlap tilts them, and the
    point-to-plane residuals would carry that tilt into the pose. A level of
    fewer than 2 points has no normals either (``normals = None``), and ICP
    on it diverges.
    """

    def __init__(self, cloud: PointCloud, voxel: float, target: bool):
        from scipy.spatial import cKDTree

        if cloud.colors is None:
            raise ValueError("colored ICP needs per-point colors on both clouds")
        self.voxel = voxel
        # the cloud's own normals are not averaged: the level fits its own
        down = voxel_downsample(replace(cloud, normals=None), voxel)
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


def _residuals(src: _Level, tgt: _Level, transform: RigidTransform):
    """Residuals and correspondence data at the current transform."""
    moved = transform.apply(src.points)
    dist, idx = tgt.tree.query(moved, distance_upper_bound=_MAX_CORR_FACTOR * src.voxel)
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


def _normal_equations(corr) -> tuple[np.ndarray, np.ndarray]:
    """``h`` and ``g`` of the Gauss-Newton system ``h xi = -g`` of one match set."""
    j_geo, j_col = residual_jacobians(corr)
    h = _DELTA * (j_geo.T @ j_geo) + (1 - _DELTA) * (j_col.T @ j_col)
    g = _DELTA * (j_geo.T @ corr["r_geo"]) + (1 - _DELTA) * (j_col.T @ corr["r_col"])
    return h, g


def _gauss_newton_step(corr) -> np.ndarray:
    h, g = _normal_equations(corr)
    h += 1e-12 * np.trace(h) / 6.0 * np.eye(6)
    return np.linalg.solve(h, -g)


def colored_icp(source: PointCloud, target: PointCloud, init: RigidTransform,
                params: MultiScaleParams = MultiScaleParams()) -> RegistrationResult:
    """Coarse-to-fine joint geometric/photometric alignment of source onto target."""
    return _icp(((_Level(source, voxel, target=False), _Level(target, voxel, target=True))
                 for voxel in params.voxel_sizes), init)[0]


def _icp(scales, init: RigidTransform) -> tuple[RegistrationResult, np.ndarray]:
    """The ICP loop over ``scales``, ``(source, target)`` level pairs, coarsest first.

    Returns the result and its information: the last scale's ``h`` at the final
    transform over the final objective, the (6, 6) information of the left
    increment (omega, t) of the result's transform.
    """
    transform = init
    history_all: list[list[float]] = []
    for scale, (src, tgt) in enumerate(scales):
        if src.normals is None or tgt.normals is None:
            raise DivergenceError(f"a cloud has fewer than 2 points at voxel {src.voxel}")
        corr = _residuals(src, tgt, transform)
        if corr is None or (scale == 0 and _fit_rmse(corr, len(src.points))[0] < _MIN_FITNESS):
            raise DivergenceError(f"no usable correspondences at voxel {src.voxel}")
        energy = _objective(corr)
        history = [energy]
        prev_fit, prev_rmse = _fit_rmse(corr, len(src.points))
        for _ in range(_MAX_ITERATIONS[scale]):
            xi = _gauss_newton_step(corr)
            accepted = None
            for _damp in range(1 + _MAX_HALVINGS):
                trial = apply_increment(xi, transform)
                trial_corr = _residuals(src, tgt, trial)
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
        raise DivergenceError(f"fitness {fitness:.3f} below {_MIN_FITNESS}")
    information = _normal_equations(corr)[0] / max(energy, _MIN_OBJECTIVE)
    return RegistrationResult(transform, rmse, fitness, history_all), information


# --- rig registration ---------------------------------------------------------

# sigma of the calibration pass's tag-corner noise, in meters; the pose solve
# weighs each corner residual by it
CORNER_NOISE_SIGMA = 0.001
_SOLVE_STEPS = 3  # Gauss-Newton steps of the fused pose solve


@dataclass
class PoseGraph:
    reference: int
    edges: dict                      # (a, b) -> RegistrationResult of each edge that ran ICP
    global_poses: dict               # device -> RigidTransform into the reference frame
    failed_edges: list = field(default_factory=list)


def _log(t: RigidTransform) -> np.ndarray:
    """(rotation vector, translation) of ``t``, the 6-vector the pose solve weighs."""
    from scipy.spatial.transform import Rotation

    return np.concatenate([Rotation.from_matrix(t.rotation).as_rotvec(), t.translation])


def _solve_poses(start: dict, corners: dict, links: dict) -> dict:
    """The poses of the devices in ``start`` that best fit their tag ``corners`` and
    the ICP edges together: a few Gauss-Newton steps over 6 unknowns a device,
    started from ``start``, each updating a pose by a left increment (omega, t).
    Every device in ``start`` has corners, and every edge's devices are in ``start``.

    A pose maps the cube's frame into its camera's. A device's corner residuals
    P_d x - y weigh 1 / CORNER_NOISE_SIGMA^2. An edge (a, b) with ``links[a, b] =
    (T_ab, information)`` weighs that information on e = log(P_a P_b^-1 T_ab^-1),
    read as (rotation vector, translation): P_a P_b^-1 is the b-to-a transform
    that the poses imply and T_ab the one ICP found. To first order in e, its
    Jacobian is I for P_a and -Ad(P_a P_b^-1) for P_b.
    """
    devices = sorted(start)
    at = {dev: slice(6 * i, 6 * i + 6) for i, dev in enumerate(devices)}
    poses = dict(start)
    axes = np.eye(3)
    for _ in range(_SOLVE_STEPS):
        h = np.zeros((6 * len(devices), 6 * len(devices)))
        g = np.zeros(6 * len(devices))
        for dev in devices:
            observed, model = corners[dev]
            p = poses[dev].apply(model)
            r = (p - observed).ravel()
            # the row of corner i, axis k: (p_i x e_k, e_k)
            j = np.concatenate([np.cross(p[:, None], axes),
                                np.broadcast_to(axes, (len(p), 3, 3))], axis=2).reshape(-1, 6)
            h[at[dev], at[dev]] += j.T @ j / CORNER_NOISE_SIGMA ** 2
            g[at[dev]] += j.T @ r / CORNER_NOISE_SIGMA ** 2
        for (a, b), (found, information) in links.items():
            implied = poses[a].compose(poses[b].invert())
            err = _log(implied.compose(found.invert()))
            adjoint = np.zeros((6, 6))
            adjoint[:3, :3] = adjoint[3:, 3:] = implied.rotation
            adjoint[3:, :3] = _skew(implied.translation) @ implied.rotation
            j = np.zeros((6, len(g)))
            j[:, at[a]] = np.eye(6)
            j[:, at[b]] = -adjoint
            h += j.T @ information @ j
            g += j.T @ information @ err
        step = np.linalg.solve(h, -g)
        poses.update((dev, apply_increment(step[at[dev]], poses[dev])) for dev in devices)
    return poses


def register_rig(clouds: dict[int, PointCloud], fiducials: dict[int, dict],
                 layout: dict[int, np.ndarray], voxel: float, order: list[int]) -> PoseGraph:
    """Pose every device from the calibration cube, one-scale colored ICP on the
    chain edges, and one solve that fuses the two.

    ``fiducials`` holds each device's ``make_observations`` tag corners and
    ``layout`` the cube's (``cube_tag_layout``). ``order`` is the physical rig
    order; consecutive devices form the chain edges and ``order[0]`` is the
    reference frame. Each edge runs ICP at ``voxel`` from the relative pose of
    its devices' cube poses; an edge with a device that saw no tag of the cube
    has no start and fails. An edge that raises is flagged and adds nothing to
    the solve; an edge with an empty cloud runs no ICP and is left out of
    ``edges``. An edge's information is divided by max(1, d^T I d / 6), d the
    move of its ICP from the cube start and I its information: an edge that
    moved further than its information allows is weighed by the move it made.
    A device is posed when it and the reference saw a tag of the cube; a
    reference that saw none is posed alone.
    """
    chain = list(zip(order, order[1:]))
    corners = {dev: pairs for dev, obs in fiducials.items()
               if (pairs := _shared_corners(obs, layout)) is not None}
    cube = {dev: _absolute_orientation(*pairs) for dev, pairs in corners.items()}

    # one level per non-empty device; a device that is some edge's target also
    # gets its gradients
    targets = set(order[:-1])
    devices = [dev for dev in order if len(clouds[dev])]
    levels = dict(zip(devices, map_ordered(
        lambda dev: _Level(clouds[dev], voxel, target=dev in targets), devices)))

    def run_edge(edge):
        """The edge's result and information, None if a cloud is empty, or the
        DegenerateConfigError or DivergenceError that fails it."""
        a, b = edge
        try:
            unposed = [dev for dev in edge if dev not in cube]
            if unposed:
                raise DegenerateConfigError(f"device {unposed[0]} sees no tag of the cube")
            if a not in levels or b not in levels:
                return None
            init = cube[a].compose(cube[b].invert())
            result, information = _icp([(levels[b], levels[a])], init)
            move = _log(init.compose(result.transform.invert()))
            return result, information / max(1.0, move @ information @ move / 6)
        except (DegenerateConfigError, DivergenceError) as e:
            return e

    # in chain order: flag the failed edges, keep the rest
    edges: dict[tuple, RegistrationResult] = {}
    links: dict[tuple, tuple] = {}  # (a, b) -> (transform, information) for the solve
    failed: list[tuple] = []
    for (a, b), outcome in zip(chain, map_ordered(run_edge, chain)):
        if isinstance(outcome, Exception):
            logger.warning("edge (%s, %s) failed: %s", a, b, outcome)
            failed.append((a, b))
        elif outcome is not None:
            edges[(a, b)], information = outcome
            links[(a, b)] = (edges[(a, b)].transform, information)

    ref = order[0]
    poses = {ref: RigidTransform.identity()}
    if ref in cube:
        solved = _solve_poses(cube, corners, links)
        poses.update((dev, solved[ref].compose(solved[dev].invert()))
                     for dev in order[1:] if dev in solved)
    return PoseGraph(ref, edges, poses, failed)


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


def save_calibration(path, order: list[int], voxel: float, layout: dict[int, np.ndarray],
                     fiducials: dict[int, dict]) -> None:
    """What ``register_rig`` gets besides the clouds: chain order, ICP voxel size, the
    cube's tag layout and each device's tag corners."""
    def corners(tags):
        return {str(t): c.ravel().tolist() for t, c in tags.items()}

    doc = {"order": list(order), "voxel_size": voxel, "layout": corners(layout),
           "fiducials": {str(d): corners(obs) for d, obs in fiducials.items()}}
    Path(path).write_text(json.dumps(doc, indent=2))


def _read_corners(doc: dict, path: str) -> dict[int, np.ndarray]:
    """``{tag_id: (4, 3) corners}`` from a JSON object of 12 numbers per tag id."""
    tags = {}
    for t, corners in doc.items():
        p = f"{path}.{t}"
        if len(check(corners, p, "list", "number")) != 12:
            raise ValueError(f"{p}: expected 12 numbers, 4 corners of 3, got {len(corners)}")
        tags[build(p, int, t)] = np.reshape(corners, (4, 3)).astype(np.float64)
    return tags


def load_calibration(path) -> tuple[list[int], float, dict[int, np.ndarray], dict[int, dict]]:
    """``save_calibration``'s order, voxel size, layout and the tag corners of every
    device in the order.

    Any defect raises ValueError naming its key path, ``calibration.voxel_size`` say.
    """
    doc = check(json.loads(Path(path).read_text()), "calibration", "object")
    order = get(doc, "calibration", "order", "list", "integer")
    if len(set(order)) != len(order):
        raise ValueError(f"calibration.order: {order} names a device twice")
    voxel = float(get(doc, "calibration", "voxel_size", "number"))
    if not voxel > 0:
        raise ValueError(f"calibration.voxel_size: must be positive, got {voxel}")
    layout = _read_corners(get(doc, "calibration", "layout", "object"), "calibration.layout")
    tags = get(doc, "calibration", "fiducials", "object")
    fiducials = {dev: _read_corners(get(tags, "calibration.fiducials", str(dev), "object"),
                                    f"calibration.fiducials.{dev}") for dev in order}
    return order, voxel, layout, fiducials
