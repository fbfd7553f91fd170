import numpy as np
import pytest

from conftest import pose_error
from tofscan.geometry import RigidTransform
from tofscan.registration import (DegenerateConfigError, estimate_pose_from_fiducials,
                                  make_observations)
from tofscan.scene import cube_tag_layout

LAYOUT = cube_tag_layout(0.5, 1)
TAGS = [0, 2, 4]  # three mutually orthogonal faces -> 12 well-spread corners


def observe(layout, tags, cam_pose, sigma=0.0, rng=None):
    corners = {t: cam_pose.invert().apply(layout[t]) for t in tags}
    return make_observations(corners, sigma, rng)


def random_cam(rng, distance=1.1):
    return RigidTransform.from_axis_angle(rng.standard_normal(3),
                                          rng.uniform(0, 2 * np.pi),
                                          rng.uniform(-0.4, 0.4, 3) + (0, 0, distance))


def test_same_camera_gives_identity(rng):
    cam = random_cam(rng)
    obs = observe(LAYOUT, TAGS, cam)
    t = estimate_pose_from_fiducials(obs, obs)
    assert np.abs(t.matrix() - np.eye(4)).max() < 1e-12


def test_exact_recovery(rng):
    for _ in range(20):
        cam_a, cam_b = random_cam(rng), random_cam(rng)
        obs_a = observe(LAYOUT, TAGS, cam_a)
        obs_b = observe(LAYOUT, TAGS, cam_b)
        est = estimate_pose_from_fiducials(obs_a, obs_b)
        t_true = cam_a.invert().compose(cam_b)
        assert np.abs(est.matrix() - t_true.matrix()).max() < 1e-9


def test_noise_monte_carlo(rng):
    """1 mm corner noise, 12 correspondences: mean errors within spec bounds."""
    rot_errs, tr_errs = [], []
    for _ in range(100):
        cam_a, cam_b = random_cam(rng), random_cam(rng)
        obs_a = observe(LAYOUT, TAGS, cam_a, sigma=0.001, rng=rng)
        obs_b = observe(LAYOUT, TAGS, cam_b, sigma=0.001, rng=rng)
        est = estimate_pose_from_fiducials(obs_a, obs_b)
        rot_e, tr_e = pose_error(est, cam_a.invert().compose(cam_b))
        rot_errs.append(rot_e)
        tr_errs.append(tr_e)
    assert np.mean(rot_errs) <= 0.5
    assert np.mean(tr_errs) <= 0.005


def test_order_invariance(rng):
    """Relabeling/reordering the observations changes nothing."""
    cam_a, cam_b = random_cam(rng), random_cam(rng)
    obs_a = observe(LAYOUT, TAGS, cam_a, sigma=0.002, rng=np.random.default_rng(5))
    obs_b = observe(LAYOUT, TAGS, cam_b, sigma=0.002, rng=np.random.default_rng(6))
    t1 = estimate_pose_from_fiducials(obs_a, obs_b)
    t2 = estimate_pose_from_fiducials(dict(reversed(obs_a.items())),
                                      dict(reversed(obs_b.items())))
    assert np.array_equal(t1.matrix(), t2.matrix())


def test_single_shared_tag_suffices(rng):
    cam_a, cam_b = random_cam(rng), random_cam(rng)
    obs_a = observe(LAYOUT, [0, 2], cam_a)
    obs_b = observe(LAYOUT, [0, 4], cam_b)
    est = estimate_pose_from_fiducials(obs_a, obs_b)  # only tag 0 shared
    assert np.abs(est.matrix() - cam_a.invert().compose(cam_b).matrix()).max() < 1e-9


def test_no_shared_tags_is_degenerate(rng):
    cam = random_cam(rng)
    with pytest.raises(DegenerateConfigError, match="shared"):
        estimate_pose_from_fiducials(observe(LAYOUT, [0], cam),
                                     observe(LAYOUT, [1], cam))


def test_collinear_corners_rejected():
    line = np.column_stack([np.arange(4.0), np.zeros(4), np.ones(4)])
    obs = make_observations({0: line})
    with pytest.raises(DegenerateConfigError, match="collinear"):
        estimate_pose_from_fiducials(obs, obs)
