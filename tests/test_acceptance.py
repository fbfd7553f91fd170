"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete. Every tolerance is asserted at its contractual value; the
configurations (rig layouts, textures, chain orders) are the tuned defaults
shipped by the package.
"""

import time

import numpy as np
import pytest

from conftest import pose_error, sampled_mesh_points, unit_cube_mesh
from tofscan.capture import build_schedule
from tofscan.acquisition import DeviceServer, ScanClient
from tofscan.experiments import (KNOWN_BOXES, KNOWN_CYLINDER, ORIENTATIONS, SYNC_SCENE,
                                 animal_config, known_object_config, run_animal_experiment,
                                 run_interference_experiment, run_known_object_experiment,
                                 write_report_csv)
from tofscan.formats import decode_pgm16, decode_ppm
from tofscan.geometry import BinaryMask, PointCloud, RigidTransform
from tofscan.metrology import surface_area, volume
from tofscan.oracle import oracle_measurements, oracle_mesh
from tofscan.pipeline import RunConfig
from tofscan.protocol import (ErrorCode, Message, MessageKind, decode_message,
                              encode_message, json_message)
from tofscan.reconstruction import euler_characteristic, is_watertight, poisson_reconstruct
from tofscan.registration import (MultiScaleParams, colored_icp,
                                  estimate_pose_from_fiducials, make_observations,
                                  residual_jacobians, rodrigues)
from tofscan.rigs import known_object_rig
from tofscan.scene import cube_tag_layout, make_animal_model, make_known_object_scene
from tofscan.segmentation import ArbitrationMode, MaskPair, fuse, metrics


def report(criterion: str, passed: bool, detail: str):
    line = f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
    print("\n" + line)
    assert passed, line


@pytest.fixture(scope="module")
def animal_oracle():
    scene = make_animal_model(1.0)
    return scene, oracle_measurements(scene, spacing=0.004)


@pytest.mark.slow
def test_criterion_1_known_object_metrology(tmp_path):
    """Cylinder at 5 orientations x 3 seeds plus three boxes, <= 5% mean errors."""
    t0 = time.monotonic()
    cyl = KNOWN_CYLINDER
    cfg = known_object_config(make_known_object_scene(cyl))
    cyl_report = run_known_object_experiment("cylinder", cyl, 3, list(ORIENTATIONS), cfg)
    write_report_csv(tmp_path / "cylinder.csv", cyl_report)

    box_lines = []
    ok = (len(cyl_report.runs) == 15 and not cyl_report.failed_runs
          and cyl_report.pct_err_area <= 5.0 and cyl_report.pct_err_volume <= 5.0)
    for name, prim in KNOWN_BOXES.items():
        rep = run_known_object_experiment(f"box-{name}", prim, 1, [RigidTransform.identity()],
                                          known_object_config(make_known_object_scene(prim)))
        ok &= (not rep.failed_runs and rep.pct_err_area <= 5.0
               and rep.pct_err_volume <= 5.0)
        box_lines.append(f"{name} {rep.pct_err_area:.2f}%/{rep.pct_err_volume:.2f}%")
    elapsed = time.monotonic() - t0
    ok &= elapsed <= 300.0
    report("criterion 1", ok,
           f"cylinder area {cyl_report.pct_err_area:.2f}% vol {cyl_report.pct_err_volume:.2f}% "
           f"(15 runs); boxes {', '.join(box_lines)}; {elapsed:.0f}s <= 300s")


def test_criterion_2_synchronization_study():
    """Retention: <= 20% at zero delay, >= 99% at 160 us, monotone over delays."""
    cfg = RunConfig(scene=SYNC_SCENE, rig=known_object_rig())
    retention = run_interference_experiment([0, 40, 80, 120, 160], cfg, n_seeds=20)
    vals = [retention[d] for d in (0, 40, 80, 120, 160)]
    monotone = all(vals[i] <= vals[i + 1] + 1e-9 for i in range(4))
    ok = retention[0] <= 0.20 and retention[160] >= 0.99 and monotone
    report("criterion 2", ok,
           f"retention(0)={retention[0]:.4f} <= 0.20, retention(160)={retention[160]:.4f} "
           f">= 0.99, monotone over delays: {monotone}")


def test_criterion_3_arbitration_structure(rng):
    """fn(OR) and fp(AND) minimal on >= 1000 random pairs; 4x4 cases exact."""
    violations = 0
    for _ in range(1000):
        n = 16
        blobs = []
        for _k in range(3):
            cx, cy, r = rng.integers(2, 14), rng.integers(2, 14), rng.uniform(1.5, 4)
            yy, xx = np.mgrid[0:n, 0:n]
            blobs.append((xx - cx) ** 2 + (yy - cy) ** 2 < r ** 2)
        gt = BinaryMask(blobs[0])
        if gt.count() == 0:
            continue
        jitter = lambda b: BinaryMask(
            (b | (rng.random((n, n)) < 0.05)) & (rng.random((n, n)) > 0.05))
        pair = MaskPair(jitter(blobs[0] | blobs[1]), jitter(blobs[0] | blobs[2]))
        m_rgb = metrics(pair.rgb_mask, gt)
        m_dep = metrics(pair.depth_mask, gt)
        m_or = metrics(fuse(pair, ArbitrationMode.ONE_VOTE_OR), gt)
        m_and = metrics(fuse(pair, ArbitrationMode.TWO_VOTE_AND), gt)
        if m_or.fn_rate > min(m_rgb.fn_rate, m_dep.fn_rate) + 1e-12:
            violations += 1
        if m_and.fp_rate > min(m_rgb.fp_rate, m_dep.fp_rate) + 1e-12:
            violations += 1

    def mask_of(coords):
        data = np.zeros((4, 4), bool)
        for u, v in coords:
            data[v, u] = True
        return BinaryMask(data)

    gt = mask_of([(0, 0), (1, 0), (2, 0), (3, 0)])
    pred = mask_of([(0, 0), (1, 0), (2, 0), (1, 1)])
    m = metrics(pred, gt)
    exact = (m.iou == 3 / 5 and m.fn_rate == 25.0 and m.fp_rate == 100.0 / 12)
    pair = MaskPair(mask_of([(0, 0), (0, 1)]), mask_of([(0, 1), (1, 1)]))
    exact &= fuse(pair, ArbitrationMode.ONE_VOTE_OR).count() == 3
    exact &= fuse(pair, ArbitrationMode.TWO_VOTE_AND).count() == 1
    ok = violations == 0 and exact
    report("criterion 3", ok,
           f"0 ordering violations in 1000 pairs (got {violations}); "
           f"hand-enumerated 4x4 metrics exact: {exact}")


def _icp_patch(rng, n=6000):
    xy = rng.uniform(-0.35, 0.35, (n, 2))
    z = 0.55 * (xy[:, 0] ** 2 + xy[:, 1] ** 2) + 0.15 * np.sin(3 * xy[:, 0]) * np.cos(2.2 * xy[:, 1])
    pts = np.column_stack([xy, z])
    w = 0.5 + 0.25 * np.sin(9 * pts[:, 0] + 1.4 * np.sin(5 * pts[:, 1])) \
        + 0.25 * np.cos(7.3 * pts[:, 1] + np.sin(4.1 * pts[:, 0]))
    cols = np.clip(np.column_stack([w, 0.4 + 0.3 * w, 1.0 - w]), 0, 1)
    return pts, cols


@pytest.mark.slow
def test_criterion_4_registration_recovery():
    """100 seeded ICP trials: rmse <= 2x finest voxel in >= 95; Jacobians to 1e-5."""
    params = MultiScaleParams((0.04, 0.02, 0.01))
    successes = 0
    monotone = True
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        pts, cols = _icp_patch(rng)
        centroid = pts.mean(axis=0)
        rot = RigidTransform.from_axis_angle(rng.standard_normal(3),
                                             np.radians(rng.uniform(1, 10)))
        t_true = RigidTransform(rot.rotation,
                                centroid - rot.rotation @ centroid + rng.uniform(-0.05, 0.05, 3))
        src = PointCloud(pts + rng.standard_normal(pts.shape) * 0.001, colors=cols)
        tgt_pts = t_true.apply(pts) + rng.standard_normal(pts.shape) * 0.001
        keep = rng.random(len(tgt_pts)) > 0.15
        tgt = PointCloud(tgt_pts[keep], colors=cols[keep])
        result = colored_icp(src, tgt, RigidTransform.identity(), params)
        if result.inlier_rmse <= 2 * params.voxel_sizes[-1]:
            rot_e, tr_e = pose_error(result.transform, t_true)
            if rot_e <= 1.5 and tr_e <= 0.02:
                successes += 1
        for history in result.objective_history:
            monotone &= all(history[i + 1] <= history[i] * (1 + 1e-12)
                            for i in range(len(history) - 1))

    # analytic vs central-difference Jacobians at 100 random states
    jac_ok = True
    rng = np.random.default_rng(77)
    eps = 1e-7
    for _ in range(100):
        s = rng.standard_normal((48, 3))
        nrm = rng.standard_normal((48, 3))
        nrm /= np.linalg.norm(nrm, axis=1)[:, None]
        d = rng.standard_normal((48, 3))
        d -= np.einsum("ni,ni->n", d, nrm)[:, None] * nrm
        t = s + rng.standard_normal((48, 3)) * 0.01
        c_t, c_s = rng.random(48), rng.random(48)
        j_geo, j_col = residual_jacobians({"s": s, "n": nrm, "d": d})

        def residuals(xi):
            inc = RigidTransform(rodrigues(xi[:3]), xi[3:])
            moved = inc.apply(s)
            return (np.einsum("ni,ni->n", moved - t, nrm),
                    c_t + np.einsum("ni,ni->n", d, moved - t) - c_s)

        for k in range(6):
            xi_p = np.zeros(6)
            xi_p[k] = eps
            xi_m = -xi_p
            gp, cp = residuals(xi_p)
            gm, cm = residuals(xi_m)
            rel_g = np.abs((gp - gm) / (2 * eps) - j_geo[:, k]).max() / max(np.abs(j_geo[:, k]).max(), 1e-3)
            rel_c = np.abs((cp - cm) / (2 * eps) - j_col[:, k]).max() / max(np.abs(j_col[:, k]).max(), 1e-3)
            jac_ok &= rel_g < 1e-5 and rel_c < 1e-5

    ok = successes >= 95 and jac_ok and monotone
    report("criterion 4", ok,
           f"{successes}/100 trials recovered (need >= 95); Jacobians within 1e-5: "
           f"{jac_ok}; objectives non-increasing: {monotone}")


def test_criterion_5_fiducial_initialization():
    layout = cube_tag_layout(0.5, 1)
    tags = [0, 2, 4]
    rng = np.random.default_rng(42)

    def cam():
        return RigidTransform.from_axis_angle(rng.standard_normal(3),
                                              rng.uniform(0, 2 * np.pi),
                                              rng.uniform(-0.4, 0.4, 3) + (0, 0, 1.1))

    exact_ok = True
    for _ in range(20):
        a, b = cam(), cam()
        obs_a = make_observations({t: a.invert().apply(layout[t]) for t in tags})
        obs_b = make_observations({t: b.invert().apply(layout[t]) for t in tags})
        est = estimate_pose_from_fiducials(obs_a, obs_b)
        exact_ok &= np.abs(est.matrix() - a.invert().compose(b).matrix()).max() < 1e-9

    rot_errs, tr_errs = [], []
    for _ in range(100):
        a, b = cam(), cam()
        obs_a = make_observations({t: a.invert().apply(layout[t]) for t in tags}, 0.001, rng)
        obs_b = make_observations({t: b.invert().apply(layout[t]) for t in tags}, 0.001, rng)
        est = estimate_pose_from_fiducials(obs_a, obs_b)
        rot_e, tr_e = pose_error(est, a.invert().compose(b))
        rot_errs.append(rot_e)
        tr_errs.append(tr_e)
    mean_rot, mean_tr = float(np.mean(rot_errs)), float(np.mean(tr_errs))
    ok = exact_ok and mean_rot <= 0.5 and mean_tr <= 0.005
    report("criterion 5", ok,
           f"exact recovery to 1e-9: {exact_ok}; 1 mm noise over 100 trials: "
           f"rotation {mean_rot:.3f} deg <= 0.5, translation {mean_tr * 1000:.2f} mm <= 5")


def _cylinder_samples(rng, n, r=0.25, h=0.6):
    lat_area = 2 * np.pi * r * h
    cap_area = np.pi * r * r
    total = lat_area + 2 * cap_area
    kind = rng.choice(3, size=n, p=[lat_area / total, cap_area / total, cap_area / total])
    pts = np.zeros((n, 3))
    normals = np.zeros((n, 3))
    theta = rng.uniform(0, 2 * np.pi, n)
    lat = kind == 0
    pts[lat] = np.column_stack([r * np.cos(theta[lat]), r * np.sin(theta[lat]),
                                rng.uniform(-h / 2, h / 2, lat.sum())])
    normals[lat] = np.column_stack([np.cos(theta[lat]), np.sin(theta[lat]),
                                    np.zeros(lat.sum())])
    for which, sign in ((kind == 1, 1.0), (kind == 2, -1.0)):
        m = which.sum()
        rr = r * np.sqrt(rng.random(m))
        pts[which] = np.column_stack([rr * np.cos(theta[which]), rr * np.sin(theta[which]),
                                      np.full(m, sign * h / 2)])
        normals[which] = np.tile([0, 0, sign], (m, 1))
    return pts, normals


def test_criterion_6_reconstruction_soundness(animal_oracle):
    rng = np.random.default_rng(6)
    lines = []
    ok = True

    t0 = time.monotonic()
    v = rng.standard_normal((20000, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    sphere = poisson_reconstruct(PointCloud(0.5 * v, normals=v), resolution=128)
    sphere_time = time.monotonic() - t0
    a, vol_ = surface_area(sphere), volume(sphere)
    ra, rv = np.pi, 4 / 3 * np.pi * 0.125
    sphere_ok = (is_watertight(sphere)[0] and euler_characteristic(sphere) == 2
                 and abs(a - ra) / ra <= 0.05 and abs(vol_ - rv) / rv <= 0.05
                 and sphere_time <= 60.0)
    ok &= sphere_ok
    lines.append(f"sphere wt/euler2, area {100 * abs(a - ra) / ra:.2f}%, "
                 f"vol {100 * abs(vol_ - rv) / rv:.2f}%, {sphere_time:.0f}s <= 60s")

    pts, normals = sampled_mesh_points(unit_cube_mesh(), 20000, seed=1)
    cube = poisson_reconstruct(PointCloud(pts, normals=normals), resolution=128)
    ok &= is_watertight(cube)[0] and euler_characteristic(cube) == 2
    lines.append("box wt/euler2")

    pts, normals = _cylinder_samples(rng, 20000)
    cyl = poisson_reconstruct(PointCloud(pts, normals=normals), resolution=128)
    ok &= is_watertight(cyl)[0] and euler_characteristic(cyl) == 2
    lines.append("cylinder wt/euler2")

    scene, _ = animal_oracle
    amesh = oracle_mesh(scene, spacing=0.008)
    pts, normals = sampled_mesh_points(amesh, 120000, seed=2)
    animal = poisson_reconstruct(PointCloud(pts, normals=normals), resolution=128)
    ok &= is_watertight(animal)[0] and euler_characteristic(animal) == 2
    lines.append("animal wt/euler2")
    report("criterion 6", ok, "; ".join(lines))


@pytest.mark.slow
def test_criterion_7_cattle_analogue(animal_oracle, tmp_path):
    scene, reference = animal_oracle
    cfg = animal_config(scene)
    rep = run_animal_experiment(1.0, 5, cfg, reference=reference)
    write_report_csv(tmp_path / "animal.csv", rep)
    header = (tmp_path / "animal.csv").read_text().splitlines()[0]
    columns_ok = header == ("object_id,run,seed,surface_area_m2,volume_m3,"
                            "ref_area,ref_volume,pct_err_area,pct_err_volume")
    std_pct = 100 * rep.std_area / rep.mean_area
    ok = (len(rep.runs) == 5 and not rep.failed_runs and rep.pct_err_area <= 5.0
          and std_pct <= 3.0 and columns_ok)
    report("criterion 7", ok,
           f"5 runs, mean area err {rep.pct_err_area:.2f}% <= 5%, "
           f"std {std_pct:.2f}% of mean <= 3%, report columns ok: {columns_ok}")


def test_criterion_8_protocol_conformance(tmp_path):
    rng = np.random.default_rng(8)
    kinds = list(MessageKind)
    roundtrip_ok = True
    for i in range(10_000):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        size = 0 if i == 0 else (1 << 20 if i == 1 else int(rng.integers(0, 2048)))
        payload = bytes(rng.integers(0, 256, size, dtype=np.uint8))
        m = Message(kind, payload)
        roundtrip_ok &= decode_message(encode_message(m)) == m

    rig = known_object_rig()[:8]
    servers = [DeviceServer(s.device_id, s, scene=SYNC_SCENE, rig=rig) for s in rig]
    t0 = time.monotonic()
    for s in servers:
        s.start_background()
    try:
        eps = [f"127.0.0.1:{s.port}" for s in servers]
        client = ScanClient()
        # out-of-order request must yield the specified BAD_STATE error code
        from tofscan.acquisition import DeviceError
        try:
            client._request(eps[0], json_message(MessageKind.TRIGGER, {"frame_id": 0}))
            error_code_ok = False
        except DeviceError as e:
            error_code_ok = e.code is ErrorCode.BAD_STATE

        ids = [client.hello(ep)["device_id"] for ep in eps]
        sched = build_schedule(ids, 160, 125)
        client.configure_all(eps, sched)
        session = client.trigger_scan(eps, cattle_id="acc", schedule=sched, seed=1)
        paths = client.fetch_frames(session, tmp_path)
        elapsed = time.monotonic() - t0
        files_ok = len(paths) == 16
        for p in paths:
            if p.suffix == ".pgm":
                decode_pgm16(p.read_bytes())
            else:
                decode_ppm(p.read_bytes())
        manifest_ok = session.complete and len(session.manifest) == 8
    finally:
        for s in servers:
            s.stop()
    ok = roundtrip_ok and manifest_ok and files_ok and error_code_ok and elapsed <= 10.0
    report("criterion 8", ok,
           f"10^4 round trips ok: {roundtrip_ok}; manifest 8/8: {manifest_ok}; "
           f"16 bit-valid files: {files_ok}; BAD_STATE code on out-of-order: "
           f"{error_code_ok}; loopback {elapsed:.1f}s <= 10s")
