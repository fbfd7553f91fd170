import json
import socket

import numpy as np

from conftest import unit_cube_mesh
from tofscan.cli import main
from tofscan.experiments import SYNC_SCENE
from tofscan.formats import read_ply, write_ply
from tofscan.geometry import PointCloud
from tofscan.render import save_rig
from tofscan.rigs import known_object_rig
from tofscan.scene import save_scene


def test_measure_command(tmp_path, capsys):
    mesh = unit_cube_mesh()
    path = tmp_path / "cube.ply"
    write_ply(path, vertices=mesh.vertices, triangles=mesh.triangles)
    assert main(["measure", "--mesh", str(path)]) == 0
    out = capsys.readouterr().out
    assert "surface_area_m2 6.000000" in out
    assert "volume_m3 1.00000000" in out


def test_measure_open_mesh(tmp_path, capsys):
    mesh = unit_cube_mesh()
    path = tmp_path / "open.ply"
    write_ply(path, vertices=mesh.vertices, triangles=mesh.triangles[:-2])
    assert main(["measure", "--mesh", str(path)]) == 0
    assert "not watertight" in capsys.readouterr().out


def test_reconstruct_command(tmp_path, capsys, rng):
    v = rng.standard_normal((9000, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    write_ply(tmp_path / "cloud.ply", PointCloud(0.4 * v))
    out = tmp_path / "mesh.ply"
    code = main(["reconstruct", "--cloud", str(tmp_path / "cloud.ply"),
                 "--resolution", "48", "--out", str(out)])
    assert code == 0
    verts, tris = read_ply(out)
    assert len(tris) > 100


def test_serve_and_scan_loopback(tmp_path, capsys):
    scene = SYNC_SCENE
    rig = known_object_rig()[:3]
    scene_path = tmp_path / "scene.json"
    rig_path = tmp_path / "rig.json"
    save_scene(scene_path, scene)
    save_rig(rig_path, rig)

    # drive the servers directly (the CLI serve command blocks)
    from tofscan.acquisition import DeviceServer
    servers = [DeviceServer(s.device_id, s, scene=scene, rig=rig) for s in rig]
    for s in servers:
        s.start_background()
    try:
        endpoints = ",".join(f"127.0.0.1:{s.port}" for s in servers)
        out_dir = tmp_path / "scan"
        code = main(["scan", "--endpoints", endpoints, "--cattle-id", "77",
                     "--delay-us", "160", "--out", str(out_dir)])
        assert code == 0
        sessions = list(out_dir.glob("scan*.json"))
        assert len(sessions) == 1
        doc = json.loads(sessions[0].read_text())
        assert doc["cattle_id"] == "77"
        assert len(doc["devices"]) == 3
        session_dir = out_dir / doc["session_id"]
        assert len(list(session_dir.glob("*_depth.pgm"))) == 3
        assert len(list(session_dir.glob("*_color.ppm"))) == 3
    finally:
        for s in servers:
            s.stop()


def test_scan_unreachable_endpoint(tmp_path, capsys):
    """A refused connection names the endpoint on stderr and exits 2, without a session."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        endpoint = f"127.0.0.1:{sock.getsockname()[1]}"
    out_dir = tmp_path / "scan"
    assert main(["scan", "--endpoints", endpoint, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert endpoint in err and "unreachable" in err
    assert not out_dir.exists()


def test_segment_command_on_session(tmp_path, capsys):
    from tofscan.formats import encode_mask_pgm
    from tofscan.geometry import BinaryMask
    masks = tmp_path / "session" / "masks"
    masks.mkdir(parents=True)
    rng = np.random.default_rng(0)
    for dev in range(2):
        gt = BinaryMask.from_bool(rng.random((8, 8)) < 0.4)
        (masks / f"{dev}_gtmask.pgm").write_bytes(encode_mask_pgm(gt))
    code = main(["segment", "--session", str(tmp_path / "session"), "--mode", "or"])
    assert code == 0
    lines = (tmp_path / "session" / "segmetrics.csv").read_text().strip().splitlines()
    assert lines[0] == "device_id,iou,fp_rate,fn_rate"
    # oracle masks scored against themselves: perfect
    assert all(line.split(",")[1] == "1.000000" for line in lines[1:])


def test_segment_command_without_masks_fails(tmp_path, capsys):
    session = tmp_path / "scan0001"
    session.mkdir()
    assert main(["segment", "--session", str(session)]) == 2
    assert "no ground-truth masks" in capsys.readouterr().err
    assert not (session / "segmetrics.csv").exists()


def test_register_command_on_session(tmp_path, rng):
    clouds_dir = tmp_path / "session" / "clouds"
    clouds_dir.mkdir(parents=True)
    pts = rng.random((4000, 3)) * np.array([0.5, 0.5, 0.1])
    w = 0.5 + 0.4 * np.sin(15 * pts[:, 0])
    cloud = PointCloud(pts, colors=np.clip(np.column_stack([w, w, 1 - w]), 0, 1))
    for dev in (0, 1):
        write_ply(clouds_dir / f"{dev}.ply", cloud)
    code = main(["register", "--session", str(tmp_path / "session"),
                 "--voxels", "0.04,0.02"])
    assert code == 0
    assert (tmp_path / "session" / "poses.json").exists()
    assert (clouds_dir / "merged.ply").exists()


def test_experiment_known_object_runs_the_full_study(tmp_path, monkeypatch):
    """Cylinder in the study's orientation order, then the three boxes at identity."""
    import tofscan.experiments as experiments
    from tofscan.experiments import (KNOWN_BOXES, KNOWN_CYLINDER, ORIENTATIONS,
                                     ExperimentReport)
    from tofscan.metrology import MeshMeasurements
    calls = []

    def record(object_id, obj, n_runs, orientations, cfg):
        calls.append((obj, n_runs, orientations))
        return ExperimentReport(object_id, [MeshMeasurements(1.0, 0.1)], [cfg.seed],
                                MeshMeasurements(1.0, 0.1))

    monkeypatch.setattr(experiments, "run_known_object_experiment", record)
    out = tmp_path / "known.csv"
    assert main(["experiment", "known-object", "--out", str(out)]) == 0
    assert len(calls) == 4 and all(c[1] == 3 for c in calls)
    cyl, _, orientations = calls[0]
    assert (cyl.shape, cyl.params, cyl.texture) == ("cylinder", KNOWN_CYLINDER.params,
                                                    KNOWN_CYLINDER.texture)
    assert len(orientations) == len(ORIENTATIONS)
    assert all(a is b for a, b in zip(orientations, ORIENTATIONS))
    assert all(c[0] is b for c, b in zip(calls[1:], KNOWN_BOXES.values()))
    assert all(len(c[2]) == 1 and np.array_equal(c[2][0].matrix(), np.eye(4))
               for c in calls[1:])
    rows = out.read_text().splitlines()
    assert sum(r.startswith("object_id,") for r in rows) == 1
    assert len(rows) == 1 + 4 * 2  # one run and one mean row per object
    ids = list(dict.fromkeys(r.split(",")[0] for r in rows[1:]))
    assert ids == ["cylinder", "box-small", "box-medium", "box-large"]


def test_experiment_interference(tmp_path):
    config = tmp_path / "overrides.json"
    config.write_text(json.dumps({"delays_us": [0, 160], "seeds": 2}))
    out = tmp_path / "retention.csv"
    assert main(["experiment", "interference", "--config", str(config), "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "delay_us,mean_retention"
    assert len(rows) == 2
    retention = {int(d): float(r) for d, r in (row.split(",") for row in rows)}
    assert retention[0] < retention[160]
