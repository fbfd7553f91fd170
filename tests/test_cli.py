import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (MALFORMED_PLY, assert_json_types_kept, json_mutants, pose_error,
                      unit_cube_mesh)
from tofscan.capture import build_schedule, corrupt_device_frame
from tofscan.cli import _check_overrides, _InputError, main
from tofscan.experiments import KNOWN_CYLINDER, SYNC_SCENE, known_object_config
from tofscan.formats import encode_pgm16, encode_ppm, read_ply, write_ply
from tofscan.geometry import PointCloud, RigidTransform
from tofscan.pipeline import run_pipeline
from tofscan.reconstruction import TriangleMesh
from tofscan.render import render, save_rig
from tofscan.rigs import known_object_rig
from tofscan.scene import make_known_object_scene, save_scene, scene_to_dict


def test_measure_command(tmp_path, capsys):
    mesh = unit_cube_mesh()
    path = tmp_path / "cube.ply"
    write_ply(path, mesh)
    assert main(["measure", "--mesh", str(path)]) == 0
    out = capsys.readouterr().out
    assert "surface_area_m2 6.000000" in out
    assert "volume_m3 1.00000000" in out


def test_measure_open_mesh(tmp_path, capsys):
    mesh = unit_cube_mesh()
    path = tmp_path / "open.ply"
    write_ply(path, TriangleMesh(mesh.vertices, mesh.triangles[:-2]))
    assert main(["measure", "--mesh", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "surface_area_m2 5.000000", "volume_m3 undefined (not watertight, 4 boundary edges)"]


@pytest.mark.parametrize("command, flag, kind", [("measure", "--mesh", "point-cloud"),
                                                  ("reconstruct", "--cloud", "mesh")])
def test_wrong_kind_of_ply_is_named(tmp_path, capsys, command, flag, kind):
    """A point-cloud PLY given as a mesh, or a mesh PLY as a cloud, names the path with exit 2."""
    path = tmp_path / "input.ply"
    if kind == "mesh":
        mesh = unit_cube_mesh()
        write_ply(path, mesh)
    else:
        write_ply(path, PointCloud(np.eye(3)))
    out = tmp_path / "out.ply"
    extra = ["--out", str(out)] if command == "reconstruct" else []
    assert main([command, flag, str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and f"{kind} PLY" in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["measure-missing", "measure-not-ply", "serve-rig-missing",
                                  "serve-scene-missing", "experiment-config-missing",
                                  "register-cloud-not-ply", "register-cloud-no-colors",
                                  "register-cloud-mesh", "serve-rig-no-intrinsics",
                                  "serve-rig-object", "serve-scene-no-primitives",
                                  "measure-ply-double", "serve-rig-intrinsics-int",
                                  "serve-scene-params-int", "serve-scene-params-count"])
def test_unreadable_input_file_is_named(tmp_path, capsys, case):
    """A missing or malformed input file is named on one stderr line with exit 2."""
    bad = tmp_path / "absent.json"
    rig_path = tmp_path / "rig.json"
    save_rig(rig_path, known_object_rig()[:1])
    out = tmp_path / "out.csv"
    cloud = tmp_path / "session" / "clouds" / "0.ply"
    cloud.parent.mkdir(parents=True)
    cloud.write_text("not a PLY file\n")
    malformed = tmp_path / "malformed"
    if case == "serve-rig-no-intrinsics":
        doc = json.loads(rig_path.read_text())
        del doc[0]["intrinsics"]
        malformed.write_text(json.dumps(doc))
    elif case == "serve-rig-object":
        malformed.write_text(json.dumps({"device_id": 0}))
    elif case == "serve-rig-intrinsics-int":
        doc = json.loads(rig_path.read_text())
        doc[0]["intrinsics"] = 5
        malformed.write_text(json.dumps(doc))
    elif case == "serve-scene-no-primitives":
        malformed.write_text(json.dumps({"background_cap": 5.0}))
    elif case.startswith("serve-scene-params"):
        doc = scene_to_dict(SYNC_SCENE)
        doc["primitives"][1].update({"params": 3} if case.endswith("int") else
                                    {"shape": "superellipsoid", "params": [1.0, 1.0, 1.0]})
        malformed.write_text(json.dumps(doc))
    elif case == "register-cloud-no-colors":
        write_ply(cloud, PointCloud(np.random.default_rng(0).random((50, 3))))
    elif case == "register-cloud-mesh":
        mesh = unit_cube_mesh()
        write_ply(cloud, mesh)
    elif case == "measure-ply-double":
        malformed.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                              b"property double x\nproperty double y\nproperty double z\n"
                              b"end_header\n" + bytes(24))
    argv = {
        "measure-missing": ["measure", "--mesh", str(bad)],
        "measure-not-ply": ["measure", "--mesh", str(rig_path)],
        "serve-rig-missing": ["serve", "--device-id", "0", "--rig", str(bad),
                              "--scene", str(bad)],
        "serve-scene-missing": ["serve", "--device-id", "0", "--rig", str(rig_path),
                                "--scene", str(bad)],
        "experiment-config-missing": ["experiment", "interference", "--config", str(bad),
                                      "--out", str(out)],
        "register-cloud-not-ply": ["register", "--session", str(tmp_path / "session")],
        "register-cloud-no-colors": ["register", "--session", str(tmp_path / "session")],
        "register-cloud-mesh": ["register", "--session", str(tmp_path / "session")],
        "serve-rig-no-intrinsics": ["serve", "--device-id", "0", "--rig", str(malformed),
                                    "--scene", str(bad)],
        "serve-rig-object": ["serve", "--device-id", "0", "--rig", str(malformed),
                             "--scene", str(bad)],
        "serve-rig-intrinsics-int": ["serve", "--device-id", "0", "--rig", str(malformed),
                                     "--scene", str(bad)],
        "serve-scene-params-int": ["serve", "--device-id", "0", "--rig", str(rig_path),
                                   "--scene", str(malformed)],
        "serve-scene-params-count": ["serve", "--device-id", "0", "--rig", str(rig_path),
                                     "--scene", str(malformed)],
        "serve-scene-no-primitives": ["serve", "--device-id", "0", "--rig", str(rig_path),
                                      "--scene", str(malformed)],
        "measure-ply-double": ["measure", "--mesh", str(malformed)],
    }[case]
    named = cloud if case.startswith("register") else {"measure-not-ply": rig_path}.get(
        case, malformed if malformed.exists() else bad)
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(named) in err[0]
    if case.endswith(("-int", "-count")):
        entry = {"serve-rig-intrinsics-int": "rig[0].intrinsics: expected object, got int",
                 "serve-scene-params-int": "scene.primitives[1].params: expected list, got int",
                 "serve-scene-params-count": "scene.primitives[1]: superellipsoid takes 5"}[case]
        assert entry in err[0]
    assert not out.exists()
    assert not (tmp_path / "session" / "poses.json").exists()


def test_reconstruct_command(tmp_path, capsys, rng):
    v = rng.standard_normal((9000, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    write_ply(tmp_path / "cloud.ply", PointCloud(0.4 * v))
    out = tmp_path / "mesh.ply"
    code = main(["reconstruct", "--cloud", str(tmp_path / "cloud.ply"),
                 "--resolution", "48", "--out", str(out)])
    assert code == 0
    assert len(read_ply(out).triangles) > 100


def test_reconstruct_resolution_out_of_range(tmp_path, capsys, rng):
    """--resolution outside Poisson's 32-512: one stderr line, exit 2, no mesh."""
    write_ply(tmp_path / "cloud.ply", PointCloud(rng.standard_normal((500, 3))))
    out = tmp_path / "mesh.ply"
    assert main(["reconstruct", "--cloud", str(tmp_path / "cloud.ply"),
                 "--resolution", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--resolution" in err[0] and "16" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("case", ["ten-points", "coincident", "vanishing-extent-1e-160",
                                  "vanishing-extent-1e-200", "huge-extent-1e308",
                                  "huge-extent-1e308-normals", "huge-extent-1e40"])
def test_reconstruct_degenerate_cloud(tmp_path, capsys, case):
    """Fewer points than the normal neighbourhood, or no extent, or one too small for the
    grid spacing's square to stay a float64, or one so large that the KD-tree's distances
    or the box's span overflow: one stderr line, exit 2."""
    rng = np.random.default_rng(0)
    huge = np.random.default_rng(1).uniform(-1, 1, (40, 3))
    pts = {"ten-points": rng.standard_normal((10, 3)),
           "coincident": np.tile([0.1, 0.2, 0.3], (40, 1)),
           "vanishing-extent-1e-160": 1e-160 * rng.standard_normal((40, 3)),
           "vanishing-extent-1e-200": 1e-200 * rng.standard_normal((40, 3)),
           "huge-extent-1e308": 1e308 * huge,
           "huge-extent-1e308-normals": 1e308 * huge,
           "huge-extent-1e40": 1e40 * huge}[case]
    normals = huge / np.linalg.norm(huge, axis=1)[:, None] if case.endswith("normals") else None
    cloud = tmp_path / "cloud.ply"
    write_ply(cloud, PointCloud(pts, normals=normals))
    out = tmp_path / "mesh.ply"
    assert main(["reconstruct", "--cloud", str(cloud), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(cloud) in err[0]
    assert not out.exists()


def test_reconstruct_extent_inside_the_bound(tmp_path, capsys, rng):
    """A sphere 0.9e30 m across, just inside the largest extent gridded, reconstructs from a
    PLY without normals."""
    v = rng.standard_normal((2000, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    write_ply(tmp_path / "cloud.ply", PointCloud(0.45e30 * v))
    out = tmp_path / "mesh.ply"
    assert main(["reconstruct", "--cloud", str(tmp_path / "cloud.ply"),
                 "--resolution", "32", "--out", str(out)]) == 0
    assert len(read_ply(out).triangles) > 100


def test_reconstruct_solver_failure_is_named(tmp_path, capsys, monkeypatch):
    """A solve that misses its residual gate: one stderr line naming the cloud, exit 2."""
    from tofscan import reconstruction
    from tofscan.solver import SolverError

    def fail(cloud, resolution):
        raise SolverError("residual nan over the gate", residual=float("nan"))

    monkeypatch.setattr(reconstruction, "poisson_reconstruct", fail)
    cloud = tmp_path / "cloud.ply"
    write_ply(cloud, PointCloud(np.random.default_rng(0).standard_normal((40, 3))))
    out = tmp_path / "mesh.ply"
    assert main(["reconstruct", "--cloud", str(cloud), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(cloud) in err[0] and "residual nan" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command, case", [("measure", case) for case in MALFORMED_PLY]
                         + [("reconstruct", "blank-line"), ("reconstruct", "nan-normal"),
                            ("reconstruct", "non-unit-normal"), ("reconstruct", "nan-vertex"),
                            ("reconstruct", "inf-point"),
                            ("register", "property-without-name")])
def test_malformed_ply_is_named(tmp_path, capsys, command, case):
    """A broken PLY header, a face past the last vertex, a vertex with a non-finite
    coordinate, or a normal that is not a finite unit vector: one stderr line, exit 2."""
    path = tmp_path / "session" / "clouds" / "0.ply"
    path.parent.mkdir(parents=True)
    path.write_bytes(MALFORMED_PLY[case][0])
    out = tmp_path / "out.ply"
    argv = {"measure": ["measure", "--mesh", str(path)],
            "reconstruct": ["reconstruct", "--cloud", str(path), "--out", str(out)],
            "register": ["register", "--session", str(tmp_path / "session")]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("cannot read ") and str(path) in err[0]
    assert not out.exists()


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


def test_scan_against_serve_processes(tmp_path, capsys):
    """Two ``tofscan serve`` processes, one per device as on the rig: a scan fetches each
    device's ``corrupt_device_frame`` bytes, and Ctrl-C (SIGINT) ends each with status 0.
    A scan without --cattle-id records no cattle id and names none."""
    rig = known_object_rig()[:2]
    rig_path, scene_path = tmp_path / "rig.json", tmp_path / "scene.json"
    save_rig(rig_path, rig)
    save_scene(scene_path, SYNC_SCENE)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # this process's tofscan
    procs = []
    try:
        for s in rig:
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "tofscan.cli", "serve", "--device-id", str(s.device_id),
                 "--rig", str(rig_path), "--scene", str(scene_path), "--port", "0"],
                env=env, stderr=subprocess.PIPE, text=True))
        endpoints = []
        for p in procs:  # from the INFO line "... device <id> serving on 127.0.0.1:<port>"
            assert select.select([p.stderr], [], [], 30)[0], "no INFO line within 30 s"
            endpoints.append(p.stderr.readline().split()[-1])
        out_dir = tmp_path / "scan"
        assert main(["scan", "--endpoints", ",".join(endpoints), "--delay-us", "0",
                     "--seed", "5", "--out", str(out_dir)]) == 0
        assert json.loads((out_dir / "scan0001.json").read_text())["cattle_id"] == ""
        assert capsys.readouterr().out.startswith("scan0001: 2 devices, 4 files under ")
        schedule = build_schedule([s.device_id for s in rig], 0)
        fetched = out_dir / "scan0001"
        for s in rig:
            frame = corrupt_device_frame(SYNC_SCENE, rig, schedule, s.device_id, 5,
                                         clean=render(SYNC_SCENE, s))
            assert (fetched / f"{s.device_id}_depth.pgm").read_bytes() == encode_pgm16(frame.depth)
            assert (fetched / f"{s.device_id}_color.ppm").read_bytes() == encode_ppm(frame.color)
        for p in procs:
            p.send_signal(signal.SIGINT)
        assert [p.wait(timeout=30) for p in procs] == [0, 0]
    finally:
        for p in procs:
            p.kill()
            p.wait()
            p.stderr.close()


def test_second_scan_into_one_out_keeps_the_first(tmp_path):
    """Two scans into one --out: the first session's files stay byte for byte, and the
    second session is numbered after it, scan0002."""
    from tofscan.acquisition import DeviceServer
    rig = known_object_rig()[:2]
    servers = [DeviceServer(s.device_id, s, scene=SYNC_SCENE, rig=rig) for s in rig]
    for s in servers:
        s.start_background()
    out_dir = tmp_path / "scan"
    argv = ["scan", "--endpoints", ",".join(f"127.0.0.1:{s.port}" for s in servers),
            "--out", str(out_dir)]
    try:
        assert main(argv + ["--cattle-id", "cow-A"]) == 0
        first = {p: p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
        assert main(argv + ["--cattle-id", "cow-B", "--seed", "1"]) == 0
    finally:
        for s in servers:
            s.stop()
    assert sorted(p.name for p in first) == sorted(
        ["scan0001.json"] + [f"{d}_{k}" for d in (0, 1) for k in ("depth.pgm", "color.ppm")])
    assert {p: p.read_bytes() for p in first} == first
    doc = json.loads((out_dir / "scan0002.json").read_text())
    assert (doc["session_id"], doc["cattle_id"]) == ("scan0002", "cow-B")
    assert len(list((out_dir / "scan0002").glob("*_depth.pgm"))) == 2


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


@pytest.mark.parametrize("endpoint", ["127.0.0.1", "127.0.0.1:http", "127.0.0.1:70000",
                                      "127.0.0.1:²"])
def test_scan_endpoint_not_host_port(tmp_path, capsys, endpoint):
    """An endpoint that is not host:port is named on stderr with exit 2, before any session."""
    out_dir = tmp_path / "scan"
    assert main(["scan", "--endpoints", endpoint, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert f"device at {endpoint} unreachable" in err and "host:port" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag, value", [("--delay-us", "-5"), ("--exposure-us", "0")])
def test_scan_bad_timing_flag_is_named(tmp_path, capsys, monkeypatch, flag, value):
    """A negative delay or a non-positive exposure: one stderr line and exit 2, before HELLO."""
    from tofscan.acquisition import ScanClient

    def no_hello(client, endpoint):
        raise AssertionError(f"HELLO sent to {endpoint}")

    monkeypatch.setattr(ScanClient, "hello", no_hello)
    out_dir = tmp_path / "scan"
    assert main(["scan", "--endpoints", "127.0.0.1:9", flag, value, "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and flag in err[0] and value in err[0]
    assert not out_dir.exists()


def test_scan_hello_without_device_id_is_named(tmp_path, capsys):
    """A HELLO_ACK that lacks ``device_id``: one stderr line naming the endpoint, exit 2."""
    from tofscan.acquisition import DeviceServer
    from tofscan.protocol import MessageKind, json_message
    rig = known_object_rig()[:1]
    server = DeviceServer(0, rig[0], scene=SYNC_SCENE, rig=rig)
    server._handle = lambda msg: json_message(MessageKind.HELLO_ACK, {"intrinsics": {}})
    server.start_background()
    endpoint = f"127.0.0.1:{server.port}"
    out_dir = tmp_path / "scan"
    try:
        code = main(["scan", "--endpoints", endpoint, "--out", str(out_dir)])
    finally:
        server.stop()
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and endpoint in err[0]
    assert "HELLO_ACK: missing key 'device_id'" in err[0]
    assert not out_dir.exists()


def test_scan_without_endpoints(tmp_path, capsys):
    """An --endpoints list with no entries is named on stderr with exit 2, before any session."""
    out_dir = tmp_path / "scan"
    assert main(["scan", "--endpoints", ",", "--out", str(out_dir)]) == 2
    assert "--endpoints ','" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("case", ["one-endpoint-twice", "two-servers-one-id"])
def test_scan_repeated_device_id_is_named(tmp_path, capsys, monkeypatch, case):
    """Two endpoints that answer HELLO as one device: one stderr line naming the device id
    and both endpoints, exit 2, before CONFIGURE and without --out."""
    from tofscan.acquisition import DeviceServer, ScanClient

    def no_configure(client, endpoints, schedule):
        raise AssertionError("CONFIGURE sent")

    monkeypatch.setattr(ScanClient, "configure_all", no_configure)
    rig = known_object_rig()[:1]
    servers = [DeviceServer(0, rig[0], scene=SYNC_SCENE, rig=rig)
               for _ in range(1 if case == "one-endpoint-twice" else 2)]
    for s in servers:
        s.start_background()
    endpoints = [f"127.0.0.1:{s.port}" for s in servers] * (3 - len(servers))
    out_dir = tmp_path / "scan"
    try:
        assert main(["scan", "--endpoints", ",".join(endpoints), "--out", str(out_dir)]) == 2
    finally:
        for s in servers:
            s.stop()
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"device id 0 answers at both {endpoints[0]} and {endpoints[1]}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("port", ["-1", "70000"])
def test_serve_port_out_of_range_is_named(tmp_path, capsys, port):
    """--port outside 0-65535: one stderr line naming the flag, exit 2, before the rig is read."""
    absent = str(tmp_path / "absent.json")
    assert main(["serve", "--device-id", "0", "--rig", absent, "--scene", absent,
                 "--port", port]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"--port must be an integer in 0-65535, got {port}"]


def test_serve_port_in_use_is_named(tmp_path, capsys):
    """A port another socket listens on: one stderr line naming host:port, exit 2."""
    rig_path, scene_path = tmp_path / "rig.json", tmp_path / "scene.json"
    save_rig(rig_path, known_object_rig()[:1])
    save_scene(scene_path, SYNC_SCENE)
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        assert main(["serve", "--device-id", "0", "--rig", str(rig_path),
                     "--scene", str(scene_path), "--port", str(port)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"cannot listen on 127.0.0.1:{port}: ")


@pytest.mark.parametrize("step", ["CONFIGURE", "FETCH"])
def test_scan_device_lost_mid_scan(tmp_path, capsys, monkeypatch, step):
    """One of two servers stops after HELLO or after TRIGGER: one stderr line names the step
    and the stopped server's endpoint.

    A CONFIGURE failure exits 2 before anything is written; a FETCH failure
    exits 1 and keeps the session JSON.
    """
    from tofscan.acquisition import DeviceServer, ScanClient
    rig = known_object_rig()[:2]
    servers = [DeviceServer(s.device_id, s, scene=SYNC_SCENE, rig=rig) for s in rig]
    threads = [s.start_background() for s in servers]

    def stop_second():
        servers[1].stop()
        threads[1].join(timeout=5.0)
        assert not threads[1].is_alive()

    if step == "CONFIGURE":  # stopped after HELLO
        configure_all = ScanClient.configure_all

        def configure_after_stop(client, endpoints, schedule):
            stop_second()
            return configure_all(client, endpoints, schedule)

        monkeypatch.setattr(ScanClient, "configure_all", configure_after_stop)
    else:  # stopped after TRIGGER
        trigger_scan = ScanClient.trigger_scan

        def trigger_then_stop(client, *args, **kwargs):
            session = trigger_scan(client, *args, **kwargs)
            stop_second()
            return session

        monkeypatch.setattr(ScanClient, "trigger_scan", trigger_then_stop)
    out_dir = tmp_path / "scan"
    try:
        code = main(["scan", "--endpoints", ",".join(f"127.0.0.1:{s.port}" for s in servers),
                     "--out", str(out_dir)])
    finally:
        for s in servers:
            s.stop()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and step in err[0]
    assert f"127.0.0.1:{servers[1].port}" in err[0]  # the stopped device
    if step == "CONFIGURE":
        assert code == 2
        assert not out_dir.exists()
    else:
        assert code == 1
        assert len(list(out_dir.glob("scan*.json"))) == 1


def test_segment_command_on_session(tmp_path, capsys):
    from tofscan.formats import encode_mask_pgm
    from tofscan.geometry import BinaryMask
    masks = tmp_path / "session" / "masks"
    masks.mkdir(parents=True)
    rng = np.random.default_rng(0)
    for dev in (0, 7):
        gt = BinaryMask(rng.random((8, 8)) < 0.4)
        (masks / f"{dev}_gtmask.pgm").write_bytes(encode_mask_pgm(gt))
    # strays, not <id>_gtmask.pgm as the program writes it: superscript two passes
    # str.isdigit() but not int(), and 007 is not how device 7 is named
    for stray in ("old", "\u00b2", "007"):
        (masks / f"{stray}_gtmask.pgm").write_bytes(b"junk")
    code = main(["segment", "--session", str(tmp_path / "session"), "--mode", "or"])
    assert code == 0
    lines = (tmp_path / "session" / "segmetrics.csv").read_text().strip().splitlines()
    assert lines[0] == "device_id,iou,fp_rate,fn_rate"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "7"]
    # oracle masks scored against themselves: perfect
    assert all(line.split(",")[1] == "1.000000" for line in lines[1:])


@pytest.mark.parametrize("held", [(), ("007_gtmask.pgm",)], ids=["empty", "zero-padded-id"])
def test_segment_command_without_masks_fails(tmp_path, capsys, held):
    """A session with no ground-truth mask under a name the program writes (``7``, not
    ``007``): exit 2, nothing written."""
    from tofscan.formats import encode_mask_pgm
    from tofscan.geometry import BinaryMask
    masks = tmp_path / "scan0001" / "masks"
    masks.mkdir(parents=True)
    for name in held:
        (masks / name).write_bytes(encode_mask_pgm(BinaryMask(np.eye(8, dtype=bool))))
    assert main(["segment", "--session", str(masks.parent)]) == 2
    assert "no ground-truth masks" in capsys.readouterr().err
    assert sorted(p.name for p in masks.iterdir()) == sorted(held)
    assert not (masks.parent / "segmetrics.csv").exists()


@pytest.mark.parametrize("mode", ["or", "and", "rgb", "depth"])
def test_segment_given_masks_match_in_process(tmp_path, capsys, mode):
    """--masks pairs are fused and scored as ``fuse`` and ``metrics`` do in process: each
    <dev>_fused.pgm and each segmetrics.csv row."""
    from tofscan.formats import encode_mask_pgm
    from tofscan.geometry import BinaryMask
    from tofscan.segmentation import ArbitrationMode, MaskPair, fuse, metrics
    session, given = tmp_path / "session", tmp_path / "given"
    (session / "masks").mkdir(parents=True)
    given.mkdir()
    rng = np.random.default_rng(0)
    pairs, gts = {}, {}
    for dev in range(3):
        gts[dev] = BinaryMask(rng.random((6, 8)) < 0.5)
        pairs[dev] = MaskPair(BinaryMask(rng.random((6, 8)) < 0.5),
                              BinaryMask(rng.random((6, 8)) < 0.5))
        (session / "masks" / f"{dev}_gtmask.pgm").write_bytes(encode_mask_pgm(gts[dev]))
        (given / f"{dev}_rgbmask.pgm").write_bytes(encode_mask_pgm(pairs[dev].rgb_mask))
        (given / f"{dev}_depthmask.pgm").write_bytes(encode_mask_pgm(pairs[dev].depth_mask))
    assert main(["segment", "--session", str(session), "--mode", mode,
                 "--masks", str(given)]) == 0
    rows = ["device_id,iou,fp_rate,fn_rate"]
    for dev in range(3):
        fused = fuse(pairs[dev], ArbitrationMode(mode))
        assert (session / "masks" / f"{dev}_fused.pgm").read_bytes() == encode_mask_pgm(fused)
        m = metrics(fused, gts[dev])
        rows.append(f"{dev},{m.iou:.6f},{m.fp_rate:.4f},{m.fn_rate:.4f}")
    assert (session / "segmetrics.csv").read_text() == "\n".join(rows) + "\n"


@pytest.mark.parametrize("junk", ["gtmask", "rgbmask", "rgbmask-gray", "rgbmask-size",
                                  "depthmask-missing"])
def test_segment_junk_mask_is_named(tmp_path, capsys, junk):
    """A junk ground-truth mask, or a junk, gray, missing or wrong-size --masks PGM, is
    named on one stderr line, exit 2, before anything is written."""
    from tofscan.formats import encode_mask_pgm
    from tofscan.geometry import BinaryMask
    session = tmp_path / "session"
    (session / "masks").mkdir(parents=True)
    given = tmp_path / "given"
    given.mkdir()
    valid = encode_mask_pgm(BinaryMask(np.eye(8, dtype=bool)))
    for path in (session / "masks" / "0_gtmask.pgm", given / "0_rgbmask.pgm",
                 given / "0_depthmask.pgm"):
        path.write_bytes(valid)
    bad = {"gtmask": session / "masks" / "0_gtmask.pgm",
           "depthmask-missing": given / "0_depthmask.pgm"}.get(junk, given / "0_rgbmask.pgm")
    if junk == "rgbmask-size":
        small = encode_mask_pgm(BinaryMask(np.eye(4, dtype=bool)))
        bad.write_bytes(small)
        (given / "0_depthmask.pgm").write_bytes(small)
    elif junk == "rgbmask-gray":  # written by hand: the mask codec writes only 0 and 255
        bad.write_bytes(b"P5\n8 8\n255\n" + bytes([128]) * 64)
    elif junk == "depthmask-missing":
        bad.unlink()
    else:
        bad.write_bytes(b"junk")
    assert main(["segment", "--session", str(session), "--masks", str(given)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("cannot read ") and str(bad) in err[0]
    assert {"rgbmask-gray": "non-binary", "rgbmask-size": "4x4 does not match",
            "depthmask-missing": "No such file"}.get(junk, "") in err[0]
    assert not (session / "segmetrics.csv").exists()
    assert not (session / "masks" / "0_fused.pgm").exists()


def test_segment_negative_size_mask_is_named(tmp_path, capsys):
    """A ground-truth mask PGM with a negative width: one stderr line naming it, exit 2."""
    bad = tmp_path / "session" / "masks" / "0_gtmask.pgm"
    bad.parent.mkdir(parents=True)
    bad.write_bytes(b"P5\n-1 1\n255\n" + bytes(2))
    assert main(["segment", "--session", str(tmp_path / "session")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(bad) in err[0] and "negative" in err[0]
    assert not (tmp_path / "session" / "segmetrics.csv").exists()


@pytest.fixture(scope="module")
def cylinder_session(tmp_path_factory):
    """The seed-1, resolution-64 cylinder run: its config, its pose graph and its session."""
    out = tmp_path_factory.mktemp("cylinder")
    cfg = replace(known_object_config(make_known_object_scene(KNOWN_CYLINDER)), seed=1,
                  resolution=64, out_dir=str(out))
    return cfg, run_pipeline(cfg).graph, out


def _register_copy(session, tmp_path, strays=()):
    """Copy ``session`` without its poses.json and merged.ply, add each of ``strays`` as a
    junk file under clouds/ and run ``register`` on it."""
    copy = tmp_path / "session"
    shutil.copytree(session, copy)
    (copy / "poses.json").unlink()
    (copy / "clouds" / "merged.ply").unlink()
    for name in strays:
        (copy / "clouds" / name).write_bytes(b"junk")
    assert main(["register", "--session", str(copy)]) == 0
    return copy


def test_register_command_on_session(cylinder_session, tmp_path, capsys):
    """A run's session registers again from its clouds and calibration.json: every
    device within 2 degrees and 30 mm of the rig's extrinsics."""
    cfg, _, session = cylinder_session
    copy = _register_copy(session, tmp_path)
    assert "registered 10 devices (0 failed edges)" in capsys.readouterr().out
    assert (copy / "clouds" / "merged.ply").exists()
    poses = json.loads((copy / "poses.json").read_text())["global_poses"]
    extrinsics = {s.device_id: s.pose for s in cfg.rig}
    assert set(poses) == {str(d) for d in extrinsics}
    reference = extrinsics[cfg.chain_order[0]].invert()
    for dev, pose in poses.items():
        angle, offset = pose_error(RigidTransform.from_json_dict(pose, dev),
                                   reference.compose(extrinsics[int(dev)]))
        assert angle < 2.0 and offset < 0.030, (dev, angle, offset)


@pytest.mark.parametrize("strays", [(), ("007.ply", "+7.ply", "old.ply")],
                         ids=["session", "beside-strays"])
def test_register_replays_the_run(cylinder_session, tmp_path, strays):
    """``register`` on a run's session gives the run's global poses and merged
    cloud bit for bit: the session's clouds hold the points the run registered.
    A stray beside them, such as ``007.ply`` beside ``7.ply``, is left unread."""
    _, graph, session = cylinder_session
    copy = _register_copy(session, tmp_path, strays)
    poses = json.loads((copy / "poses.json").read_text())["global_poses"]
    assert poses == {str(d): t.to_json_dict() for d, t in graph.global_poses.items()}
    merged = "clouds/merged.ply"
    assert (copy / merged).read_bytes() == (session / merged).read_bytes()


def test_reconstruct_keeps_the_session_normals(cylinder_session, tmp_path):
    """``reconstruct`` on a run's merged cloud, at the run's resolution, writes the
    run's mesh byte for byte: the cloud's raster normals are used as stored."""
    cfg, _, session = cylinder_session
    out = tmp_path / "mesh.ply"
    assert main(["reconstruct", "--cloud", str(session / "clouds" / "merged.ply"),
                 "--resolution", str(cfg.resolution), "--out", str(out)]) == 0
    assert out.read_bytes() == (session / "mesh.ply").read_bytes()


@pytest.mark.parametrize("voxel", ["abc", [0.01], 0, -0.01],
                         ids=["not-a-number", "list", "zero", "negative"])
def test_register_bad_voxel_named(tmp_path, capsys, rng, voxel):
    """calibration.voxel_size that is not one positive number: one stderr line naming
    it, exit 2."""
    clouds_dir = tmp_path / "session" / "clouds"
    clouds_dir.mkdir(parents=True)
    pts = rng.random((2000, 3)) * np.array([0.5, 0.5, 0.1])
    for dev in (0, 1):
        write_ply(clouds_dir / f"{dev}.ply", PointCloud(pts, colors=np.full((2000, 3), 0.5)))
    (tmp_path / "session" / "calibration.json").write_text(json.dumps(
        {"order": [0, 1], "voxel_size": voxel, "layout": {}, "fiducials": {"0": {}, "1": {}}}))
    assert main(["register", "--session", str(tmp_path / "session")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "calibration.json: calibration.voxel_size: " in err[0]
    assert not (tmp_path / "session" / "poses.json").exists()


_SQUARE = [0, 0, 1, 0.1, 0, 1, 0.1, 0.1, 1, 0, 0.1, 1]


@pytest.mark.parametrize("calibration, named", [
    (None, "No such file"),
    ({"order": [0, 5], "voxel_size": 0.04, "layout": {}, "fiducials": {"0": {}, "5": {}}},
     "calibration.order"),
    ({"order": [0], "voxel_size": 0.04, "layout": {}, "fiducials": {"0": {}}},
     "calibration.order: [0] does not name each of the devices [0, 1]"),
    ({"order": [0, 1, 0], "voxel_size": 0.04, "layout": {}, "fiducials": {"0": {}, "1": {}}},
     "calibration.order: [0, 1, 0] names a device twice"),
    ({"order": [0, 1], "voxel_size": 0.04, "layout": {}, "fiducials": {"0": {}}},
     "calibration.fiducials: missing key '1'"),
    ({"order": [0, 1], "voxel_size": 0.04, "layout": {}, "fiducials": {"0": {}, "1": {"3": _SQUARE[:9]}}},
     "calibration.fiducials.1.3: expected 12 numbers"),
    ({"order": [0, 1], "voxel_size": 0.04, "layout": {}, "fiducials": {"0": {"x": _SQUARE}, "1": {}}},
     "calibration.fiducials.0.x: "),
    ({"order": [0, 1], "voxel_size": 0.04, "fiducials": {"0": {}, "1": {}}},
     "calibration: missing key 'layout'"),
    ({"order": [0, 1], "voxel_size": 0.04, "layout": {"2": _SQUARE[:3]},
      "fiducials": {"0": {}, "1": {}}},
     "calibration.layout.2: expected 12 numbers"),
], ids=["missing", "order-without-cloud", "cloud-without-order", "repeated-device",
        "device-without-tags",
        "nine-numbers", "tag-id", "no-layout", "layout-three-numbers"])
def test_register_bad_calibration_named(tmp_path, capsys, rng, calibration, named):
    """A calibration.json that is missing or holds a defect: one stderr line naming the
    file and the defect's key path, exit 2."""
    clouds_dir = tmp_path / "session" / "clouds"
    clouds_dir.mkdir(parents=True)
    pts = rng.random((2000, 3)) * np.array([0.5, 0.5, 0.1])
    for dev in (0, 1):
        write_ply(clouds_dir / f"{dev}.ply", PointCloud(pts, colors=np.full((2000, 3), 0.5)))
    path = tmp_path / "session" / "calibration.json"
    if calibration is not None:
        path.write_text(json.dumps(calibration))
    assert main(["register", "--session", str(tmp_path / "session")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"cannot read {path}: ") and named in err[0]
    assert not (tmp_path / "session" / "poses.json").exists()


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


@pytest.mark.parametrize("kind, doc, named", [
    ("animal", [1, 2], "not a JSON object"),
    ("animal", {"radius": 0.1}, "'radius' for the animal study (allowed: resolution, runs, scale)"),
    ("known-object", {"runs": "3"}, "'runs' must be a positive integer"),
    ("interference", {"delays_us": [0, 1.5]}, "'delays_us' must be"),
    ("known-object", {"resolution": 16}, "'resolution' must be an integer in 32-512"),
    ("animal", {"resolution": 1024}, "'resolution' must be an integer in 32-512"),
], ids=["not-object", "unknown-key", "wrong-type", "wrong-item-type", "resolution-low",
        "resolution-high"])
def test_experiment_config_is_checked(tmp_path, capsys, monkeypatch, kind, doc, named):
    """A --config the study cannot take: one stderr line naming the key, exit 2, no study run."""
    import tofscan.experiments as experiments

    def never(*args, **kwargs):
        raise AssertionError("the study ran")

    for runner in ("run_known_object_experiment", "run_interference_experiment",
                   "run_animal_experiment"):
        monkeypatch.setattr(experiments, runner, never)
    config = tmp_path / "overrides.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "report.csv"
    assert main(["experiment", kind, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(config) in err[0] and named in err[0]
    assert not out.exists()


@pytest.mark.parametrize("kind, doc", [
    ("interference", {"delays_us": [0, 40, 160], "seeds": 2}),
    ("known-object", {"radius": 0.1, "height": 0.3, "orientations": 2, "runs": 3,
                      "resolution": 64}),
    ("animal", {"scale": 1.5, "runs": 5, "resolution": 96}),
])
def test_mutated_config_is_taken_or_names_its_key(kind, doc):
    """A --config with a key dropped, a value's JSON type swapped, or wrapped in a list: taken
    if still valid, else refused naming the mutated key."""
    @settings(max_examples=100)
    @given(json_mutants(doc))
    def mutate(mutation):
        at, overrides = mutation
        try:
            _check_overrides("overrides.json", kind, overrides)
        except _InputError as e:
            assert str(e).startswith("--config overrides.json: ")
            assert (f"{at[0]!r} must be" if at else "not a JSON object") in str(e)
        else:
            assert_json_types_kept(doc, overrides, overrides)

    mutate()


def test_experiment_with_every_run_failed_exits_1(tmp_path, capsys, caplog, monkeypatch):
    """A study left with no successful run is named on stderr, exit 1, and no CSV is written;
    a run whose registration left a diverged edge is one such failed run."""
    import tofscan.experiments as experiments

    def diverged(cfg):
        return SimpleNamespace(graph=SimpleNamespace(failed_edges=[(0, 1)]))

    monkeypatch.setattr(experiments, "run_pipeline", diverged)
    config = tmp_path / "overrides.json"
    config.write_text(json.dumps({"runs": 1, "orientations": 1}))
    out = tmp_path / "report.csv"
    assert main(["experiment", "known-object", "--config", str(config), "--out", str(out)]) == 1
    err = [line for line in capsys.readouterr().err.splitlines() if "every run failed" in line]
    assert len(err) == 1 and "cylinder" in err[0] and "box-large" in err[0]
    assert "box-large run seed 0 failed: diverged edges [(0, 1)]" in caplog.text
    assert not out.exists()
