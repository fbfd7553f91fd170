import itertools
import json
import socket
import struct
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import assert_json_types_kept, assert_names_key_path, json_mutants
from tofscan import acquisition
from tofscan.acquisition import (DeviceError, DeviceServer, IntegrityError, ManifestEntry,
                                 ScanClient, ScanSession, _recv, load_session,
                                 save_session)
from tofscan.capture import build_schedule, corrupt_device_frame
from tofscan.experiments import SYNC_SCENE
from tofscan.formats import decode_pgm16, decode_ppm, encode_pgm16, encode_ppm
from tofscan.geometry import CameraIntrinsics, RigidTransform
from tofscan.protocol import (ErrorCode, Message, MessageKind, encode_message, json_message,
                              payload_json, unpack_frame_payload)
from tofscan.render import SensorModel, render, rig_from_list, rig_to_list
from tofscan.rigs import known_object_rig, look_at
from tofscan.scene import box, make_known_object_scene, scene_to_dict


# one 16x12 sensor: a server for tests that trigger many times
TINY_RIG = [SensorModel(0, CameraIntrinsics(10, 10, 7.5, 5.5, 16, 12),
                        look_at((1.2, 0, 0.8), (0, 0, 0.8)))]


class _ResetPeer:
    """A connection that delivers ``data``, and whose peer resets it when answered."""

    def __init__(self, data: bytes):
        self.data = data

    def settimeout(self, timeout: float) -> None:
        pass

    def recv(self, n: int) -> bytes:
        chunk, self.data = self.data[:n], self.data[n:]
        return chunk

    def sendall(self, data: bytes) -> None:
        raise ConnectionResetError("connection reset by peer")


@pytest.fixture(scope="module")
def setup():
    return SYNC_SCENE, known_object_rig()[:8]


@pytest.fixture()
def servers(setup):
    scene, rig = setup
    servers = [DeviceServer(s.device_id, s, scene=scene, rig=rig) for s in rig]
    for s in servers:
        s.start_background()
    yield servers
    for s in servers:
        s.stop()


def endpoints_of(servers):
    return [f"127.0.0.1:{s.port}" for s in servers]


class TestServerStateMachine:
    def test_hello_returns_device_id(self, setup):
        scene, rig = setup
        server = DeviceServer(3, rig[3], scene=scene, rig=rig)
        reply = server._handle(Message(MessageKind.HELLO))
        assert reply.kind is MessageKind.HELLO_ACK
        import json
        doc = json.loads(reply.payload)
        assert doc["device_id"] == 3
        assert doc["intrinsics"]["width"] == rig[3].intrinsics.width

    def test_trigger_before_configure_is_bad_state(self, setup):
        scene, rig = setup
        server = DeviceServer(0, rig[0], scene=scene, rig=rig)
        with pytest.raises(DeviceError) as e:
            server._handle(json_message(MessageKind.TRIGGER, {"frame_id": 0}))
        assert e.value.code is ErrorCode.BAD_STATE

    def test_fetch_before_trigger_is_bad_state(self, setup):
        scene, rig = setup
        server = DeviceServer(0, rig[0], scene=scene, rig=rig)
        server._handle(json_message(MessageKind.CONFIGURE, {
            "schedule": build_schedule([s.device_id for s in rig], 160, 125).to_json_dict()}))
        with pytest.raises(DeviceError) as e:
            server._handle(json_message(MessageKind.FETCH, {"frame_id": 0}))
        assert e.value.code is ErrorCode.BAD_STATE

    def test_full_cycle_yields_valid_rasters(self, setup):
        scene, rig = setup
        server = DeviceServer(1, rig[1], scene=scene, rig=rig)
        sched = build_schedule([s.device_id for s in rig], 160, 125)
        server._handle(json_message(MessageKind.CONFIGURE, {"schedule": sched.to_json_dict()}))
        ack = server._handle(json_message(MessageKind.TRIGGER, {"frame_id": 5, "seed": 1}))
        assert ack.kind is MessageKind.TRIGGER_ACK
        frame = server._handle(json_message(MessageKind.FETCH, {"frame_id": 5}))
        depth_pgm, color_ppm = unpack_frame_payload(frame.payload)
        depth = decode_pgm16(depth_pgm)
        color = decode_ppm(color_ppm)
        assert (depth.width, depth.height) == (rig[1].intrinsics.width, rig[1].intrinsics.height)
        assert (color.width, color.height) == (depth.width, depth.height)

    def test_configure_payload_cannot_replace_the_scene(self, setup):
        """A server renders only the scene and rig it was built with."""
        scene, rig = setup
        server = DeviceServer(1, rig[1], scene=scene, rig=rig)
        sched = build_schedule([s.device_id for s in rig], 160, 125)
        other = make_known_object_scene(box((0.3, 0.3, 0.3), pose=rig[1].pose.compose(
            RigidTransform(np.eye(3), (0.0, 0.0, 0.6)))))
        server._handle(json_message(MessageKind.CONFIGURE, {
            "schedule": sched.to_json_dict(), "scene": scene_to_dict(other),
            "rig": rig_to_list([replace(s, sigma0=0.0) for s in rig])}))
        server._handle(json_message(MessageKind.TRIGGER, {"frame_id": 0, "seed": 4}))
        frame = server._handle(json_message(MessageKind.FETCH, {"frame_id": 0}))
        depth_pgm, _ = unpack_frame_payload(frame.payload)
        expected = corrupt_device_frame(scene, rig, sched, 1, 4, clean=render(scene, rig[1]))
        assert depth_pgm == encode_pgm16(expected.depth)

    def test_server_renders_once_and_corrupts_each_trigger(self, setup, monkeypatch):
        """Only the first TRIGGER renders; every frame is that trigger's seed and schedule."""
        import tofscan.acquisition as acquisition
        scene, rig = setup
        renders = []

        def counting_render(*args):
            renders.append(args)
            return render(*args)

        monkeypatch.setattr(acquisition, "render", counting_render)
        server = DeviceServer(1, rig[1], scene=scene, rig=rig)
        ids = [s.device_id for s in rig]
        runs = [(build_schedule(ids, 160, 125), 1), (build_schedule(ids, 160, 125), 2),
                (build_schedule(ids, 0, 125), 3)]
        clean = render(scene, rig[1])
        for frame_id, (sched, seed) in enumerate(runs):
            server._handle(json_message(MessageKind.CONFIGURE, {"schedule": sched.to_json_dict()}))
            server._handle(json_message(MessageKind.TRIGGER, {"frame_id": frame_id, "seed": seed}))
            frame = server._handle(json_message(MessageKind.FETCH, {"frame_id": frame_id}))
            expected = corrupt_device_frame(scene, rig, sched, 1, seed, clean=clean)
            assert unpack_frame_payload(frame.payload) == (encode_pgm16(expected.depth),
                                                           encode_ppm(expected.color))
        assert len(renders) == 1
        synced = corrupt_device_frame(scene, rig, runs[0][0], 1, 3, clean=clean)
        assert encode_pgm16(expected.depth) != encode_pgm16(synced.depth)
        status = payload_json(server._handle(Message(MessageKind.STATUS)))
        assert status["frames_rendered"] == 3

    def test_server_needs_its_device_in_the_rig(self, setup):
        scene, rig = setup
        with pytest.raises(ValueError, match="device 1 not in rig"):
            DeviceServer(1, rig[1], scene=scene, rig=[rig[0]])

    @pytest.mark.parametrize("change", [
        lambda s: replace(s, sigma0=2 * s.sigma0),
        lambda s: replace(s, pose=RigidTransform(s.pose.rotation, s.pose.translation + 0.01)),
        lambda s: replace(s, intrinsics=replace(s.intrinsics, fx=s.intrinsics.fx + 1)),
        lambda s: replace(s, device_id=0),
    ], ids=["noise", "pose", "intrinsics", "device-id"])
    def test_server_sensor_must_be_the_rigs(self, setup, change):
        """TRIGGER renders the sensor HELLO reports, so it must be the rig's entry, down
        to its device id."""
        scene, rig = setup
        with pytest.raises(ValueError, match="differs from the rig's device 1"):
            DeviceServer(1, change(rig[1]), scene=scene, rig=rig)
        copy = rig_from_list(rig_to_list(rig))[1]  # equal by value, not the same object
        assert DeviceServer(1, copy, scene=scene, rig=rig).sensor is copy

    def test_unknown_frame(self, setup):
        scene, rig = setup
        server = DeviceServer(0, rig[0], scene=scene, rig=rig)
        sched = build_schedule([s.device_id for s in rig], 160, 125)
        server._handle(json_message(MessageKind.CONFIGURE, {"schedule": sched.to_json_dict()}))
        server._handle(json_message(MessageKind.TRIGGER, {"frame_id": 1}))
        with pytest.raises(DeviceError) as e:
            server._handle(json_message(MessageKind.FETCH, {"frame_id": 99}))
        assert e.value.code is ErrorCode.UNKNOWN_FRAME

    def test_store_keeps_only_the_last_triggered_frame(self, setup):
        scene, rig = setup
        server = DeviceServer(0, rig[0], scene=scene, rig=rig)
        sched = build_schedule([s.device_id for s in rig], 160, 125)
        for frame_id in (1, 2):
            server._handle(json_message(MessageKind.CONFIGURE, {"schedule": sched.to_json_dict()}))
            server._handle(json_message(MessageKind.TRIGGER, {"frame_id": frame_id}))
        with pytest.raises(DeviceError) as e:
            server._handle(json_message(MessageKind.FETCH, {"frame_id": 1}))
        assert e.value.code is ErrorCode.UNKNOWN_FRAME
        frame = server._handle(json_message(MessageKind.FETCH, {"frame_id": 2}))
        assert frame.kind is MessageKind.FRAME
        assert len(server.frames) == 1

    @pytest.mark.parametrize("kind, payload, named", [
        ("CONFIGURE", {}, "CONFIGURE: missing key 'schedule'"),
        ("CONFIGURE", {"schedule": {"device_order": [0, 1], "delay_us": 160}},
         "CONFIGURE.schedule: missing key 'exposure_us'"),
        ("CONFIGURE", ["schedule"], "CONFIGURE: expected object"),
        ("CONFIGURE", b"{not json", "malformed JSON payload in CONFIGURE"),
        ("CONFIGURE", {"schedule": build_schedule([1, 2], 160, 125).to_json_dict()},
         "device 0 missing from schedule"),
        ("CONFIGURE", {"schedule": build_schedule([0, 1, 42], 160, 125).to_json_dict()},
         "CONFIGURE.schedule.device_order: devices [42] are not in this server's rig"),
        ("CONFIGURE", {"schedule": {"device_order": [0, 1], "delay_us": 1.9, "exposure_us": 125}},
         "CONFIGURE.schedule.delay_us: expected integer, got float"),
        ("CONFIGURE", {"schedule": {"device_order": [0, 1], "delay_us": "160",
                                    "exposure_us": 125}},
         "CONFIGURE.schedule.delay_us: expected integer, got str"),
        ("CONFIGURE", {"schedule": {"device_order": [0, 1], "delay_us": True,
                                    "exposure_us": 125}},
         "CONFIGURE.schedule.delay_us: expected integer, got bool"),
        ("TRIGGER", {}, "TRIGGER: missing key 'frame_id'"),
        ("TRIGGER", {"frame_id": "1"}, "TRIGGER.frame_id: expected integer"),
        ("TRIGGER", {"frame_id": 1, "seed": 0.5}, "TRIGGER.seed: expected integer"),
        ("FETCH", {}, "FETCH: missing key 'frame_id'"),
        ("FETCH", {"frame_id": 1.5}, "FETCH.frame_id: expected integer"),
    ], ids=["configure-no-schedule", "configure-schedule-lacks-key", "configure-not-object",
            "configure-not-json", "configure-omits-device", "configure-device-outside-rig",
            "configure-delay-float", "configure-delay-string", "configure-delay-bool",
            "trigger-no-frame-id", "trigger-frame-id-string", "trigger-seed-float",
            "fetch-no-frame-id", "fetch-frame-id-float"])
    def test_malformed_payload_is_bad_request_and_changes_nothing(self, setup, kind, payload,
                                                                  named):
        """BAD_REQUEST with a reason that starts ``named``, the server as it was, then the
        same connection serves a valid request."""
        scene, rig = setup
        server = DeviceServer(0, rig[0], scene=scene, rig=rig)
        server.start_background()
        sched = build_schedule([s.device_id for s in rig], 160, 125)
        valid = {"CONFIGURE": json_message(MessageKind.CONFIGURE,
                                           {"schedule": sched.to_json_dict()}),
                 "TRIGGER": json_message(MessageKind.TRIGGER, {"frame_id": 1}),
                 "FETCH": json_message(MessageKind.FETCH, {"frame_id": 1})}
        bad = (Message(MessageKind[kind], payload) if isinstance(payload, bytes)
               else json_message(MessageKind[kind], payload))
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                def ask(m: Message) -> Message:
                    sock.sendall(encode_message(m))
                    return _recv(sock, 5)

                for step in ("CONFIGURE", "TRIGGER")[:1 + (kind == "FETCH")]:
                    assert ask(valid[step]).kind is not MessageKind.ERROR
                before = (server.schedule, server.state, dict(server.frames))
                reply = ask(bad)
                assert reply.kind is MessageKind.ERROR
                assert payload_json(reply)["code"] == ErrorCode.BAD_REQUEST
                assert payload_json(reply)["reason"].startswith(named)
                assert (server.schedule, server.state, server.frames) == before
                assert ask(valid[kind]).kind is not MessageKind.ERROR
        finally:
            server.stop()

    @pytest.mark.parametrize("kind", ["CONFIGURE", "TRIGGER", "FETCH"])
    def test_mutated_payload_is_served_or_bad_request(self, setup, kind):
        """A payload with a key dropped, a value's type swapped, or wrapped in a list: served
        if still valid, else BAD_REQUEST naming a key path, the server as it was, and the
        same connection then serves the valid request."""
        server = DeviceServer(0, TINY_RIG[0], scene=setup[0], rig=TINY_RIG)
        server.start_background()
        valid = {"CONFIGURE": {"schedule": build_schedule([0], 160, 125).to_json_dict()},
                 "TRIGGER": {"session_id": "scan0001", "frame_id": 1, "seed": 3},
                 "FETCH": {"frame_id": 1}}

        @settings(max_examples=60)
        @given(json_mutants(valid[kind]))
        def mutate(mutation):
            at, payload = mutation
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                def ask(kind: str, payload) -> Message:
                    sock.sendall(encode_message(json_message(MessageKind[kind], payload)))
                    return _recv(sock, 5)

                for step in ("CONFIGURE", "TRIGGER")[:1 + (kind != "TRIGGER")]:
                    assert ask(step, valid[step]).kind is not MessageKind.ERROR
                before = (server.schedule, server.state, dict(server.frames))
                reply = ask(kind, payload)
                if reply.kind is MessageKind.ERROR:
                    doc = payload_json(reply)
                    assert doc["code"] == ErrorCode.BAD_REQUEST
                    assert_names_key_path(doc["reason"], kind, at)
                    assert (server.schedule, server.state, server.frames) == before
                    assert ask(kind, valid[kind]).kind is not MessageKind.ERROR
                else:  # served: what the server took keeps its JSON types
                    assert_json_types_kept(valid[kind], payload, {
                        "CONFIGURE": lambda: {"schedule": server.schedule.to_json_dict()},
                        "TRIGGER": lambda: {"frame_id": next(iter(server.frames))},
                        "FETCH": dict}[kind]())

        try:
            mutate()
        finally:
            server.stop()

    def test_all_request_orderings_up_to_length_5(self, setup):
        """FETCH can only succeed after CONFIGURE then TRIGGER, in any request mix."""
        scene, _ = setup
        from tofscan.geometry import CameraIntrinsics
        from tofscan.render import SensorModel
        from tofscan.rigs import look_at
        tiny = CameraIntrinsics(10, 10, 7.5, 5.5, 16, 12)
        rig = [SensorModel(0, tiny, look_at((1.2, 0, 0.8), (0, 0, 0.8)))]
        sched = build_schedule([s.device_id for s in rig], 160, 125)
        requests = {
            "hello": Message(MessageKind.HELLO),
            "status": Message(MessageKind.STATUS),
            "configure": json_message(MessageKind.CONFIGURE, {"schedule": sched.to_json_dict()}),
            "trigger": json_message(MessageKind.TRIGGER, {"frame_id": 0}),
            "fetch": json_message(MessageKind.FETCH, {"frame_id": 0}),
        }
        # CONFIGURE/TRIGGER render real frames; keep sequences with at most
        # one trigger so the exhaustive sweep stays fast
        names = list(requests)
        for length in range(1, 6):
            for seq in itertools.product(names, repeat=length):
                if seq.count("trigger") > 1 or seq.count("configure") > 2:
                    continue
                server = DeviceServer(0, rig[0], scene=scene, rig=rig)
                state = "idle"  # reference model of the spec state machine
                for name in seq:
                    ok = True
                    try:
                        server._handle(requests[name])
                    except DeviceError:
                        ok = False
                    if name == "configure":
                        assert ok, seq
                        state = "configured"
                    elif name == "trigger":
                        assert ok == (state == "configured"), seq
                        if ok:
                            state = "captured"
                    elif name == "fetch":
                        assert ok == (state == "captured"), seq
                    else:
                        assert ok, seq  # hello/status always answer
                    assert server.state == state, seq


class TestLoopback:
    def test_eight_server_scan_manifest(self, setup, servers, tmp_path):
        scene, rig = setup
        eps = endpoints_of(servers)
        client = ScanClient()
        ids = [client.hello(ep)["device_id"] for ep in eps]
        assert sorted(ids) == sorted(s.device_id for s in rig)
        sched = build_schedule(ids, 160, 125)
        client.configure_all(eps, sched)
        session = client.trigger_scan(eps, cattle_id="A7", schedule=sched, seed=6)
        assert session.complete
        assert len(session.manifest) == 8
        assert sorted(e.device_id for e in session.manifest) == sorted(ids)

        paths = client.fetch_frames(session, tmp_path)
        assert len(paths) == 16
        for p in paths:
            if p.suffix == ".pgm":
                decode_pgm16(p.read_bytes())
            else:
                decode_ppm(p.read_bytes())

        # re-fetch is idempotent: same bytes
        before = {p: p.read_bytes() for p in paths}
        again = client.fetch_frames(session, tmp_path)
        assert {p: p.read_bytes() for p in again} == before

        # session manifest JSON round-trips
        mpath = tmp_path / "session.json"
        save_session(mpath, session)
        loaded = load_session(mpath)
        assert loaded.session_id == session.session_id
        assert [e.crc32 for e in loaded.manifest] == [e.crc32 for e in session.manifest]

    @pytest.mark.parametrize("defect", ["frame-id-missing", "crc32-string"])
    def test_trigger_ack_with_a_bad_key_fails_only_its_device(self, servers, defect):
        """A device whose TRIGGER_ACK lacks a key or mistypes one is recorded in ``failed``."""
        eps = endpoints_of(servers)[:2]
        answer = servers[1]._handle

        def answer_short(msg: Message) -> Message:
            reply = answer(msg)
            if reply.kind is MessageKind.TRIGGER_ACK:
                doc = payload_json(reply)
                if defect == "frame-id-missing":
                    del doc["frame_id"]
                else:
                    doc["crc32"] = str(doc["crc32"])
                reply = json_message(reply.kind, doc)
            return reply

        servers[1]._handle = answer_short
        client = ScanClient()
        sched = build_schedule([servers[0].device_id, servers[1].device_id], 160, 125)
        client.configure_all(eps, sched)
        session = client.trigger_scan(eps, sched, cattle_id="short")
        assert list(session.failed) == [eps[1]]
        assert session.failed[eps[1]].startswith("TRIGGER_ACK")
        assert [e.device_id for e in session.manifest] == [servers[0].device_id]

    def test_zero_reachable_devices(self):
        client = ScanClient(timeout_s=0.3)
        session = client.trigger_scan(["127.0.0.1:1"], build_schedule([0], 160, 125),
                                      cattle_id="x")
        assert not session.complete
        assert session.manifest == []
        assert "127.0.0.1:1" in session.failed

    def test_corrupted_frame_fails_integrity(self, setup, servers, tmp_path):
        scene, rig = setup
        eps = endpoints_of(servers)
        client = ScanClient()
        sched = build_schedule([s.device_id for s in rig], 160, 125)
        client.configure_all(eps, sched)
        session = client.trigger_scan(eps, cattle_id="bad", schedule=sched)
        assert session.complete
        # flip one byte in a stored frame on one server
        victim = servers[2]
        frame_id = session.manifest[0].frame_id
        tampered = bytearray(victim.frames[frame_id])
        tampered[4 + 100] ^= 0xFF  # byte 100 of the depth PGM, after the length prefix
        victim.frames[frame_id] = bytes(tampered)
        with pytest.raises(IntegrityError, match=f"^127.0.0.1:{victim.port}: device 2"):
            client.fetch_frames(session, tmp_path)

    def test_configure_failure_names_the_endpoint(self, setup, servers):
        eps = endpoints_of(servers)[:2]
        sched = build_schedule([servers[0].device_id], 160, 125)  # the second is missing
        with pytest.raises(DeviceError, match=f"^{eps[1]}: device error") as e:
            ScanClient().configure_all(eps, sched)
        assert e.value.code is ErrorCode.BAD_REQUEST

    def test_status_reports_the_server_counters(self, setup):
        scene, rig = setup
        server = DeviceServer(4, rig[4], scene=scene, rig=rig)
        server.start_background()
        try:
            def exchange(data: bytes) -> Message:
                with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                    sock.sendall(data)
                    return _recv(sock, 5)

            sched = build_schedule([s.device_id for s in rig], 160, 125)
            replies = [exchange(encode_message(m)) for m in (
                json_message(MessageKind.CONFIGURE, {"schedule": sched.to_json_dict()}),
                json_message(MessageKind.TRIGGER, {"frame_id": 3, "seed": 2}),
                json_message(MessageKind.FETCH, {"frame_id": 3}))]
            assert replies[-1].kind is MessageKind.FRAME
            malformed = exchange(b"XSCN" + encode_message(Message(MessageKind.STATUS))[4:])
            assert malformed.kind is MessageKind.ERROR
            replies.append(malformed)

            ep = f"127.0.0.1:{server.port}"
            status = payload_json(exchange(encode_message(Message(MessageKind.STATUS))))
            assert status == {"state": "captured", "frames_rendered": 1,
                              "bytes_sent": sum(len(encode_message(r)) for r in replies),
                              "protocol_errors": 1}
            assert ScanClient().status(ep) == "captured"
        finally:
            server.stop()

    def test_reset_peer_ends_only_its_connection(self, setup):
        """A peer that sends a malformed header and resets before the BAD_REQUEST reply:
        its connection ends, the break is counted, and the same server answers HELLO and
        STATUS. Driven once through a stub connection, once by a loopback peer."""
        server = DeviceServer(0, TINY_RIG[0], scene=setup[0], rig=TINY_RIG)
        malformed = b"XSCN" + encode_message(Message(MessageKind.STATUS))[4:]
        server._serve_connection(_ResetPeer(malformed))
        assert server.counters["protocol_errors"] == 1
        server.start_background()
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                sock.sendall(malformed)  # closing with linger 0 sends a reset
            ep, client = f"127.0.0.1:{server.port}", ScanClient()
            assert client.hello(ep)["device_id"] == 0
            assert client.status(ep) == "idle"
            assert server.counters["protocol_errors"] >= 1
        finally:
            server.stop()

    def test_trickling_peer_does_not_hold_the_server(self, setup, monkeypatch):
        """A peer that sends a HELLO a byte per 0.1 s misses the server's 0.5 s request
        deadline, though no single read waits that long: its connection ends, counted,
        and a second client gets its HELLO answer."""
        monkeypatch.setattr(acquisition, "DEFAULT_TIMEOUT_S", 0.5)
        server = DeviceServer(0, TINY_RIG[0], scene=setup[0], rig=TINY_RIG)
        server.start_background()
        connected, done = threading.Event(), threading.Event()

        def trickle():
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                connected.set()
                for byte in itertools.cycle(encode_message(Message(MessageKind.HELLO))):
                    if done.wait(0.1):
                        return
                    try:
                        sock.sendall(bytes([byte]))
                    except OSError:  # the server hung up
                        return

        peer = threading.Thread(target=trickle)
        peer.start()
        try:
            assert connected.wait(5)
            time.sleep(0.2)  # the server has taken the trickling connection
            start = time.monotonic()
            assert ScanClient(timeout_s=3.0).hello(f"127.0.0.1:{server.port}") == \
                {"device_id": 0, "intrinsics": TINY_RIG[0].intrinsics.to_json_dict()}
            assert time.monotonic() - start < 2.0
            assert server.counters["protocol_errors"] == 1
        finally:
            done.set()
            peer.join(timeout=5)
            server.stop()
        assert not peer.is_alive()

    def test_declared_length_is_not_allocated_up_front(self, setup, monkeypatch):
        """A request whose header declares 60 MB, of which one payload byte arrives: while
        it stalls the server holds about the bytes that arrived, not the 60 MB declared,
        and at the 1 s deadline it counts the break and hangs up."""
        monkeypatch.setattr(acquisition, "DEFAULT_TIMEOUT_S", 1.0)
        server = DeviceServer(0, TINY_RIG[0], scene=setup[0], rig=TINY_RIG)
        server.start_background()
        header = struct.pack(">4sBBI", b"HSCN", 1, MessageKind.CONFIGURE, 60_000_000)
        tracemalloc.start()
        try:
            with socket.create_connection(("127.0.0.1", server.port), timeout=5) as sock:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                sock.sendall(header + b"{")
                time.sleep(0.5)  # the request stalls, its deadline not yet passed
                held = tracemalloc.get_traced_memory()[1] - base
                assert sock.recv(1) == b""  # hung up on at the deadline, no reply
            assert held < 4e6
            assert server.counters["protocol_errors"] == 1
        finally:
            tracemalloc.stop()
            server.stop()

    def test_client_gives_up_on_a_trickled_reply(self):
        """A device that answers HELLO a byte per 0.1 s misses the client's 0.5 s reply
        deadline, though no single read waits that long: the client raises TimeoutError
        within the deadline and a little slack."""
        done = threading.Event()
        hello = encode_message(Message(MessageKind.HELLO))
        reply = encode_message(json_message(MessageKind.HELLO_ACK, {"device_id": 0}))

        def device(srv: socket.socket):
            conn, _addr = srv.accept()
            with conn:
                assert conn.recv(len(hello), socket.MSG_WAITALL) == hello
                for byte in reply:
                    if done.wait(0.1):
                        return
                    try:
                        conn.sendall(bytes([byte]))
                    except OSError:  # the client hung up
                        return

        with socket.create_server(("127.0.0.1", 0)) as srv:
            srv.settimeout(5)
            trickler = threading.Thread(target=device, args=(srv,))
            trickler.start()
            try:
                start = time.monotonic()
                with pytest.raises(TimeoutError):
                    ScanClient(timeout_s=0.5).hello(f"127.0.0.1:{srv.getsockname()[1]}")
                assert time.monotonic() - start < 0.5 + 0.5
            finally:
                done.set()
                trickler.join(timeout=5)
        assert not trickler.is_alive()


class TestSessionJson:
    SESSION = ScanSession("scan0003", "cow-A", build_schedule([0, 1], 160, 125), [
        ManifestEntry(0, 2, 1234, 5678, 0xDEADBEEF, "127.0.0.1:9000"),
        ManifestEntry(1, 2, 1234, 5678, 7, "127.0.0.1:9001")])

    def test_round_trip(self, tmp_path):
        incomplete = replace(self.SESSION, manifest=self.SESSION.manifest[:1],
                             failed={"127.0.0.1:9001": "connection refused"})
        for session in (self.SESSION, incomplete):
            save_session(tmp_path / "s.json", session)
            assert load_session(tmp_path / "s.json") == session

    def test_failed_reason_must_be_a_string(self, tmp_path):
        path = tmp_path / "s.json"
        save_session(path, replace(self.SESSION, failed={"127.0.0.1:9001": 1}))
        with pytest.raises(ValueError, match=r"^session\.failed\.127\.0\.0\.1:9001: "
                                             r"expected string, got int$"):
            load_session(path)

    def test_mutated_session_loads_or_names_its_key_path(self, tmp_path):
        """A session JSON with a key dropped, a value's type swapped, or wrapped in a list:
        loaded if still valid, else a ValueError naming a key path."""
        path = tmp_path / "s.json"
        save_session(path, self.SESSION)
        doc = json.loads(path.read_text())

        @settings(max_examples=100)
        @given(json_mutants(doc))
        def mutate(mutation):
            at, mutant = mutation
            path.write_text(json.dumps(mutant))
            try:
                session = load_session(path)
            except ValueError as e:
                assert_names_key_path(str(e), "session", at)
            else:  # loaded: what it saves keeps the JSON types of the original
                save_session(path, session)
                assert_json_types_kept(doc, mutant, json.loads(path.read_text()))

        mutate()
