"""Client/server acquisition: per-device servers answering a fan-out scan client.

Each simulated embedded device hosts one server with a three-state machine
(idle -> configured -> captured); STATUS reports the state and the server's
counts of frames rendered, bytes sent and protocol errors. A server is built
with the scene and rig it renders. Both are fixed for its life and the render
is deterministic, so it renders its clean view once, on the first TRIGGER; each
TRIGGER then applies that trigger's noise and interference to it. The client
connects to every device, pushes the capture schedule, triggers all devices
concurrently, and later fetches the stored frames, verifying CRC-32 integrity;
a failed CONFIGURE or FETCH names its endpoint. A request with a malformed
payload, or a schedule naming a device outside the server's rig, gets
BAD_REQUEST and leaves the server's schedule, state and frames as they were.
A server handles one connection at a time; the rig has exactly one client.
Each message must arrive whole within one deadline, ``DEFAULT_TIMEOUT_S`` for
a request and the client's ``timeout_s`` for a reply, so a peer that trickles
its bytes holds a server, or a device the client, no longer than one that
stalls. A server counts a request past its deadline as a protocol error and
hangs up.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .capture import CaptureSchedule, corrupt_device_frame
from .formats import encode_pgm16, encode_ppm
from .jsondoc import build, check, get
from .protocol import (ErrorCode, Message, MessageKind, ProtocolError,
                       encode_message, frame_crc32, json_message, pack_frame_payload,
                       payload_json, read_message, unpack_frame_payload)
from .render import RenderResult, SensorModel, render, rig_to_list
from .scene import Scene

logger = logging.getLogger(__name__)

__all__ = [
    "DeviceServer", "ScanClient", "ScanSession", "ManifestEntry",
    "IntegrityError", "DeviceError",
    "save_session", "load_session",
]

DEFAULT_TIMEOUT_S = 5.0


class IntegrityError(Exception):
    """Frame checksum mismatch on fetch."""


class DeviceError(Exception):
    """Server replied with an ERROR message."""

    def __init__(self, code: int, reason: str):
        super().__init__(f"device error {code}: {reason}")
        self.code = ErrorCode(code)
        self.reason = reason


def _recv_exact(sock: socket.socket, n: int, deadline: float) -> bytes:
    """``n`` bytes, each ``recv`` bounded by the time left before ``deadline``
    (``time.monotonic``); TimeoutError once it has passed."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("the message missed its deadline")
        sock.settimeout(left)
        count = sock.recv_into(view[got:])
        if not count:
            raise ConnectionError("peer closed the connection")
        got += count
    return bytes(buf)


def _send(sock: socket.socket, m: Message) -> int:
    data = encode_message(m)
    sock.sendall(data)
    return len(data)


def _recv(sock: socket.socket, timeout_s: float) -> Message:
    """One message, which must arrive whole within ``timeout_s``: a peer that trickles
    it holds the socket no longer than one that stalls."""
    deadline = time.monotonic() + timeout_s
    return read_message(lambda n: _recv_exact(sock, n, deadline))


def _with_endpoint(endpoint: str, e: Exception) -> Exception:
    """``e`` again, as the same class, with its message led by ``endpoint``."""
    named = DeviceError(e.code, e.reason) if isinstance(e, DeviceError) else type(e)()
    named.args = (f"{endpoint}: {e}",)
    return named


def _read_payload(msg: Message, read, error=ProtocolError):
    """``read(doc, path)`` of ``msg``'s JSON object payload, ``path`` being the message
    kind; a payload that is not JSON, or any defect ``read`` finds, raises ``error(reason)``."""
    try:
        return read(check(payload_json(msg), msg.kind.name, "object"), msg.kind.name)
    except (ProtocolError, ValueError) as e:
        raise error(str(e)) from None


def _bad_request(reason: str) -> DeviceError:
    """A request payload's defect is the client's fault."""
    return DeviceError(ErrorCode.BAD_REQUEST, reason)


class DeviceServer:
    """One simulated embedded device: renders and serves frames for one sensor."""

    def __init__(self, device_id: int, sensor: SensorModel,
                 scene: Scene, rig: list[SensorModel]):
        if sensor.device_id != device_id:
            raise ValueError(f"sensor device_id {sensor.device_id} != server id {device_id}")
        entry = next((s for s in rig if s.device_id == device_id), None)
        if entry is None:
            raise ValueError(f"device {device_id} not in rig")
        # by value: == on the dataclasses would compare numpy arrays
        if rig_to_list([sensor]) != rig_to_list([entry]):
            raise ValueError(f"sensor differs from the rig's device {device_id}")
        self.device_id = device_id
        self.sensor = sensor
        self.scene = scene
        self.rig = rig
        self.schedule: CaptureSchedule | None = None
        self.state = "idle"
        self.frames: dict[int, tuple[bytes, bytes, int]] = {}  # last triggered frame only
        # rendered by the first TRIGGER; one connection at a time, so no lock
        self._clean: RenderResult | None = None
        # reported by STATUS; protocol_errors counts requests that broke the wire format
        self.counters = {"frames_rendered": 0, "bytes_sent": 0, "protocol_errors": 0}
        self._stop = threading.Event()
        self.port: int | None = None

    # -- service loop -----------------------------------------------------

    def start_background(self, host: str = "127.0.0.1", port: int = 0) -> threading.Thread:
        """Bind, then serve until :meth:`stop` in a daemon thread, one connection at a
        time; returns once the port is bound and logged."""
        srv = socket.create_server((host, port), backlog=1)  # closed if bind fails
        srv.settimeout(0.2)  # poll the stop flag between accepts
        self.port = srv.getsockname()[1]
        logger.info("device %d serving on %s:%d", self.device_id, host, self.port)
        t = threading.Thread(target=self._accept_loop, args=(srv,),
                             daemon=True, name=f"device-{self.device_id}")
        t.start()
        return t

    def _accept_loop(self, srv: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                try:
                    conn, _addr = srv.accept()
                except socket.timeout:
                    continue
                with conn:
                    self._serve_connection(conn)
        finally:
            srv.close()

    def stop(self) -> None:
        self._stop.set()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Answer requests until the peer hangs up; every reply leaves by one guarded send."""
        broken = False
        while not (broken or self._stop.is_set()):
            error = None
            try:
                msg = _recv(conn, DEFAULT_TIMEOUT_S)
            except TimeoutError:  # a request not whole by its deadline: counted, hung up on
                self.counters["protocol_errors"] += 1
                return
            except OSError:  # the peer hung up or reset
                return
            except ProtocolError as e:  # answered, counted, then hung up on
                self.counters["protocol_errors"] += 1
                broken, error = True, _bad_request(str(e))
            else:
                try:
                    reply = self._handle(msg)
                except DeviceError as e:
                    error = e
                except Exception as e:  # keep the connection alive per contract
                    logger.exception("device %d: internal error", self.device_id)
                    error = DeviceError(ErrorCode.INTERNAL, str(e))
            if error is not None:
                reply = json_message(MessageKind.ERROR,
                                     {"code": int(error.code), "reason": error.reason})
            try:
                conn.settimeout(DEFAULT_TIMEOUT_S)  # not what the request's deadline left
                self.counters["bytes_sent"] += _send(conn, reply)
            except OSError:
                return

    # -- request handlers ---------------------------------------------------

    def _handle(self, msg: Message) -> Message:
        if msg.kind is MessageKind.HELLO:
            return json_message(MessageKind.HELLO_ACK,
                                {"device_id": self.device_id,
                                 "intrinsics": self.sensor.intrinsics.to_json_dict()})
        if msg.kind is MessageKind.STATUS:
            return json_message(MessageKind.STATUS_ACK, {"state": self.state, **self.counters})
        if msg.kind is MessageKind.CONFIGURE:
            schedule = _read_payload(msg, lambda d, p: CaptureSchedule.from_json_dict(
                get(d, p, "schedule", "object"), f"{p}.schedule"), _bad_request)
            rig_ids = {s.device_id for s in self.rig}
            outside = [d for d in schedule.device_order if d not in rig_ids]
            if outside:
                raise _bad_request(f"CONFIGURE.schedule.device_order: devices {outside} "
                                   f"are not in this server's rig")
            if self.device_id not in schedule.device_order:
                raise DeviceError(ErrorCode.BAD_REQUEST,
                                  f"device {self.device_id} missing from schedule")
            self.schedule = schedule
            self.state = "configured"
            return json_message(MessageKind.CONFIGURE_ACK, {"device_id": self.device_id})
        if msg.kind is MessageKind.TRIGGER:
            if self.state != "configured":
                raise DeviceError(ErrorCode.BAD_STATE,
                                  f"TRIGGER requires state 'configured', device is '{self.state}'")
            frame_id, seed = _read_payload(msg, lambda d, p: (
                get(d, p, "frame_id", "integer"),
                get(d, p, "seed", "integer", default=0)), _bad_request)
            if self._clean is None:
                self._clean = render(self.scene, self.sensor)
            result = corrupt_device_frame(self.scene, self.rig, self.schedule,
                                          self.device_id, seed, clean=self._clean)
            depth_pgm = encode_pgm16(result.depth)
            color_ppm = encode_ppm(result.color)
            crc = frame_crc32(depth_pgm, color_ppm)
            self.frames = {frame_id: (depth_pgm, color_ppm, crc)}
            self.counters["frames_rendered"] += 1
            self.state = "captured"
            return json_message(MessageKind.TRIGGER_ACK,
                                {"device_id": self.device_id, "frame_id": frame_id,
                                 "depth_bytes": len(depth_pgm), "color_bytes": len(color_ppm),
                                 "crc32": crc})
        if msg.kind is MessageKind.FETCH:
            if self.state != "captured":
                raise DeviceError(ErrorCode.BAD_STATE,
                                  f"FETCH requires state 'captured', device is '{self.state}'")
            frame_id = _read_payload(msg, lambda d, p: get(d, p, "frame_id", "integer"),
                                     _bad_request)
            if frame_id not in self.frames:
                raise DeviceError(ErrorCode.UNKNOWN_FRAME, f"no stored frame {frame_id}")
            depth_pgm, color_ppm, _crc = self.frames[frame_id]
            return Message(MessageKind.FRAME, pack_frame_payload(depth_pgm, color_ppm))
        raise DeviceError(ErrorCode.BAD_REQUEST,
                          f"unexpected request kind {msg.kind.name}")


# --- client ----------------------------------------------------------------


@dataclass(frozen=True)
class ManifestEntry:
    device_id: int
    frame_id: int
    depth_bytes: int
    color_bytes: int
    crc32: int
    endpoint: str


@dataclass
class ScanSession:
    session_id: str
    cattle_id: str
    schedule: CaptureSchedule
    manifest: list = field(default_factory=list)
    failed: dict = field(default_factory=dict)  # endpoint -> reason

    @property
    def complete(self) -> bool:
        return not self.failed and bool(self.manifest)


def save_session(path, session: ScanSession) -> None:
    doc = {"session_id": session.session_id, "cattle_id": session.cattle_id,
           "schedule": session.schedule.to_json_dict(),
           "devices": [{"id": e.device_id, "frame_id": e.frame_id,
                        "depth_bytes": e.depth_bytes, "color_bytes": e.color_bytes,
                        "crc32": e.crc32, "endpoint": e.endpoint} for e in session.manifest],
           "failed": session.failed}
    Path(path).write_text(json.dumps(doc, indent=2))


def load_session(path) -> ScanSession:
    """``save_session``'s session; any defect raises ValueError naming its key path."""
    doc = check(json.loads(Path(path).read_text()), "session", "object")
    session = ScanSession(get(doc, "session", "session_id", "string"),
                          get(doc, "session", "cattle_id", "string"),
                          CaptureSchedule.from_json_dict(
                              get(doc, "session", "schedule", "object"), "session.schedule"))
    for i, d in enumerate(get(doc, "session", "devices", "list", "object")):
        p = f"session.devices[{i}]"
        session.manifest.append(ManifestEntry(
            *(get(d, p, k, "integer") for k in ("id", "frame_id", "depth_bytes",
                                                "color_bytes", "crc32")),
            get(d, p, "endpoint", "string", default="")))
    failed = get(doc, "session", "failed", "object", default={})
    session.failed = {ep: check(r, f"session.failed.{ep}", "string") for ep, r in failed.items()}
    return session


def _parse_endpoint(ep: str) -> tuple[str, int]:
    host, _, port = ep.rpartition(":")
    if not (port.isdecimal() and 0 < int(port) < 65536):
        raise ValueError(f"endpoint {ep!r} is not host:port")
    return host or "127.0.0.1", int(port)


class ScanClient:
    """Operator-side program: configures, triggers, and fetches from all devices."""

    def __init__(self, timeout_s: float = DEFAULT_TIMEOUT_S):
        self.timeout_s = timeout_s
        self.next_session = 1  # tofscan scan starts it after the sessions in its --out

    def _request(self, endpoint: str, msg: Message) -> Message:
        host, port = _parse_endpoint(endpoint)
        with socket.create_connection((host, port), timeout=self.timeout_s) as sock:
            _send(sock, msg)
            reply = _recv(sock, self.timeout_s)
        if reply.kind is MessageKind.ERROR:
            raise _read_payload(reply, lambda d, p: build(f"{p}.code", DeviceError,
                                                          get(d, p, "code", "integer"),
                                                          get(d, p, "reason", "string")))
        return reply

    def hello(self, endpoint: str) -> dict:
        """The HELLO_ACK payload, whose ``device_id`` is an integer."""
        def read(d: dict, path: str) -> dict:
            get(d, path, "device_id", "integer")
            return d

        return _read_payload(self._request(endpoint, Message(MessageKind.HELLO)), read)

    def status(self, endpoint: str) -> str:
        return _read_payload(self._request(endpoint, Message(MessageKind.STATUS)),
                             lambda d, p: get(d, p, "state", "string"))

    def configure_all(self, endpoints: list[str], schedule: CaptureSchedule) -> None:
        msg = json_message(MessageKind.CONFIGURE, {"schedule": schedule.to_json_dict()})
        with ThreadPoolExecutor(max_workers=max(1, len(endpoints))) as pool:
            futures = {ep: pool.submit(self._request, ep, msg) for ep in endpoints}
            for ep, fut in futures.items():
                try:
                    fut.result()  # propagate configuration failures immediately
                except (OSError, DeviceError, ProtocolError) as e:
                    raise _with_endpoint(ep, e) from e

    def trigger_scan(self, endpoints: list[str], schedule: CaptureSchedule,
                     cattle_id: str = "", frame_id: int = 0,
                     seed: int = 0) -> ScanSession:
        """Fire TRIGGER at every device concurrently and assemble the manifest.

        Unreachable or erroring devices are recorded per endpoint; the session
        is kept (marked incomplete) rather than discarded.
        """
        session_id = f"scan{self.next_session:04d}"
        self.next_session += 1
        session = ScanSession(session_id, cattle_id, schedule)

        msg = json_message(MessageKind.TRIGGER, {"session_id": session_id,
                                                 "frame_id": frame_id, "seed": seed})

        def one(ep: str) -> ManifestEntry:
            return _read_payload(self._request(ep, msg), lambda d, p: ManifestEntry(
                *(get(d, p, k, "integer") for k in ("device_id", "frame_id", "depth_bytes",
                                                     "color_bytes", "crc32")), ep))

        with ThreadPoolExecutor(max_workers=max(1, len(endpoints))) as pool:
            futures = {ep: pool.submit(one, ep) for ep in endpoints}
            for ep, fut in futures.items():
                try:
                    session.manifest.append(fut.result())
                except (OSError, DeviceError, ProtocolError) as e:
                    logger.warning("trigger failed for %s: %s", ep, e)
                    session.failed[ep] = str(e)
        session.manifest.sort(key=lambda e: e.device_id)
        return session

    def fetch_frames(self, session: ScanSession, out_dir) -> list[Path]:
        """Pull every triggered frame, verify CRC-32, and write PGM/PPM files.

        The first device that fails ends the fetch, and the error names its endpoint.
        """
        if not session.complete:
            raise DeviceError(ErrorCode.BAD_STATE,
                              f"session {session.session_id} incomplete; "
                              f"failed endpoints: {sorted(session.failed)}")
        out = Path(out_dir) / session.session_id
        out.mkdir(parents=True, exist_ok=True)
        paths: list[Path] = []
        for entry in session.manifest:
            try:
                reply = self._request(entry.endpoint, json_message(
                    MessageKind.FETCH, {"frame_id": entry.frame_id}))
                if reply.kind is not MessageKind.FRAME:
                    raise ProtocolError(f"expected FRAME, got {reply.kind.name}")
                depth_pgm, color_ppm = unpack_frame_payload(reply.payload)
                crc = frame_crc32(depth_pgm, color_ppm)
                if crc != entry.crc32 or len(depth_pgm) != entry.depth_bytes \
                        or len(color_ppm) != entry.color_bytes:
                    raise IntegrityError(
                        f"device {entry.device_id}: frame payload failed integrity check "
                        f"(crc {crc:#010x} != {entry.crc32:#010x})")
            except (OSError, DeviceError, ProtocolError, IntegrityError) as e:
                raise _with_endpoint(entry.endpoint, e) from e
            dp = out / f"{entry.device_id}_depth.pgm"
            cp = out / f"{entry.device_id}_color.ppm"
            dp.write_bytes(depth_pgm)
            cp.write_bytes(color_ppm)
            paths += [dp, cp]
        return paths
