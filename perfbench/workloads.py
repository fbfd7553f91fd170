"""The benchmark's three workloads: cattle scan, loopback acquisition, animal oracle.

Each is a closed loop with one client in one process: the next operation
starts only after the previous one has finished. A workload builds its inputs
from the workload seed in ``setup`` (timed as set-up), runs one
operation in ``run_op`` (timed), and checks that operation's output in
``check`` (untimed). ``run_op`` raises one of ``errors`` for an operation that
fails; ``check`` returns the reasons an output is wrong, empty when it is right.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from tofscan import oracle, pipeline
from tofscan.acquisition import DeviceError, DeviceServer, IntegrityError, ScanClient
from tofscan.capture import build_schedule, corrupt_device_frame
from tofscan.experiments import ExperimentReport
from tofscan.formats import encode_pgm16, encode_ppm
from tofscan.metrology import MeshMeasurements
from tofscan.protocol import ProtocolError
from tofscan.reconstruction import euler_characteristic, is_watertight
from tofscan.render import render
from tofscan.rigs import CATTLE_CHAIN, cattle_rig, default_intrinsics
from tofscan.scene import make_animal_model

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())
ORACLE_SPACING = REFERENCE["spacing_m"]
ORACLE_RTOL = 1e-3  # the oracle's own refinement tolerance (0.1%)


def pinned_reference() -> MeshMeasurements:
    return MeshMeasurements(REFERENCE["surface_area_m2"], REFERENCE["volume_m3"])


def _criterion7_rig():
    return cattle_rig(intrinsics=default_intrinsics(384, 288), sigma0=0.0015, sigma1=0.0003)


class Workload:
    errors: tuple = ()

    def __init__(self, seed: int, workdir: Path, fault: str | None = None):
        self.seed = seed

    def after_failure(self, k: int):
        """Restore the inputs after a failed operation, outside the timed region."""

    def measurements(self, outcome) -> MeshMeasurements | None:
        """Area and volume an operation produced, if it produces them."""
        return None

    def frames_stored(self) -> int:
        """Frames the device servers hold at the end of the run."""
        return 0

    def close(self):
        """Release what ``setup`` started."""


class CattleScan(Workload):
    """One run_pipeline on the scale-1.0 animal with the criterion-7 configuration."""

    errors = (pipeline.PipelineError,)

    def setup(self):
        self.scene = make_animal_model(1.0)
        self.rig = _criterion7_rig()

    def run_op(self, k: int):
        cfg = pipeline.RunConfig(scene=self.scene, rig=self.rig, resolution=192,
                                 cube_edge=0.6, cube_tags_per_face=4,
                                 chain_order=CATTLE_CHAIN, seed=self.seed + k)
        return pipeline.run_pipeline(cfg)

    def check(self, k: int, result) -> list[str]:
        wrong = []
        if result.graph.failed_edges:
            wrong.append(f"failed edges {result.graph.failed_edges}")
        watertight, boundary = is_watertight(result.mesh)
        if not watertight:
            wrong.append(f"mesh not watertight ({boundary} bad edges)")
        chi = euler_characteristic(result.mesh)
        if chi != 2:
            wrong.append(f"Euler characteristic {chi} != 2")
        return wrong

    def measurements(self, result) -> MeshMeasurements:
        return result.measurements


class LoopbackAcquire(Workload):
    """CONFIGURE, TRIGGER and FETCH against two loopback device servers.

    The servers run two adjacent CATTLE_CHAIN devices of the full 8-device
    rig, with the animal scene and rig preloaded, as ``tofscan serve`` runs
    them. The client takes the ``tofscan scan`` path: the schedule holds the
    devices that answered HELLO.
    """

    errors = (OSError, DeviceError, IntegrityError, ProtocolError)
    DEVICES = CATTLE_CHAIN[:2]

    def __init__(self, seed: int, workdir: Path, fault: str | None = None):
        self.seed = seed
        self.workdir = workdir
        self.fault = fault
        self.servers: list[DeviceServer] = []
        self.threads: dict = {}  # every server this run started -> its service thread
        self.stopped: list[DeviceServer] = []
        self.client = ScanClient()
        self._clean = None

    def _start(self, dev: int) -> tuple[DeviceServer, str]:
        server = DeviceServer(dev, self.sensors[dev], scene=self.scene, rig=self.rig)
        self.threads[server] = server.start_background()
        endpoint = f"127.0.0.1:{server.port}"
        if self.client.hello(endpoint)["device_id"] != dev:
            raise RuntimeError(f"endpoint {endpoint} is not device {dev}")
        return server, endpoint

    def _stop(self, server: DeviceServer):
        server.stop()
        self.stopped.append(server)
        self.threads[server].join(timeout=5.0)

    def setup(self):
        self.scene = make_animal_model(1.0)
        self.rig = _criterion7_rig()
        self.sensors = {s.device_id: s for s in self.rig}
        started = [self._start(dev) for dev in self.DEVICES]
        self.servers = [s for s, _ in started]
        self.endpoints = [ep for _, ep in started]
        self.schedule = build_schedule(list(self.DEVICES), 160, 125)
        # warm-up: the first triggers of a fresh server run well above the steady time
        self.client.configure_all(self.endpoints, self.schedule)
        warm_up = self.client.trigger_scan(self.endpoints, cattle_id="warm-up",
                                           schedule=self.schedule, frame_id=-1, seed=self.seed)
        if not warm_up.complete:
            raise RuntimeError(f"warm-up trigger failed: {warm_up.failed}")

    def run_op(self, k: int):
        seed = self.seed + k
        self.client.configure_all(self.endpoints, self.schedule)
        session = self.client.trigger_scan(self.endpoints, cattle_id=f"bench{k}",
                                           schedule=self.schedule, frame_id=k, seed=seed)
        if self.fault == "stop-server" and k == 0:
            self._stop(self.servers[1])
        return seed, self.client.fetch_frames(session, self.workdir)

    def after_failure(self, k: int):
        """Replace a stopped server so that one injected fault fails one operation."""
        for i, server in enumerate(self.servers):
            if server in self.stopped:
                self.servers[i], self.endpoints[i] = self._start(server.device_id)

    def check(self, k: int, outcome) -> list[str]:
        """Fetched bytes must equal the in-process simulation of the same trigger."""
        seed, paths = outcome
        if self._clean is None:  # clean renders are deterministic; compute them once
            self._clean = {dev: render(self.scene, self.sensors[dev]) for dev in self.DEVICES}
        fetched = {}
        for path in paths:
            fetched.setdefault(int(path.name.split("_")[0]), {})[path.suffix] = path.read_bytes()
        wrong = []
        if set(fetched) != set(self.DEVICES):
            wrong.append(f"fetched devices {sorted(fetched)}, expected {sorted(self.DEVICES)}")
        for dev, blobs in fetched.items():
            frame = corrupt_device_frame(self.scene, self.rig, self.schedule, dev, seed,
                                         clean=self._clean[dev])
            if blobs.get(".pgm") != encode_pgm16(frame.depth):
                wrong.append(f"device {dev}: fetched depth PGM differs from the in-process frame")
            if blobs.get(".ppm") != encode_ppm(frame.color):
                wrong.append(f"device {dev}: fetched color PPM differs from the in-process frame")
        if paths:
            shutil.rmtree(paths[0].parent)
        return wrong

    def frames_stored(self) -> int:
        """Frames held by every server this run started, the stopped ones included."""
        return sum(len(s.frames) for s in self.threads)

    def close(self):
        for server in self.servers:
            if server not in self.stopped:
                self._stop(server)
        self.servers = []


class AnimalOracle(Workload):
    """One voxelization reference of the scale-1.0 animal at 4 mm, with its refinement check.

    The oracle's input does not depend on the seed.
    """

    errors = (oracle.OracleUnreliableError,)

    def setup(self):
        self.scene = make_animal_model(1.0)

    def run_op(self, k: int):
        return oracle.oracle_measurements(self.scene, spacing=ORACLE_SPACING)

    def check(self, k: int, m: MeshMeasurements) -> list[str]:
        ref = pinned_reference()
        wrong = []
        for what, got, want in (("area", m.surface_area, ref.surface_area),
                                ("volume", m.volume, ref.volume)):
            if abs(got - want) > ORACLE_RTOL * want:
                wrong.append(f"{what} {got!r} deviates from the pinned {want!r} by more than 0.1%")
        return wrong

    def measurements(self, m: MeshMeasurements) -> MeshMeasurements:
        return m


WORKLOADS = {"cattle_scan": CattleScan, "loopback_acquire": LoopbackAcquire,
             "animal_oracle": AnimalOracle}


def error_pct(runs: list[MeshMeasurements]) -> tuple[float, float]:
    """Percent error of the runs' mean against the pinned reference (ExperimentReport's rule)."""
    report = ExperimentReport("bench", runs, list(range(len(runs))), pinned_reference())
    return report.pct_err_area, report.pct_err_volume
