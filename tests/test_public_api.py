"""Every public name the package exports resolves, so a deletion leaves no stale export."""

import hashlib
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from dataclasses import replace

import pytest

import tofscan
from tofscan.experiments import KNOWN_CYLINDER, known_object_config
from tofscan.pipeline import run_pipeline
from tofscan.scene import make_known_object_scene

MODULES = sorted(m.name for m in pkgutil.iter_modules(tofscan.__path__))


def test_package_imports():
    """``import tofscan`` runs every re-export in the package's ``__init__``."""
    assert importlib.import_module("tofscan").__version__


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"tofscan.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"tofscan.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_submodule_attribute_is_the_module(name):
    """No re-export in ``__init__`` shadows a submodule (``tofscan.render`` stays a module)."""
    importlib.import_module(f"tofscan.{name}")
    assert isinstance(getattr(tofscan, name), types.ModuleType), \
        f"tofscan.{name} is {type(getattr(tofscan, name)).__name__}, not the submodule"


_NO_SCIPY = """
import hashlib, sys, tempfile
from dataclasses import replace
import tofscan, tofscan.cli
from tofscan import parallel
from tofscan.acquisition import DeviceServer, ScanClient
from tofscan.capture import build_schedule
from tofscan.experiments import KNOWN_CYLINDER, SYNC_SCENE, known_object_config
from tofscan.oracle import oracle_measurements
from tofscan.pipeline import run_pipeline
from tofscan.rigs import known_object_rig
from tofscan.scene import Scene, make_known_object_scene, superellipsoid

rig = known_object_rig()[:2]
schedule = build_schedule([s.device_id for s in rig], 160, 125)
server = DeviceServer(0, rig[0], scene=SYNC_SCENE, rig=rig)
server.start_background()
try:
    endpoint = f"127.0.0.1:{server.port}"
    client = ScanClient()
    assert client.hello(endpoint)["device_id"] == 0
    client.configure_all([endpoint], schedule)
    session = client.trigger_scan([endpoint], schedule, seed=1)
    with tempfile.TemporaryDirectory() as out:
        assert len(client.fetch_frames(session, out)) == 2
finally:
    server.stop()
assert oracle_measurements(Scene((superellipsoid(0.2, 0.15, 0.1, 0.8, 1.2),)), spacing=0.004).volume > 0
print(sorted(m for m in ("scipy.spatial", "scipy.ndimage", "scipy.sparse") if m in sys.modules))

parallel.WORKERS = 2  # the first SciPy imports run on concurrent pool threads
cfg = replace(known_object_config(make_known_object_scene(KNOWN_CYLINDER)), seed=1, resolution=32)
mesh = run_pipeline(cfg).mesh
print(hashlib.sha256(mesh.vertices.tobytes() + mesh.triangles.tobytes()).hexdigest())
"""


def test_device_client_and_oracle_run_without_scipy():
    """In a fresh interpreter, ``import tofscan``, a device served to a scan client and an
    oracle reference load no SciPy subpackage; a scan on the pool then imports it on its
    threads and gives the mesh bytes of the same scan run here."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}  # this process's tofscan
    run = subprocess.run([sys.executable, "-c", _NO_SCIPY], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    loaded, digest = run.stdout.split("\n")[:2]
    assert loaded == "[]"
    cfg = replace(known_object_config(make_known_object_scene(KNOWN_CYLINDER)), seed=1,
                  resolution=32)
    mesh = run_pipeline(cfg).mesh
    assert digest == hashlib.sha256(mesh.vertices.tobytes() + mesh.triangles.tobytes()).hexdigest()
