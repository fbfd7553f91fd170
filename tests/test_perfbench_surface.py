"""The names, signatures and settings of the program that the benchmark uses.

``perfbench/`` imports the program by name: the tracer rebinds entry points
in their modules, and the workloads build rigs and run configs with keyword
arguments. A change to any of those breaks the benchmark but no other test,
so these checks run each of those uses once, without timing anything.
"""

import importlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tofscan import oracle, pipeline
from tofscan.experiments import KNOWN_CYLINDER, known_object_config
from tofscan.scene import Scene, make_known_object_scene, superellipsoid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_entry_point_exists(perfbench):
    tracer, _ = perfbench
    with tracer.Tracer().installed() as t:
        assert t.missing == []


def test_oracle_sampler_spans_nest_under_marching(perfbench, workers):
    """The tracer finds the oracle's slab sampler by ``sample_fn``'s name or position."""
    tracer, _ = perfbench
    workers(0)  # every slab on the calling thread, below the marching span
    with tracer.Tracer().installed() as t:
        oracle.oracle_mesh(Scene((superellipsoid(0.2, 0.15, 0.1, 0.8, 1.2),)), spacing=0.008)
    streams = [s for s in t.spans if s.name == "oracle.stream"]
    assert streams
    assert all(s.parent is not None and s.parent.name == "marching.marching_cubes"
               for s in streams)


def test_device_stage_is_traced_once_per_device(perfbench):
    """The tracer still reaches fuse and back_project when the devices run on the pool."""
    tracer, _ = perfbench
    cfg = replace(known_object_config(make_known_object_scene(KNOWN_CYLINDER)), resolution=64)
    with tracer.Tracer().installed() as t:
        pipeline.run_pipeline(cfg)
    names = [s.name for s in t.spans]
    assert names.count("segmentation.fuse") == len(cfg.rig)
    assert names.count("geometry.back_project") == len(cfg.rig)
    assert t.missing == [] and t.unobservable == set()


@pytest.mark.parametrize("name", ["cattle_scan", "loopback_acquire", "animal_oracle"])
def test_workload_setup_and_close(perfbench, tmp_path, name):
    _, workloads = perfbench
    workload = workloads.WORKLOADS[name](1, tmp_path)
    try:
        workload.setup()
    finally:
        workload.close()


def test_cattle_scan_builds_its_run_config(perfbench, tmp_path, monkeypatch):
    _, workloads = perfbench
    workload = workloads.CattleScan(1, tmp_path)
    workload.setup()
    monkeypatch.setattr(pipeline, "run_pipeline", lambda cfg: cfg)
    cfg = workload.run_op(0)
    assert isinstance(cfg, pipeline.RunConfig)
    assert cfg.seed == 1 and len(cfg.rig) == 8
