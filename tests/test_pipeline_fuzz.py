"""The pipeline on generated scans: every case ends in a result or in one of the
program's own errors, never in a numpy warning, an IndexError or a bare ValueError."""

import warnings
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tofscan.experiments import TEXTURE, known_object_config
from tofscan.geometry import GeometryError, RigidTransform
from tofscan.metrology import NotWatertightError
from tofscan.pipeline import PipelineError, PipelineResult, run_pipeline
from tofscan.reconstruction import ReconstructionError
from tofscan.registration import DegenerateConfigError, DivergenceError
from tofscan.rigs import KNOWN_OBJECT_CHAIN, RING_CENTER, default_intrinsics
from tofscan.scene import ScenePrimitive, make_known_object_scene
from tofscan.solver import SolverError

OWN_ERRORS = (NotWatertightError, ReconstructionError, SolverError, DivergenceError,
              DegenerateConfigError, GeometryError)


@st.composite
def scans(draw):
    """A known-object run of one textured target of scale 0.05-0.25 m, turned about the
    ring centre, seen by 1-10 ring sensors 48-160 px wide (3:4), at a delay of
    0-160 us and a resolution of 32-64."""
    s = draw(st.floats(0.05, 0.25))
    size = st.floats(0.5, 1.0)
    shape = draw(st.sampled_from(("box", "cylinder", "capsule", "superellipsoid")))
    params = {"box": lambda: [s * draw(size) for _ in range(3)],
              "cylinder": lambda: [s * draw(size), 2 * s * draw(size)],
              "capsule": lambda: [s * draw(size), 2 * s * draw(size)],
              "superellipsoid": lambda: [s * draw(size) for _ in range(3)]
              + [draw(st.floats(0.3, 2.0)), draw(st.floats(0.3, 2.0))]}[shape]()
    theta, phi = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2 * np.pi))
    axis = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    pose = RigidTransform.from_axis_angle(axis, draw(st.floats(0.0, np.pi)), RING_CENTER)
    target = ScenePrimitive(shape, params, pose, (0.85, 0.7, 0.4), texture=TEXTURE)
    cfg = known_object_config(make_known_object_scene(target))
    devices = draw(st.sets(st.integers(0, 9), min_size=1, max_size=10))
    quarter = draw(st.integers(12, 40))
    intrinsics = default_intrinsics(4 * quarter, 3 * quarter)
    return replace(cfg, rig=[replace(sensor, intrinsics=intrinsics)
                             for sensor in cfg.rig if sensor.device_id in devices],
                   chain_order=tuple(d for d in KNOWN_OBJECT_CHAIN if d in devices),
                   delay_us=draw(st.integers(0, 160)), seed=draw(st.integers(0, 7)),
                   resolution=draw(st.integers(32, 64)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(scans())
def test_every_scan_ends_in_a_result_or_an_own_error(cfg):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_pipeline(cfg)
    except PipelineError as e:
        assert isinstance(e.cause, OWN_ERRORS), (e.stage, repr(e.cause))
    else:
        assert isinstance(result, PipelineResult)
