import csv
from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import replace

import tofscan.experiments as experiments
from tofscan import pipeline
from conftest import target_surface_count
from tofscan.experiments import (KNOWN_BOXES, ExperimentReport, known_object_config,
                                 run_animal_experiment, run_interference_experiment,
                                 run_known_object_experiment, write_report_csv,
                                 write_retention_report_csv)
from tofscan.geometry import RigidTransform
from tofscan.metrology import MeshMeasurements
from tofscan.pipeline import PipelineError
from tofscan.scene import make_known_object_scene


@pytest.fixture(scope="module")
def box_cfg():
    obj = KNOWN_BOXES["medium"]
    return obj, replace(known_object_config(make_known_object_scene(obj)), resolution=64)


class TestKnownObject:
    def test_single_run_report(self, box_cfg):
        obj, cfg = box_cfg
        report = run_known_object_experiment("box-medium", obj, 1,
                                             [RigidTransform.identity()], cfg)
        assert len(report.runs) == 1 and not report.failed_runs
        assert report.object_id == "box-medium"
        assert report.std_area == 0.0  # single run: std 0 by definition
        assert report.pct_err_area < 10  # low resolution smoke bound

    def test_requires_at_least_one_run(self, box_cfg):
        obj, cfg = box_cfg
        with pytest.raises(ValueError):
            run_known_object_experiment("box-medium", obj, 0, [RigidTransform.identity()],
                                        cfg)

    def test_failed_runs_are_flagged_and_excluded(self, box_cfg, monkeypatch):
        obj, cfg = box_cfg
        real = experiments.run_pipeline
        calls = {"n": 0}

        def flaky(c):
            calls["n"] += 1
            if calls["n"] == 2:
                raise PipelineError("registration", RuntimeError("synthetic failure"))
            return real(c)

        monkeypatch.setattr(experiments, "run_pipeline", flaky)
        report = run_known_object_experiment("box-medium", obj, 3,
                                             [RigidTransform.identity()], cfg)
        assert len(report.runs) == 2
        assert len(report.failed_runs) == 1

    def test_run_with_a_failed_edge_is_flagged_and_excluded(self, box_cfg, monkeypatch):
        obj, cfg = box_cfg
        real = experiments.run_pipeline
        calls = {"n": 0}

        def one_diverged_edge(c):
            calls["n"] += 1
            result = real(c)
            if calls["n"] == 2:
                result.graph.failed_edges.append((3, 2))
            return result

        monkeypatch.setattr(experiments, "run_pipeline", one_diverged_edge)
        report = run_known_object_experiment("box-medium", obj, 2,
                                             [RigidTransform.identity()], cfg)
        assert report.seeds == [cfg.seed] and len(report.runs) == 1
        assert len(report.failed_runs) == 1
        seed, reason = report.failed_runs[0]
        assert seed == cfg.seed + 1 and "diverged edges [(3, 2)]" in reason


class TestInterference:
    def test_needs_delays(self, box_cfg):
        with pytest.raises(ValueError):
            run_interference_experiment([], box_cfg[1])

    def test_synchronized_baseline_is_full_retention(self, box_cfg):
        _, cfg = box_cfg
        out = run_interference_experiment([200], cfg, n_seeds=3)
        assert out[200] == pytest.approx(1.0)

    def test_retention_csv(self, box_cfg, tmp_path):
        _, cfg = box_cfg
        out = run_interference_experiment([0, 160], cfg, n_seeds=2)
        path = tmp_path / "retention.csv"
        write_retention_report_csv(path, out)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["delay_us", "mean_retention"]
        assert [r[0] for r in rows[1:]] == ["0", "160"]


class TestAnimal:
    def test_rejects_fewer_than_five_runs(self, box_cfg):
        with pytest.raises(ValueError, match="5"):
            run_animal_experiment(1.0, 3, box_cfg[1])

    def test_runs_the_configured_scene(self, box_cfg, monkeypatch):
        _, cfg = box_cfg
        scenes = []

        def stub(c):
            scenes.append(c.scene)
            return SimpleNamespace(graph=SimpleNamespace(failed_edges=[]),
                                   measurements=MeshMeasurements(1.0, 0.1))

        monkeypatch.setattr(experiments, "run_pipeline", stub)
        report = run_animal_experiment(2.0, 5, cfg, reference=MeshMeasurements(1.0, 0.1))
        assert len(scenes) == 5 and all(s is cfg.scene for s in scenes)
        assert report.object_id == "animal-x2"


def test_noise_free_box_is_tightest_case(monkeypatch):
    """Zero sensor noise, zero interference, exact fiducials: errors <= 2%.

    Resolution 192: the residual area deficit is the marching-cubes edge
    chamfer (about one cell radius along the 12 box edges), which needs cells
    below ~2.5 mm on this box to stay inside the 2% bound.
    """
    # the calibration pass's corners are exact; the pose solve still weighs them by 1 mm
    monkeypatch.setattr(pipeline, "CORNER_NOISE_SIGMA", 0.0)
    obj = KNOWN_BOXES["medium"]
    cfg = known_object_config(make_known_object_scene(obj))
    cfg = replace(cfg, resolution=192,
                  rig=tuple(replace(s, sigma0=0.0, sigma1=0.0) for s in cfg.rig))
    report = run_known_object_experiment("box-medium", obj, 1, [RigidTransform.identity()],
                                         cfg)
    assert not report.failed_runs
    assert report.pct_err_area <= 2.0
    assert report.pct_err_volume <= 2.0


class TestHelpers:
    def test_target_surface_count(self, box_cfg):
        obj, cfg = box_cfg
        scene = cfg.scene
        on = obj.pose.apply(np.array([[0.2, 0.0, 0.0], [0.0, 0.15, 0.0]]))
        off = np.array([[3.0, 3.0, 3.0]])
        assert target_surface_count(np.vstack([on, off]), scene, tol=0.01) == 2
        assert target_surface_count(np.empty((0, 3)), scene) == 0

    def test_report_csv_columns(self, tmp_path):
        report = ExperimentReport(
            "cylinder", [MeshMeasurements(0.25, 0.0095), MeshMeasurements(0.26, 0.0093)],
            [0, 1], MeshMeasurements(0.251327, 0.00942478))
        path = tmp_path / "report.csv"
        write_report_csv(path, report)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["object_id", "run", "seed", "surface_area_m2", "volume_m3",
                           "ref_area", "ref_volume", "pct_err_area", "pct_err_volume"]
        assert rows[-1][1] == "mean"
        assert len(rows) == 4

    def test_report_stats(self):
        report = ExperimentReport("x", [MeshMeasurements(1.0, 0.1),
                                        MeshMeasurements(1.2, 0.12)],
                                  [0, 1], MeshMeasurements(1.1, 0.11))
        assert report.mean_area == pytest.approx(1.1)
        assert report.pct_err_area == pytest.approx(0.0)
