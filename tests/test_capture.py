from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import close_to_box_face
from tofscan.capture import (CaptureSchedule, build_schedule, corrupt_device_frame,
                             interferer_counts, overlapping_pairs, simulate_capture,
                             write_retention_csv)
from tofscan.experiments import SYNC_SCENE
from tofscan.render import apply_tof_noise, render
from tofscan.rigs import CATTLE_CHAIN, cattle_rig, known_object_rig, look_at
from tofscan.scene import make_animal_model


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            build_schedule([], 160, 125)
        with pytest.raises(ValueError):
            build_schedule([1, 1], 160, 125)
        with pytest.raises(ValueError):
            build_schedule([1, 2], -5, 125)
        with pytest.raises(ValueError):
            build_schedule([1, 2], 160, 0)

    def test_json_round_trip(self):
        s = build_schedule([3, 1, 2], 80, 110)
        assert CaptureSchedule.from_json_dict(s.to_json_dict(), "schedule") == s


def _window_overlaps(order, delay, exposure):
    """Reference: intersect every pair of half-open windows [k*delay, k*delay + exposure)."""
    wins = [(dev, k * delay, k * delay + exposure) for k, dev in enumerate(order)]
    return [(a, b) for i, (a, sa, ea) in enumerate(wins) for b, sb, eb in wins[i + 1:]
            if sa < eb and sb < ea]


class TestOverlap:
    @settings(max_examples=300)
    @given(order=st.lists(st.integers(0, 99), min_size=1, max_size=12, unique=True),
           delay=st.integers(0, 10_000), exposure=st.integers(1, 10_000))
    def test_matches_window_intersection(self, order, delay, exposure):
        schedule = build_schedule(order, delay, exposure)
        assert overlapping_pairs(schedule) == _window_overlaps(order, delay, exposure)

    def test_160us_delay_125us_exposure_no_pairs(self):
        assert overlapping_pairs(build_schedule(range(10), 160, 125)) == []

    def test_zero_delay_all_pairs(self):
        assert len(overlapping_pairs(build_schedule(range(10), 0, 125))) == 45

    def test_three_devices_interval_case(self):
        pairs = overlapping_pairs(build_schedule(range(3), 100, 150))
        assert pairs == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("n", range(1, 17))
    def test_delay_at_least_exposure_never_overlaps(self, n):
        for delay, exposure in [(125, 125), (126, 125), (400, 125), (1, 1)]:
            assert overlapping_pairs(build_schedule(range(n), delay, exposure)) == []

    def test_symmetric_irreflexive(self):
        pairs = overlapping_pairs(build_schedule(range(8), 30, 100))
        assert all(a != b for a, b in pairs)
        assert len({tuple(sorted(p)) for p in pairs}) == len(pairs)


@pytest.fixture(scope="module")
def small_setup():
    rig = known_object_rig()
    renders = {s.device_id: render(SYNC_SCENE, s) for s in rig}
    return SYNC_SCENE, rig, renders


class TestInterfererCounts:
    """Overlapping exposure windows interfere only between two sensors that see the target."""

    def test_cattle_rig(self):
        scene = make_animal_model(1.0)
        rig = cattle_rig()
        n = len(rig)
        at_zero = build_schedule(CATTLE_CHAIN, 0)
        assert interferer_counts(scene, rig, at_zero) == {d: n - 1 for d in range(n)}
        assert interferer_counts(scene, rig, build_schedule(CATTLE_CHAIN, 160)) == \
            {d: 0 for d in range(n)}

        # device 3 turned to face straight away from the target's centre
        lo, hi = scene.target_bounds()
        eye = rig[3].camera_center()
        turned = list(rig)
        turned[3] = replace(rig[3], pose=look_at(eye, 2 * eye - (lo + hi) / 2))
        counts = interferer_counts(scene, turned, at_zero)
        assert counts == {d: 0 if d == 3 else n - 2 for d in range(n)}

    def test_no_overlap_tests_no_sensor(self, monkeypatch):
        """At 160 us no exposures overlap, so no sensor's view of the target is tested."""
        def no_test(*args):
            raise AssertionError("box_rectangle called")

        monkeypatch.setattr("tofscan.capture.box_rectangle", no_test)
        rig = cattle_rig()
        counts = interferer_counts(make_animal_model(1.0), rig, build_schedule(CATTLE_CHAIN, 160))
        assert counts == {s.device_id: 0 for s in rig}

    def test_sensor_close_to_a_box_face(self):
        """A sensor whose every pixel is target sees it, though no box corner is in view."""
        scene, close = close_to_box_face()
        assert render(scene, close).oracle_mask.count() == 320 * 240
        partner = replace(close, device_id=1, pose=look_at((0.0, 3.0, 1.0), (0.0, 0.0, 1.0)))
        assert interferer_counts(scene, [close, partner], build_schedule([0, 1], 0)) == \
            {0: 1, 1: 1}


class TestSimulateCapture:
    def test_id_mismatch_is_error(self, small_setup):
        scene, rig, renders = small_setup
        bad = build_schedule(range(5), 160, 125)
        with pytest.raises(ValueError, match="do not match"):
            simulate_capture(scene, rig, bad, seed=0, renders=renders)

    def test_synchronized_equals_noise_only(self, small_setup):
        """delay >= exposure: pixelwise identical to render + noise per sensor."""
        scene, rig, renders = small_setup
        sched = build_schedule([s.device_id for s in rig], 160, 125)
        cap = simulate_capture(scene, rig, sched, seed=4, renders=renders)
        from tofscan.capture import _device_seed
        for s in rig:
            expected = apply_tof_noise(renders[s.device_id].depth, s,
                                       _device_seed(4, s.device_id, 0))
            assert np.array_equal(cap.frames[s.device_id].depth.data, expected.data)

    @pytest.mark.parametrize("delay", [0, 160])
    def test_frames_equal_per_device_corruption(self, small_setup, delay):
        """The whole-rig simulation and a device server's own frame agree byte for byte."""
        scene, rig, renders = small_setup
        sched = build_schedule([s.device_id for s in rig], delay, 125)
        cap = simulate_capture(scene, rig, sched, seed=3, renders=renders)
        for s in rig:
            own = corrupt_device_frame(scene, rig, sched, s.device_id, 3,
                                       clean=renders[s.device_id])
            assert cap.frames[s.device_id].depth.data.tobytes() == own.depth.data.tobytes()
            assert cap.frames[s.device_id].color.data.tobytes() == own.color.data.tobytes()
        if delay == 0:  # interference active: some target pixels were lost
            assert min(st.retention for st in cap.retention.values()) < 1.0

    def test_synchronized_retention_is_one(self, small_setup):
        scene, rig, renders = small_setup
        sched = build_schedule([s.device_id for s in rig], 160, 125)
        cap = simulate_capture(scene, rig, sched, seed=0, renders=renders)
        assert all(st.retention == 1.0 for st in cap.retention.values())

    def test_single_sensor_rig_noise_only(self, small_setup):
        scene, rig, renders = small_setup
        one = [rig[0]]
        sched = build_schedule([rig[0].device_id], 0, 125)
        cap = simulate_capture(scene, one, sched, seed=2,
                               renders={rig[0].device_id: renders[rig[0].device_id]})
        assert cap.retention[rig[0].device_id].retention == 1.0

    def test_zero_delay_loses_most_points(self, small_setup):
        scene, rig, renders = small_setup
        sched = build_schedule([s.device_id for s in rig], 0, 125)
        rets = []
        for seed in range(5):
            cap = simulate_capture(scene, rig, sched, seed=seed, renders=renders)
            rets.append(np.mean([st.retention for st in cap.retention.values()]))
        assert np.mean(rets) <= 0.20

    def test_retention_monotone_in_overlap(self, small_setup):
        """More overlapping pairs never helps retention (averaged over 20 seeds)."""
        scene, rig, renders = small_setup
        ids = [s.device_id for s in rig]
        means = []
        for delay in (0, 40, 80, 160):
            sched = build_schedule(ids, delay, 125)
            vals = [np.mean([st.retention for st in
                             simulate_capture(scene, rig, sched, seed=k,
                                              renders=renders).retention.values()])
                    for k in range(20)]
            means.append((len(overlapping_pairs(sched)), np.mean(vals)))
        means.sort(key=lambda p: p[0])
        rets = [r for _, r in means]
        assert all(rets[i] >= rets[i + 1] - 1e-9 for i in range(len(rets) - 1))

    def test_retention_csv(self, small_setup, tmp_path):
        scene, rig, renders = small_setup
        sched = build_schedule([s.device_id for s in rig], 160, 125)
        cap = simulate_capture(scene, rig, sched, seed=0, renders=renders)
        path = tmp_path / "retention.csv"
        write_retention_csv(path, cap.retention)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "device_id,points_before,points_after,retention"
        assert len(lines) == 1 + len(rig)
