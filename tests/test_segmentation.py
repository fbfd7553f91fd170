import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tofscan.geometry import BinaryMask, CameraIntrinsics, ColorImage, DepthImage, back_project
from tofscan.segmentation import ArbitrationMode, MaskPair, fuse, load_masks, metrics


def mask_of(coords, w=4, h=4):
    data = np.zeros((h, w), bool)
    for u, v in coords:
        data[v, u] = True
    return BinaryMask(data)


class TestFuse:
    def test_identical_pair_any_mode(self, rng):
        m = BinaryMask(rng.random((6, 6)) < 0.5)
        pair = MaskPair(m, m)
        for mode in ArbitrationMode:
            assert np.array_equal(fuse(pair, mode).data, m.data)

    def test_disjoint_masks(self):
        a = mask_of([(0, 0), (1, 0)])
        b = mask_of([(2, 2), (3, 3)])
        pair = MaskPair(a, b)
        assert fuse(pair, ArbitrationMode.ONE_VOTE_OR).count() == 4
        assert fuse(pair, ArbitrationMode.TWO_VOTE_AND).count() == 0

    def test_hand_enumerated_4x4(self):
        a = mask_of([(0, 0), (0, 1)])
        b = mask_of([(0, 1), (1, 1)])
        pair = MaskPair(a, b)
        assert fuse(pair, ArbitrationMode.ONE_VOTE_OR).count() == 3
        assert fuse(pair, ArbitrationMode.TWO_VOTE_AND).count() == 1

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MaskPair(mask_of([], 4, 4), mask_of([], 5, 4))


class TestMetrics:
    def test_perfect_prediction(self, rng):
        gt = BinaryMask(rng.random((8, 8)) < 0.4)
        m = metrics(gt, gt)
        assert m.iou == 1.0 and m.fp_rate == 0.0 and m.fn_rate == 0.0

    def test_empty_prediction(self):
        gt = mask_of([(0, 0), (1, 1)])
        m = metrics(mask_of([]), gt)
        assert m.iou == 0.0 and m.fp_rate == 0.0 and m.fn_rate == 100.0

    def test_hand_enumerated_case(self):
        # gt 4 px; pred hits 3 of them plus 1 background px
        gt = mask_of([(0, 0), (1, 0), (2, 0), (3, 0)])
        pred = mask_of([(0, 0), (1, 0), (2, 0), (1, 1)])
        m = metrics(pred, gt)
        assert m.iou == pytest.approx(3 / 5)
        assert m.fn_rate == pytest.approx(25.0)
        assert m.fp_rate == pytest.approx(100.0 / 12)

    def test_empty_gt_raises(self):
        with pytest.raises(ValueError, match="fn rate undefined"):
            metrics(mask_of([(0, 0)]), mask_of([]))

    def test_rgb_only_is_exact_passthrough(self, rng):
        gt = BinaryMask(rng.random((10, 10)) < 0.5)
        a = BinaryMask(rng.random((10, 10)) < 0.5)
        b = BinaryMask(rng.random((10, 10)) < 0.5)
        fused = fuse(MaskPair(a, b), ArbitrationMode.RGB_ONLY)
        assert metrics(fused, gt) == metrics(a, gt)


def _random_pair_and_gt(rng, n=16):
    blobs = []
    for _ in range(3):
        cx, cy, r = rng.integers(2, n - 2), rng.integers(2, n - 2), rng.uniform(1.5, 4)
        yy, xx = np.mgrid[0:n, 0:n]
        blobs.append((xx - cx) ** 2 + (yy - cy) ** 2 < r ** 2)
    gt = BinaryMask(blobs[0])
    noisy = lambda base: BinaryMask(
        (base | (rng.random((n, n)) < 0.05)) & (rng.random((n, n)) > 0.05))
    return MaskPair(noisy(blobs[0] | blobs[1]), noisy(blobs[0] | blobs[2])), gt


class TestOrderingProperties:
    def test_lattice_ordering(self, rng):
        for _ in range(200):
            pair, _ = _random_pair_and_gt(rng)
            lo = fuse(pair, ArbitrationMode.TWO_VOTE_AND).data
            hi = fuse(pair, ArbitrationMode.ONE_VOTE_OR).data
            for mid in (pair.rgb_mask.data, pair.depth_mask.data):
                assert not (lo & ~mid).any()
                assert not (mid & ~hi).any()

    def test_fn_or_and_fp_and_are_minimal(self, rng):
        for _ in range(1000):
            pair, gt = _random_pair_and_gt(rng)
            if gt.count() == 0:
                continue
            m_rgb = metrics(pair.rgb_mask, gt)
            m_dep = metrics(pair.depth_mask, gt)
            m_or = metrics(fuse(pair, ArbitrationMode.ONE_VOTE_OR), gt)
            m_and = metrics(fuse(pair, ArbitrationMode.TWO_VOTE_AND), gt)
            assert m_or.fn_rate <= min(m_rgb.fn_rate, m_dep.fn_rate) + 1e-12
            assert m_and.fp_rate <= min(m_rgb.fp_rate, m_dep.fp_rate) + 1e-12


class TestApplyMask:
    """The fused mask is applied by back-projection."""

    def test_masked_backprojection_count(self, rng):
        intr = CameraIntrinsics(100, 100, 32, 24, 64, 48)
        data = (rng.random((48, 64)) < 0.6).astype(np.uint16) * 1200
        fg = rng.random((48, 64)) < 0.5
        mask = BinaryMask(fg)
        depth = DepthImage(data)
        cloud = back_project(depth, intr, ColorImage(np.zeros((48, 64, 3), np.uint8)), mask)
        assert len(cloud) == int((fg & (data > 0)).sum())


class TestLoadMasks:
    def _write(self, directory, dev, suffix, data):
        """An 8-bit PGM of ``data`` as written by hand, so gray values reach the reader."""
        h, w = data.shape
        (directory / f"{dev}_{suffix}.pgm").write_bytes(f"P5\n{w} {h}\n255\n".encode()
                                                         + data.tobytes())

    def test_loads_complete_pairs(self, tmp_path, rng):
        for dev in range(8):
            data = ((rng.random((6, 6)) < 0.5) * 255).astype(np.uint8)
            self._write(tmp_path, dev, "rgbmask", data)
            self._write(tmp_path, dev, "depthmask", data)
        out = load_masks(tmp_path, range(8))
        assert sorted(out) == list(range(8))

    def test_non_binary_value_rejected(self, tmp_path):
        self._write(tmp_path, 0, "rgbmask", np.full((4, 4), 128, np.uint8))
        self._write(tmp_path, 0, "depthmask", np.zeros((4, 4), np.uint8))
        with pytest.raises(ValueError, match="non-binary"):
            load_masks(tmp_path, [0])

    def test_missing_file_names_device(self, tmp_path):
        self._write(tmp_path, 3, "rgbmask", np.zeros((4, 4), np.uint8))
        with pytest.raises(FileNotFoundError, match="device 3"):
            load_masks(tmp_path, [3])


@settings(max_examples=100)
@given(st.integers(0, 2 ** 32 - 1))
def test_lattice_property_hypothesis(seed):
    rng = np.random.default_rng(seed)
    a = BinaryMask(rng.random((5, 5)) < 0.5)
    b = BinaryMask(rng.random((5, 5)) < 0.5)
    pair = MaskPair(a, b)
    lo = fuse(pair, ArbitrationMode.TWO_VOTE_AND).data
    hi = fuse(pair, ArbitrationMode.ONE_VOTE_OR).data
    assert not (lo & ~a.data).any()
    assert not (a.data & ~hi).any()
