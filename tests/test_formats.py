import numpy as np
import pytest

from conftest import MALFORMED_PLY
from tofscan.formats import (decode_mask_pgm, decode_pgm16, decode_ppm, encode_mask_pgm,
                             encode_pgm16, encode_ppm, read_ply, write_ply)
from tofscan.geometry import BinaryMask, ColorImage, DepthImage, PointCloud


def test_pgm16_round_trip(rng):
    data = (rng.random((24, 32)) * 65535).astype(np.uint16)
    img = DepthImage(data)
    out = decode_pgm16(encode_pgm16(img))
    assert np.array_equal(out.data, data)


def test_pgm16_samples_are_big_endian():
    img = DepthImage(np.array([[0x1234]], dtype=np.uint16))
    buf = encode_pgm16(img)
    assert buf.endswith(b"\x12\x34")


def test_pgm16_header_and_comment_handling():
    buf = b"P5\n# a comment\n2 1\n65535\n" + b"\x00\x01\x00\x02"
    img = decode_pgm16(buf)
    assert img.width == 2 and img.data.tolist() == [[1, 2]]


def test_pgm16_truncated_raises():
    img = DepthImage(np.ones((4, 4), np.uint16))
    with pytest.raises(ValueError, match="truncated"):
        decode_pgm16(encode_pgm16(img)[:-3])


def test_ppm_round_trip(rng):
    data = (rng.random((8, 6, 3)) * 255).astype(np.uint8)
    img = ColorImage(data)
    assert np.array_equal(decode_ppm(encode_ppm(img)).data, data)


def test_mask_pgm_rejects_gray_values():
    buf = b"P5\n2 1\n255\n" + bytes([0, 128])
    with pytest.raises(ValueError, match="non-binary"):
        decode_mask_pgm(buf)


def test_mask_pgm_bytes():
    """Foreground is written as 255 and background as 0, row by row."""
    mask = BinaryMask(np.array([[False, True, False], [True, False, True]]))
    assert encode_mask_pgm(mask) == b"P5\n3 2\n255\n\x00\xff\x00\xff\x00\xff"


@pytest.mark.parametrize("decode, buf", [
    (decode_pgm16, b"P5\n-1 1\n65535\n" + bytes(4)),
    (decode_pgm16, b"P5\n-2 2\n65535\n" + bytes(8)),
    (decode_mask_pgm, b"P5\n-1 1\n255\n" + bytes(2)),
], ids=["depth-negative-width", "depth-negative-both", "mask-negative-width"])
def test_pnm_negative_size_rejected(decode, buf):
    with pytest.raises(ValueError, match="negative PNM size"):
        decode(buf)


def test_mask_pgm_round_trip():
    mask = BinaryMask(np.array([[0, 1, 0], [1, 0, 1]], bool))
    assert np.array_equal(decode_mask_pgm(encode_mask_pgm(mask)).data, mask.data)


def test_ply_cloud_round_trip(tmp_path, rng):
    n = 57
    normals = rng.standard_normal((n, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    cloud = PointCloud(rng.standard_normal((n, 3)), colors=rng.random((n, 3)),
                       normals=normals)
    path = tmp_path / "c.ply"
    write_ply(path, cloud)
    out = read_ply(path)
    assert out.points.tobytes() == cloud.points.tobytes()  # float64 storage
    np.testing.assert_allclose(out.colors, cloud.colors, atol=1 / 255)
    assert out.normals.tobytes() == cloud.normals.tobytes()  # float64, not re-normalized


def test_ply_float_normals_are_renormalized(tmp_path):
    """Normals stored as float come back at unit length in float64."""
    normal = np.array([0.6, 0.0, 0.8])
    rec = np.zeros(1, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                             ("nx", "<f4"), ("ny", "<f4"), ("nz", "<f4")])
    rec["nx"], rec["nz"] = normal[0], normal[2]
    path = tmp_path / "f.ply"
    path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                     + b"".join(f"property {t} {n}\n".encode() for t, n in
                                (("double", "x"), ("double", "y"), ("double", "z"),
                                 ("float", "nx"), ("float", "ny"), ("float", "nz")))
                     + b"end_header\n" + rec.tobytes())
    out = read_ply(path)
    assert out.normals.dtype == np.float64
    assert abs(np.linalg.norm(out.normals[0]) - 1.0) < 1e-15
    np.testing.assert_allclose(out.normals[0], normal, atol=1e-7)


def test_ply_mesh_round_trip(tmp_path, rng):
    verts = rng.standard_normal((10, 3))
    tris = rng.integers(0, 10, (7, 3))
    path = tmp_path / "m.ply"
    write_ply(path, vertices=verts, triangles=tris)
    v, t = read_ply(path)
    assert v.tobytes() == verts.tobytes()
    assert np.array_equal(t, tris)


def test_ply_header_is_binary_little_endian(tmp_path):
    path = tmp_path / "h.ply"
    write_ply(path, PointCloud(np.zeros((1, 3))))
    header = path.read_bytes().split(b"end_header")[0].decode()
    assert "format binary_little_endian 1.0" in header
    assert "property double x" in header



@pytest.mark.parametrize("case", sorted(MALFORMED_PLY))
def test_read_ply_names_malformed_header(tmp_path, case):
    data, named = MALFORMED_PLY[case]
    path = tmp_path / "bad.ply"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=named):
        read_ply(path)
