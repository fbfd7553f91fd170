"""On-disk and on-wire encodings: binary PLY, 16-bit PGM (P5) and PPM (P6).

PGM stores 16-bit samples big-endian (most significant byte first, as the
netpbm spec requires for maxval > 255); PLY is binary little-endian with
float64 coordinates and normals, so a session's clouds read back as the run
registered them, and optional uchar RGB.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .geometry import BinaryMask, ColorImage, DepthImage, PointCloud
from .reconstruction import TriangleMesh

__all__ = [
    "encode_pgm16", "decode_pgm16",
    "encode_ppm", "decode_ppm",
    "write_ply", "read_ply",
    "encode_mask_pgm", "decode_mask_pgm",
]


# after the magic: width, height and maxval as ASCII decimal tokens, each ended by
# whitespace, with whitespace or '#' comment lines before each; one whitespace byte ends it
_GAP = rb"(?:\s|#[^\n]*\n)"
_PNM_HEADER = re.compile(rb"%s*(-?\d+)\s%s*(-?\d+)\s%s*(\d+)\s" % (_GAP, _GAP, _GAP))


def _read_pnm_header(buf: bytes, magic: bytes):
    """Parse a 'P5'/'P6' header; returns (w, h, maxval, offset of the first sample)."""
    if not buf.startswith(magic):
        raise ValueError(f"not a {magic.decode()} file (got {buf[:2]!r})")
    m = _PNM_HEADER.match(buf, len(magic))
    if m is None:
        raise ValueError("malformed or truncated PNM header: expected width, height and "
                         "maxval as decimal numbers, then one whitespace byte")
    w, h, maxval = map(int, m.groups())
    if w < 0 or h < 0:
        raise ValueError(f"negative PNM size {w}x{h}")
    return w, h, maxval, m.end()


def _encode_pnm(magic: str, data: np.ndarray) -> bytes:
    """Header plus raw samples of (height, width[, 3]) ``data``; 8- or 16-bit sets the maxval."""
    h, w = data.shape[:2]
    return f"{magic}\n{w} {h}\n{256 ** data.itemsize - 1}\n".encode() + data.tobytes()


def _decode_pnm(buf: bytes, magic: bytes, dtype: str) -> np.ndarray:
    """Samples of a P5 (h, w) or P6 (h, w, 3) image; ``dtype``'s 8 or 16 bits set the maxval."""
    kind, channels = ("PGM", 1) if magic == b"P5" else ("PPM", 3)
    size = np.dtype(dtype).itemsize
    w, h, maxval, off = _read_pnm_header(buf, magic)
    if maxval != 256 ** size - 1:
        raise ValueError(f"expected {8 * size}-bit {kind} (maxval {256 ** size - 1}), "
                         f"got {maxval}")
    if len(buf) - off < w * h * channels * size:
        raise ValueError(f"truncated {kind} payload")
    data = np.frombuffer(buf, dtype=dtype, count=w * h * channels, offset=off)
    return data.reshape((h, w, 3) if channels == 3 else (h, w))


def encode_pgm16(img: DepthImage) -> bytes:
    return _encode_pnm("P5", img.data.astype(">u2"))


def decode_pgm16(buf: bytes) -> DepthImage:
    data = _decode_pnm(buf, b"P5", ">u2")
    return DepthImage(data.astype(np.uint16))


def encode_mask_pgm(mask: BinaryMask) -> bytes:
    """8-bit PGM with foreground 255 and background 0."""
    return _encode_pnm("P5", mask.data * np.uint8(255))


def decode_mask_pgm(buf: bytes) -> BinaryMask:
    """Foreground where the 8-bit PGM holds 255; any value but 0 and 255 is refused."""
    data = _decode_pnm(buf, b"P5", "u1")
    fg = data == 255
    bad = ~fg & (data != 0)
    if bad.any():
        raise ValueError(f"mask contains non-binary values {np.unique(data[bad])[:8].tolist()}")
    return BinaryMask(fg)


def encode_ppm(img: ColorImage) -> bytes:
    return _encode_pnm("P6", img.data)


def decode_ppm(buf: bytes) -> ColorImage:
    data = _decode_pnm(buf, b"P6", "u1")
    return ColorImage(data.copy())


# --- PLY ---------------------------------------------------------------

def write_ply(path, data: PointCloud | TriangleMesh) -> None:
    """Write a point cloud, with its colours and normals if it has them, or a triangle mesh."""
    if isinstance(data, TriangleMesh):
        verts, colors, normals, tris = data.vertices, None, None, data.triangles
    else:
        verts, colors, normals, tris = data.points, data.colors, data.normals, None

    lines = ["ply", "format binary_little_endian 1.0", f"element vertex {len(verts)}"]
    lines += ["property double x", "property double y", "property double z"]
    fields = [("x", "<f8"), ("y", "<f8"), ("z", "<f8")]
    if colors is not None:
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
        fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
    if normals is not None:
        lines += ["property double nx", "property double ny", "property double nz"]
        fields += [("nx", "<f8"), ("ny", "<f8"), ("nz", "<f8")]
    if tris is not None:
        lines += [f"element face {len(tris)}", "property list uchar uint vertex_indices"]
    lines.append("end_header")

    rec = np.zeros(len(verts), dtype=np.dtype(fields))
    rec["x"], rec["y"], rec["z"] = verts[:, 0], verts[:, 1], verts[:, 2]
    if colors is not None:
        rgb = np.clip(np.round(colors * 255.0), 0, 255).astype(np.uint8)
        rec["red"], rec["green"], rec["blue"] = rgb[:, 0], rgb[:, 1], rgb[:, 2]
    if normals is not None:
        rec["nx"], rec["ny"], rec["nz"] = normals[:, 0], normals[:, 1], normals[:, 2]

    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode())
        f.write(rec.tobytes())
        if tris is not None:
            face = np.zeros(len(tris), dtype=_PLY_FACE_DTYPE)
            face["n"] = 3
            face["i"] = tris
            f.write(face.tobytes())


_PLY_TYPES = {"double": "<f8", "float": "<f4", "uchar": "u1"}  # vertex property types read
# the one face property read; "int" indices, as other tools write them, are the same bytes
_PLY_FACE_PROPERTIES = {f"property list uchar {t} vertex_indices" for t in ("uint", "int")}
_PLY_FACE_DTYPE = np.dtype([("n", "u1"), ("i", "<u4", (3,))])
_UNIT_NORMAL_TOL = 1e-9  # largest | |n| - 1 | of a normal read


def read_ply(path) -> PointCloud | TriangleMesh:
    """Read a binary-little-endian PLY written by :func:`write_ply`.

    Returns a TriangleMesh when the file has a face element, else a PointCloud.
    """
    buf = Path(path).read_bytes()
    end = buf.find(b"end_header\n")
    if end < 0:
        raise ValueError("PLY header has no end_header line")
    end += len(b"end_header\n")
    header = buf[:end].decode().splitlines()
    if header[0] != "ply":
        raise ValueError(f"PLY header starts with {header[0]!r}, not 'ply'")
    if header[1] != "format binary_little_endian 1.0":
        raise ValueError(f"unsupported PLY format line: {header[1]}")
    n_vert, n_face, face_indices = 0, None, False
    props = []
    element = None
    for line in header[2:-1]:
        parts = line.split()
        if not parts:
            raise ValueError("blank line in PLY header")
        if parts[0] in ("element", "property") and len(parts) < 3:
            raise ValueError(f"incomplete PLY header line {line!r}")
        if parts[0] == "element":
            element = parts[1]
            count = int(parts[2])
            if count < 0:
                raise ValueError(f"negative PLY element count in {line!r}")
            if element == "vertex":
                n_vert = count
            elif element == "face":
                n_face = count
        elif parts[0] == "property" and element == "vertex":
            if parts[1] == "list":
                raise ValueError("list property on vertex element is unsupported")
            if parts[1] not in _PLY_TYPES:
                raise ValueError(f"unsupported vertex property type {parts[1]!r}")
            props.append((parts[2], _PLY_TYPES[parts[1]]))
        elif parts[0] == "property" and element == "face":
            if face_indices or " ".join(parts) not in _PLY_FACE_PROPERTIES:
                raise ValueError(f"unsupported PLY face property {line!r}: a face holds one "
                                 f"'property list uchar uint|int vertex_indices'")
            face_indices = True
    names = [p[0] for p in props]
    for axis in "xyz":
        if axis not in names:
            raise ValueError(f"PLY vertex element has no {axis!r} property")
    rec = np.frombuffer(buf, dtype=np.dtype(props), count=n_vert, offset=end)
    pts = np.column_stack([rec["x"], rec["y"], rec["z"]]).astype(np.float64)
    if n_face is not None:
        if not face_indices:
            raise ValueError("PLY face element has no vertex_indices property")
        faces = np.frombuffer(buf, dtype=_PLY_FACE_DTYPE, count=n_face, offset=end + rec.nbytes)
        if not np.all(faces["n"] == 3):
            raise ValueError("non-triangular face in PLY")
        tris = faces["i"].astype(np.int64)
        if n_face and tris.max() >= n_vert:
            raise ValueError(f"PLY face names vertex {tris.max()} of {n_vert}")
        return TriangleMesh(pts, tris)
    colors = None
    if "red" in names:
        colors = np.column_stack([rec["red"], rec["green"], rec["blue"]]).astype(np.float64) / 255.0
    normals = None
    if "nx" in names:
        normals = np.column_stack([rec["nx"], rec["ny"], rec["nz"]]).astype(np.float64)
        if rec.dtype["nx"] == np.float32:  # re-normalized after float rounding
            lens = np.linalg.norm(normals, axis=1)
            lens[lens == 0] = 1.0
            normals = normals / lens[:, None]
        # refused, not re-normalized: a double normal is used exactly as stored
        off_unit = ~(np.abs(np.linalg.norm(normals, axis=1) - 1.0) <= _UNIT_NORMAL_TOL)
        if off_unit.any():
            raise ValueError(f"PLY vertex {np.argmax(off_unit)} has a normal that is not "
                             f"a finite unit vector")
    return PointCloud(pts, colors=colors, normals=normals)
