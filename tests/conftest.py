import copy
import functools
import operator
import re

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from tofscan import parallel
from tofscan.geometry import RigidTransform
from tofscan.reconstruction import TriangleMesh
from tofscan.render import SensorModel
from tofscan.rigs import default_intrinsics, look_at
from tofscan.scene import Scene, box

# examples render, solve and serve, so the suite's Hypothesis tests run without a deadline
settings.register_profile("tofscan", deadline=None)
settings.load_profile("tofscan")


def pose_error(t: RigidTransform, t_ref: RigidTransform):
    """(rotation error degrees, translation error meters)."""
    dr = t.rotation.T @ t_ref.rotation
    ang = np.degrees(np.arccos(np.clip((np.trace(dr) - 1) / 2, -1.0, 1.0)))
    return float(ang), float(np.linalg.norm(t.translation - t_ref.translation))


TAG_SQUARE = np.array([[0, 0, 1], [0.1, 0, 1], [0.1, 0.1, 1], [0, 0.1, 1]], dtype=float)


def unmoved_tags(devices):
    """``(fiducials, layout)`` for ``register_rig``: a one-tag layout that each of
    ``devices`` sees where the layout has it, so every cube pose is the identity."""
    layout = {0: TAG_SQUARE}
    return dict.fromkeys(devices, layout), layout


def worst_pose_error(cfg, graph):
    """(degrees, meters): the largest rotation and translation errors of the graph's
    global poses against the rig's extrinsics, in the reference camera's frame."""
    extrinsics = {s.device_id: s.pose for s in cfg.rig}
    to_reference = extrinsics[graph.reference].invert()
    errors = [pose_error(pose, to_reference.compose(extrinsics[dev]))
              for dev, pose in graph.global_poses.items()]
    return max(e[0] for e in errors), max(e[1] for e in errors)


def target_surface_count(cloud_points: np.ndarray, scene: Scene, tol: float = 0.02) -> int:
    """Points within ``tol`` of the true target surface (spurious ranges excluded)."""
    if len(cloud_points) == 0:
        return 0
    d = scene.sdf(cloud_points, labels=("target",))
    return int((np.abs(d) <= tol).sum())


def close_to_box_face():
    """A 3 m x 0.6 m x 0.6 m target box and a 320 x 240 sensor 0.1 m from its +y face.

    Every ray of the sensor meets the face, yet neither a corner nor the centre
    of the box projects into the raster.
    """
    scene = Scene((box((1.5, 0.3, 0.3), pose=RigidTransform(np.eye(3), (0, 0, 1.0))),), 5.0)
    return scene, SensorModel(0, default_intrinsics(), look_at((0.9, 0.4, 1.0), (0.9, 0.0, 1.0)))


def triangle_corners(mesh: TriangleMesh):
    """The (T, 3) first, second and third corner of every triangle."""
    v, t = mesh.vertices, mesh.triangles
    return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]


_PLY_HEAD = b"ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
_PLY_XYZ = b"property float x\nproperty float y\nproperty float z\n"


def _ply_with_second_normal(normal) -> bytes:
    """A two-point cloud of double coordinates and normals: (0, 0, 1), then ``normal``."""
    head = _PLY_HEAD.replace(b"vertex 3", b"vertex 2") + b"".join(
        b"property double %s\n" % axis for axis in (b"x", b"y", b"z", b"nx", b"ny", b"nz"))
    return head + b"end_header\n" + np.array([0, 0, 0, 0, 0, 1, 0, 0, 0, *normal], "<f8").tobytes()


def _ply_with_second_vertex(vertex, face: bool) -> bytes:
    """Three float vertices, the second ``vertex``, and one face of them if ``face``."""
    verts = np.array([[0, 0, 0], vertex, [0, 1, 0]], "<f4").tobytes()
    if not face:
        return _PLY_HEAD + _PLY_XYZ + b"end_header\n" + verts
    return (_PLY_HEAD + _PLY_XYZ + b"element face 1\nproperty list uchar uint vertex_indices\n"
            b"end_header\n" + verts + b"\x03" + np.array([0, 1, 2], "<u4").tobytes())


# name -> (file bytes, the defect read_ply names)
MALFORMED_PLY = {
    "only-end-header": (b"end_header\n", "not 'ply'"),
    "blank-line": (_PLY_HEAD + b"\n" + _PLY_XYZ + b"end_header\n" + bytes(36), "blank line"),
    "property-without-name": (_PLY_HEAD + b"property float\nend_header\n" + bytes(36),
                              "incomplete PLY header line 'property float'"),
    "unsupported-type": (_PLY_HEAD + _PLY_XYZ.replace(b"float x", b"int x") + b"end_header\n"
                         + bytes(36), "unsupported vertex property type 'int'"),
    "negative-count": (_PLY_HEAD.replace(b"vertex 3", b"vertex -1") + _PLY_XYZ
                       + b"end_header\n" + bytes(48), "negative PLY element count"),
    "face-index-out-of-range": (
        _PLY_HEAD + _PLY_XYZ + b"element face 1\nproperty list uchar uint vertex_indices\n"
        b"end_header\n" + bytes(36) + b"\x03" + np.array([0, 1, 5], "<u4").tobytes(),
        "vertex 5 of 3"),
    "face-int-count": (
        _PLY_HEAD + _PLY_XYZ + b"element face 1\nproperty list int int vertex_indices\n"
        b"end_header\n" + bytes(36) + np.array([3, 0, 1, 2], "<i4").tobytes(),
        "unsupported PLY face property 'property list int int vertex_indices'"),
    "second-face-property": (
        _PLY_HEAD + _PLY_XYZ + b"element face 1\nproperty list uchar uint vertex_indices\n"
        b"property uchar flags\nend_header\n" + bytes(36) + b"\x03"
        + np.array([0, 1, 2], "<u4").tobytes() + b"\x00",
        "unsupported PLY face property 'property uchar flags'"),
    "vertex-without-x": (_PLY_HEAD + _PLY_XYZ.replace(b"property float x\n", b"")
                         + b"end_header\n" + bytes(24), "PLY vertex element has no 'x' property"),
    **{f"{name}-normal": (_ply_with_second_normal(normal),
                          "vertex 1 has a normal that is not a finite unit vector")
       for name, normal in (("nan", (np.nan, 0.0, 1.0)), ("zero", (0.0, 0.0, 0.0)),
                            ("non-unit", (0.0, 0.0, 1.0 + 1e-8)))},
    "nan-vertex": (_ply_with_second_vertex((1.0, np.nan, 0.0), face=True),
                   "PLY vertex 1 has a non-finite coordinate"),
    "inf-point": (_ply_with_second_vertex((1.0, 0.0, np.inf), face=False),
                  "PLY vertex 1 has a non-finite coordinate"),
}


def _locations(value, at=()):
    """Every location inside a JSON value, as tuples of object keys and list indices."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield at + (key,)
        yield from _locations(child, at + (key,))


def _other_types(value) -> list:
    """Values of another JSON type: bool or float for an integer, string or bool for a number."""
    if isinstance(value, bool):
        return [1, "true"]
    if isinstance(value, int):
        return [True, value + 0.5, str(value)]
    if isinstance(value, float):
        return [str(value), True]
    return [1, None] if isinstance(value, str) else [1.5, "x"]


@st.composite
def json_mutants(draw, doc):
    """``(location, mutant)``: ``doc`` with one object key dropped, one value's JSON type
    swapped, or the whole document wrapped in a list (location ``()``)."""
    how = draw(st.sampled_from(("drop", "swap", "wrap")))
    if how == "wrap":
        return (), [doc]
    at = draw(st.sampled_from([at for at in _locations(doc)
                               if how == "swap" or isinstance(at[-1], str)]))
    mutant = copy.deepcopy(doc)
    parent = functools.reduce(operator.getitem, at[:-1], mutant)
    if how == "drop":
        del parent[at[-1]]
    else:
        parent[at[-1]] = draw(st.sampled_from(_other_types(parent[at[-1]])))
    return at, mutant


def assert_names_key_path(message: str, root: str, at: tuple) -> None:
    """``message`` opens with a key path from ``root`` that contains, or lies inside, the
    mutated location ``at``, then ``": "``."""
    named = re.match(rf"{re.escape(root)}(\[\d+\]|\.\w+)*(?=: )", message)
    assert named, message
    mutated = root + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in at)
    assert mutated.startswith(named[0]) or named[0].startswith(mutated), (named[0], mutated)


def assert_json_types_kept(original, mutant, read) -> None:
    """What a reader took from ``mutant`` and gave back as ``read`` keeps the JSON types of
    ``original`` (an integer and a float both being numbers) wherever all three hold a value."""
    def kind(value):
        return "number" if type(value) in (int, float) else type(value).__name__

    for at in _locations(mutant):
        try:
            was, now = (functools.reduce(operator.getitem, at, doc) for doc in (original, read))
        except (KeyError, IndexError, TypeError):
            continue
        assert kind(now) == kind(was), at


def unit_cube_mesh() -> TriangleMesh:
    """12-triangle unit cube [0,1]^3 with outward CCW winding."""
    v = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float)
    # rings around each face plus the face's outward normal
    faces = [
        ((0, 1, 3, 2), (-1, 0, 0)), ((4, 5, 7, 6), (1, 0, 0)),
        ((0, 1, 5, 4), (0, -1, 0)), ((2, 3, 7, 6), (0, 1, 0)),
        ((0, 2, 6, 4), (0, 0, -1)), ((1, 3, 7, 5), (0, 0, 1)),
    ]
    tris = []
    for ring, n in faces:
        for tri in ([ring[0], ring[1], ring[2]], [ring[0], ring[2], ring[3]]):
            a, b, c = v[tri[0]], v[tri[1]], v[tri[2]]
            if np.cross(b - a, c - a) @ np.array(n) < 0:
                tri = [tri[0], tri[2], tri[1]]
            tris.append(tri)
    mesh = TriangleMesh(v, np.array(tris))
    corners = triangle_corners(mesh)
    assert np.einsum("ij,ij->i", corners[0],
                     np.cross(corners[1], corners[2])).sum() / 6.0 > 0
    return mesh


def tetrahedron_mesh() -> TriangleMesh:
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    t = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return TriangleMesh(v, t)


def icosphere(subdivisions: int = 4, radius: float = 1.0) -> TriangleMesh:
    phi = (1 + np.sqrt(5)) / 2
    v = np.array([[-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
                  [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
                  [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1]], dtype=float)
    v /= np.linalg.norm(v[0])
    t = np.array([[0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
                  [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
                  [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
                  [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]])
    verts = list(map(tuple, v))
    index = {w: i for i, w in enumerate(verts)}

    def midpoint(i, j):
        m = tuple((np.array(verts[i]) + np.array(verts[j])) / 2)
        if m not in index:
            index[m] = len(verts)
            verts.append(m)
        return index[m]

    tris = t.tolist()
    for _ in range(subdivisions):
        new = []
        for a, b, c in tris:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        tris = new
    out = np.array(verts)
    out = radius * out / np.linalg.norm(out, axis=1)[:, None]
    return TriangleMesh(out, np.array(tris))


def torus_grid_mesh(n: int = 8, big_r: float = 1.0, small_r: float = 0.3) -> TriangleMesh:
    """n x n parametric torus grid, closed in both directions."""
    verts = []
    for i in range(n):
        u = 2 * np.pi * i / n
        for j in range(n):
            w = 2 * np.pi * j / n
            verts.append([(big_r + small_r * np.cos(w)) * np.cos(u),
                          (big_r + small_r * np.cos(w)) * np.sin(u),
                          small_r * np.sin(w)])
    tris = []
    for i in range(n):
        for j in range(n):
            a = i * n + j
            b = ((i + 1) % n) * n + j
            c = ((i + 1) % n) * n + (j + 1) % n
            d = i * n + (j + 1) % n
            tris += [[a, b, c], [a, c, d]]
    return TriangleMesh(np.array(verts), np.array(tris))


def sampled_mesh_points(mesh: TriangleMesh, n: int, seed: int = 0):
    """Uniform area-weighted surface samples with face normals."""
    rng = np.random.default_rng(seed)
    a, b, c = triangle_corners(mesh)
    cross = np.cross(b - a, c - a)
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    probs = areas / areas.sum()
    pick = rng.choice(len(areas), size=n, p=probs)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1
    u[flip] = 1 - u[flip]
    v[flip] = 1 - v[flip]
    pts = a[pick] + u[:, None] * (b - a)[pick] + v[:, None] * (c - a)[pick]
    normals = cross[pick] / np.linalg.norm(cross[pick], axis=1)[:, None]
    return pts, normals


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def workers(monkeypatch):
    """Set the map pool's worker count (0 runs every map inline) on a fresh pool."""
    def set_workers(n: int):
        if parallel._executor is not None and parallel._executor is not original:
            parallel._executor.shutdown()
        monkeypatch.setattr(parallel, "WORKERS", n)
        monkeypatch.setattr(parallel, "_executor", None)

    original = parallel._executor
    yield set_workers
    if parallel._executor is not None and parallel._executor is not original:
        parallel._executor.shutdown()
