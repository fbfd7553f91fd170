"""Command-line entry points.

    tofscan serve       run one device server (simulated embedded board)
    tofscan scan        configure + trigger + fetch from running servers
    tofscan segment     fuse masks for a session and score them against ground truth
    tofscan register    chain-register a session's per-device clouds
    tofscan reconstruct Poisson-reconstruct a merged cloud into a mesh
    tofscan measure     surface area / volume of a mesh file
    tofscan experiment  run the known-object / interference / animal studies
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .jsondoc import is_kind


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tofscan", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run a device server")
    p.add_argument("--device-id", type=int, required=True)
    p.add_argument("--rig", required=True, help="rig JSON file")
    p.add_argument("--scene", required=True, help="scene JSON file")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--host", default="127.0.0.1")

    p = sub.add_parser("scan", help="trigger a scan against running servers")
    p.add_argument("--endpoints", required=True, help="comma-separated host:port list")
    p.add_argument("--cattle-id", default="")
    p.add_argument("--delay-us", type=int, default=160)
    p.add_argument("--exposure-us", type=int, default=125)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("segment", help="fuse and score session masks")
    p.add_argument("--session", required=True)
    p.add_argument("--mode", default="or", choices=["or", "and", "rgb", "depth"])
    p.add_argument("--masks", default=None, help="directory of <dev>_rgbmask/_depthmask PGMs")

    p = sub.add_parser("register", help="register a session's clouds")
    p.add_argument("--session", required=True, help="a run's session directory, "
                   "with clouds/<dev>.ply and calibration.json")

    p = sub.add_parser("reconstruct", help="Poisson reconstruction of a cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--resolution", type=int, default=192)
    p.add_argument("--out", required=True)

    p = sub.add_parser("measure", help="measure a mesh PLY")
    p.add_argument("--mesh", required=True)

    p = sub.add_parser("experiment", help="run a study")
    p.add_argument("kind", choices=["known-object", "interference", "animal"])
    p.add_argument("--config", default=None, help="JSON overrides")
    p.add_argument("--out", required=True, help="report CSV path")

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except _InputError as e:
        print(e, file=sys.stderr)
        return 2


class _InputError(Exception):
    """A flag, file or device named on the command line holds a value the command
    refuses, or could not be read or reached."""


def _read(loader, path):
    """``loader(path)``, with a missing or malformed file raised as an _InputError naming it."""
    try:
        return loader(path)
    except (OSError, ValueError) as e:
        raise _InputError(f"cannot read {path}: {e}") from e


def _device_files(directory: Path, suffix: str) -> dict[int, Path]:
    """Device id -> ``directory/<id><suffix>``, for each file whose stem is an id as the
    program writes it: ``7``, and not ``007`` or ``old``."""
    stems = {f.name.removesuffix(suffix): f for f in sorted(directory.glob(f"*{suffix}"))}
    return {int(stem): f for stem, f in stems.items()
            if stem.isdecimal() and str(int(stem)) == stem}


def _cmd_serve(args) -> int:
    from .acquisition import DeviceServer
    from .render import load_rig
    from .scene import load_scene

    _check_flag("--port", args.port, _PORT)
    rig = _read(load_rig, args.rig)
    sensors = {s.device_id: s for s in rig}
    if args.device_id not in sensors:
        raise _InputError(f"device {args.device_id} not in rig file")
    server = DeviceServer(args.device_id, sensors[args.device_id],
                          scene=_read(load_scene, args.scene), rig=rig)
    try:
        server.start_background(args.host, args.port).join()
    except KeyboardInterrupt:
        pass
    except OSError as e:  # the port is taken, the host is not this machine's, ...
        raise _InputError(f"cannot listen on {args.host}:{args.port}: {e}") from e
    return 0


def _cmd_scan(args) -> int:
    from .acquisition import DeviceError, IntegrityError, ScanClient, save_session
    from .capture import build_schedule
    from .protocol import ProtocolError

    _check_flag("--delay-us", args.delay_us, _NON_NEGATIVE_INT)
    _check_flag("--exposure-us", args.exposure_us, _POSITIVE_INT)
    endpoints = [e.strip() for e in args.endpoints.split(",") if e.strip()]
    if not endpoints:
        raise _InputError(f"--endpoints {args.endpoints!r} names no host:port")
    out = Path(args.out)
    client = ScanClient()
    # each run is a new client: number its session after the highest already in --out
    client.next_session = 1 + max((int(p.stem[4:]) for p in out.glob("scan*.json")
                                   if p.stem[4:].isdecimal()), default=0)
    answered = {}  # device id -> the endpoint that answered as it
    for ep in endpoints:
        try:
            dev = client.hello(ep)["device_id"]
        except (OSError, DeviceError, ProtocolError, ValueError) as e:
            raise _InputError(f"device at {ep} unreachable: {e}") from e
        if dev in answered:
            raise _InputError(f"device id {dev} answers at both {answered[dev]} and {ep}")
        answered[dev] = ep
    failures = (OSError, DeviceError, ProtocolError, IntegrityError)
    schedule = build_schedule(list(answered), args.delay_us, args.exposure_us)
    try:
        client.configure_all(endpoints, schedule)
    except failures as e:
        raise _InputError(f"CONFIGURE failed: {e}") from e
    session = client.trigger_scan(endpoints, cattle_id=args.cattle_id,
                                  schedule=schedule, seed=args.seed)
    out.mkdir(parents=True, exist_ok=True)
    save_session(out / f"{session.session_id}.json", session)
    if not session.complete:
        print(f"session incomplete; failed: {session.failed}", file=sys.stderr)
        return 1
    try:
        paths = client.fetch_frames(session, out)
    except failures as e:
        print(f"FETCH failed for {session.session_id}: {e}", file=sys.stderr)
        return 1
    cattle = f"cattle {session.cattle_id}, " if session.cattle_id else ""
    print(f"{session.session_id}: {cattle}"
          f"{len(session.manifest)} devices, {len(paths)} files under {out}")
    return 0


def _cmd_segment(args) -> int:
    from .formats import decode_mask_pgm, encode_mask_pgm
    from .geometry import check_size
    from .segmentation import ArbitrationMode, MaskPair, fuse, metrics

    session = Path(args.session)
    mode = ArbitrationMode(args.mode)
    gt_dir = session / "masks"
    gts = {dev: _read(lambda p: decode_mask_pgm(p.read_bytes()), f)
           for dev, f in _device_files(gt_dir, "_gtmask.pgm").items()}
    if not gts:
        raise _InputError(f"no ground-truth masks under {gt_dir}")

    def read_sized(path, dev):
        """The mask PGM at ``path``, refused unless it is the size of ``dev``'s ground truth."""
        mask = decode_mask_pgm(path.read_bytes())
        check_size("mask", mask, str(gt_dir / f"{dev}_gtmask.pgm"), gts[dev])
        return mask

    if args.masks:
        given = Path(args.masks)
        pairs = {dev: MaskPair(_read(lambda p: read_sized(p, dev), given / f"{dev}_rgbmask.pgm"),
                               _read(lambda p: read_sized(p, dev), given / f"{dev}_depthmask.pgm"))
                 for dev in gts}
    else:
        pairs = {dev: MaskPair(gt, gt) for dev, gt in gts.items()}
    rows = ["device_id,iou,fp_rate,fn_rate"]
    for dev, gt in gts.items():
        fused = fuse(pairs[dev], mode)
        (gt_dir / f"{dev}_fused.pgm").write_bytes(encode_mask_pgm(fused))
        if gt.count():
            m = metrics(fused, gt)
            rows.append(f"{dev},{m.iou:.6f},{m.fp_rate:.4f},{m.fn_rate:.4f}")
    out = session / "segmetrics.csv"
    out.write_text("\n".join(rows) + "\n")
    print(f"wrote {out} ({len(rows) - 1} devices, mode {mode.value})")
    return 0


def _cmd_register(args) -> int:
    from .formats import read_ply, write_ply
    from .geometry import PointCloud
    from .registration import load_calibration, merge_clouds, register_rig, save_pose_graph

    def read_colored_cloud(path):
        cloud = read_ply(path)
        if not isinstance(cloud, PointCloud):
            raise ValueError("a mesh PLY, not a point cloud")
        if cloud.colors is None:
            raise ValueError("a point cloud without colours, which colored ICP needs")
        return cloud

    session = Path(args.session)
    clouds = {dev: _read(read_colored_cloud, f)
              for dev, f in _device_files(session / "clouds", ".ply").items()}
    if not clouds:
        raise _InputError(f"no per-device clouds under {session}/clouds")
    calibration = session / "calibration.json"
    order, voxel, layout, fiducials = _read(load_calibration, calibration)
    if set(order) != set(clouds):
        raise _InputError(f"cannot read {calibration}: calibration.order: {order} does not "
                          f"name each of the devices {sorted(clouds)} with a cloud under "
                          f"{session}/clouds")
    graph = register_rig(clouds, fiducials, layout, voxel, order)
    save_pose_graph(session / "poses.json", graph)
    merged = merge_clouds(clouds, graph, dedup_voxel=voxel / 2)
    write_ply(session / "clouds" / "merged.ply", merged)
    print(f"registered {len(graph.global_poses)} devices "
          f"({len(graph.failed_edges)} failed edges) -> {session/'poses.json'}")
    return 0


def _cmd_reconstruct(args) -> int:
    from .formats import read_ply, write_ply
    from .geometry import PointCloud
    from .reconstruction import ReconstructionError, estimate_normals, poisson_reconstruct
    from .solver import SolverError

    _check_flag("--resolution", args.resolution, _RESOLUTION)
    cloud = _read(read_ply, args.cloud)
    if not isinstance(cloud, PointCloud):
        raise _InputError(f"{args.cloud} is a mesh PLY, not a point cloud")
    try:
        oriented = cloud if cloud.normals is not None else estimate_normals(cloud)
        mesh = poisson_reconstruct(oriented, resolution=args.resolution)
    except (ValueError, ReconstructionError, SolverError) as e:  # too few points, ...
        raise _InputError(f"cannot reconstruct {args.cloud}: {e}") from e
    write_ply(args.out, mesh)
    print(f"wrote {args.out}: {len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles")
    return 0


def _cmd_measure(args) -> int:
    from .formats import read_ply
    from .geometry import PointCloud
    from .metrology import NotWatertightError, surface_area, volume

    mesh = _read(read_ply, args.mesh)
    if isinstance(mesh, PointCloud):
        raise _InputError(f"{args.mesh} is a point-cloud PLY, not a mesh")
    print(f"surface_area_m2 {surface_area(mesh):.6f}")
    try:
        print(f"volume_m3 {volume(mesh):.8f}")
    except NotWatertightError as e:
        print(f"volume_m3 undefined (not watertight, {e.boundary_edges} boundary edges)")
    return 0


def _cmd_experiment(args) -> int:
    from dataclasses import replace

    from . import experiments as ex
    from .geometry import RigidTransform
    from .pipeline import RunConfig
    from .rigs import known_object_rig
    from .scene import make_animal_model, make_known_object_scene

    overrides = {}
    if args.config:
        overrides = _read(lambda p: json.loads(Path(p).read_text()), args.config)
        _check_overrides(args.config, args.kind, overrides)

    def configure(cfg):
        return replace(cfg, resolution=overrides.get("resolution", cfg.resolution))

    if args.kind == "interference":
        cfg = RunConfig(scene=ex.SYNC_SCENE, rig=known_object_rig())
        delays = overrides.get("delays_us", [0, 40, 80, 120, 160])
        retention = ex.run_interference_experiment(delays, cfg,
                                                   n_seeds=overrides.get("seeds", 20))
        ex.write_retention_report_csv(args.out, retention)
        for d in sorted(retention):
            print(f"delay {d:4d} us -> retention {retention[d]:.4f}")
        return 0
    if args.kind == "known-object":
        cyl = ex.KNOWN_CYLINDER
        cyl = replace(cyl, params=(overrides.get("radius", cyl.params[0]),
                                   overrides.get("height", cyl.params[1])))
        cfg = configure(ex.known_object_config(make_known_object_scene(cyl)))
        runs = overrides.get("runs", 3)
        orientations = ex.ORIENTATIONS[:overrides.get("orientations", len(ex.ORIENTATIONS))]
        reports = [ex.run_known_object_experiment("cylinder", cyl, runs, list(orientations),
                                                  cfg)]
        reports += [ex.run_known_object_experiment(f"box-{name}", prim, runs,
                                                   [RigidTransform.identity()], cfg)
                    for name, prim in ex.KNOWN_BOXES.items()]
    else:  # animal
        scale = overrides.get("scale", 1.0)
        cfg = configure(ex.animal_config(make_animal_model(scale)))
        reports = [ex.run_animal_experiment(scale, overrides.get("runs", 5), cfg)]
    failed = [rep.object_id for rep in reports if not rep.runs]
    if failed:
        print(f"every run failed for {', '.join(failed)}; no report written", file=sys.stderr)
        return 1
    ex.write_report_csv(args.out, *reports)
    for rep in reports:
        print(rep.summary())
    return 0


_POSITIVE_INT = ("a positive integer", lambda v: is_kind(v, "integer") and v >= 1)
_NON_NEGATIVE_INT = ("an integer >= 0", lambda v: is_kind(v, "integer") and v >= 0)
_POSITIVE = ("a positive number", lambda v: is_kind(v, "number") and v > 0)
_PORT = ("an integer in 0-65535", lambda v: 0 <= v <= 65535)
_RESOLUTION = ("an integer in 32-512", lambda v: is_kind(v, "integer") and 32 <= v <= 512)
# the keys each study reads from --config: key -> (what its value must be, test)
_OVERRIDES = {
    "interference": {
        "delays_us": ("a non-empty list of integers >= 0",
                      lambda v: is_kind(v, "list") and v != []
                      and all(_NON_NEGATIVE_INT[1](d) for d in v)),
        "seeds": _POSITIVE_INT},
    "known-object": {"radius": _POSITIVE, "height": _POSITIVE, "orientations": _POSITIVE_INT,
                     "runs": _POSITIVE_INT, "resolution": _RESOLUTION},
    "animal": {"scale": _POSITIVE,
               "runs": ("an integer >= 5", lambda v: is_kind(v, "integer") and v >= 5),
               "resolution": _RESOLUTION},
}


def _check_flag(flag: str, value, rule) -> None:
    """Raise an _InputError naming ``flag`` unless ``value`` passes ``rule`` = (what, test)."""
    what, ok = rule
    if not ok(value):
        raise _InputError(f"{flag} must be {what}, got {value}")


def _check_overrides(path, kind: str, overrides) -> None:
    """Raise an _InputError naming the first key of ``--config`` that ``kind`` cannot take."""
    if not is_kind(overrides, "object"):
        raise _InputError(f"--config {path}: not a JSON object")
    allowed = _OVERRIDES[kind]
    for key, value in overrides.items():
        if key not in allowed:
            raise _InputError(f"--config {path}: unknown key {key!r} for the {kind} study "
                              f"(allowed: {', '.join(sorted(allowed))})")
        what, ok = allowed[key]
        if not ok(value):
            raise _InputError(f"--config {path}: {key!r} must be {what}, got {value!r}")


_COMMANDS = {
    "serve": _cmd_serve,
    "scan": _cmd_scan,
    "segment": _cmd_segment,
    "register": _cmd_register,
    "reconstruct": _cmd_reconstruct,
    "measure": _cmd_measure,
    "experiment": _cmd_experiment,
}


if __name__ == "__main__":
    raise SystemExit(main())
