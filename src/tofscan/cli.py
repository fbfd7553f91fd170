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
    p.add_argument("--cattle-id", default=None)
    p.add_argument("--delay-us", type=int, default=160)
    p.add_argument("--exposure-us", type=int, default=125)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("segment", help="fuse and score session masks")
    p.add_argument("--session", required=True)
    p.add_argument("--mode", default="or", choices=["or", "and", "rgb", "depth"])
    p.add_argument("--masks", default=None, help="directory of <dev>_rgbmask/_depthmask PGMs")

    p = sub.add_parser("register", help="register a session's clouds")
    p.add_argument("--session", required=True)
    p.add_argument("--voxels", default="0.04,0.02,0.01")

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
    return _COMMANDS[args.command](args)


def _cmd_serve(args) -> int:
    from .acquisition import DeviceServer
    from .render import load_rig
    from .scene import load_scene

    rig = load_rig(args.rig)
    sensors = {s.device_id: s for s in rig}
    if args.device_id not in sensors:
        print(f"device {args.device_id} not in rig file", file=sys.stderr)
        return 2
    server = DeviceServer(args.device_id, sensors[args.device_id],
                          scene=load_scene(args.scene), rig=rig)
    try:
        server.serve_forever(args.host, args.port)
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_scan(args) -> int:
    from .acquisition import DeviceError, ScanClient, save_session
    from .capture import build_schedule
    from .protocol import ProtocolError

    endpoints = [e.strip() for e in args.endpoints.split(",") if e.strip()]
    client = ScanClient()
    ids = []
    for ep in endpoints:
        try:
            ids.append(client.hello(ep)["device_id"])
        except (OSError, DeviceError, ProtocolError) as e:
            print(f"device at {ep} unreachable: {e}", file=sys.stderr)
            return 2
    schedule = build_schedule(ids, args.delay_us, args.exposure_us)
    client.configure_all(endpoints, schedule)
    session = client.trigger_scan(endpoints, cattle_id=args.cattle_id,
                                  schedule=schedule, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_session(out / f"{session.session_id}.json", session)
    if not session.complete:
        print(f"session incomplete; failed: {session.failed}", file=sys.stderr)
        return 1
    paths = client.fetch_frames(session, out)
    print(f"{session.session_id}: cattle {session.cattle_id}, "
          f"{len(session.manifest)} devices, {len(paths)} files under {out}")
    return 0


def _cmd_segment(args) -> int:
    from .formats import decode_mask_pgm, encode_mask_pgm
    from .segmentation import ArbitrationMode, MaskPair, fuse, load_masks, metrics

    session = Path(args.session)
    mode = ArbitrationMode(args.mode)
    gt_dir = session / "masks"
    gts = {int(f.name.split("_")[0]): decode_mask_pgm(f.read_bytes())
           for f in sorted(gt_dir.glob("*_gtmask.pgm"))}
    if not gts:
        print(f"no ground-truth masks under {gt_dir}", file=sys.stderr)
        return 2
    pairs = (load_masks(args.masks, list(gts)) if args.masks
             else {d: MaskPair(gt, gt) for d, gt in gts.items()})
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
    from .registration import MultiScaleParams, merge_clouds, register_rig, save_pose_graph

    session = Path(args.session)
    clouds = {}
    for f in sorted((session / "clouds").glob("*.ply")):
        if f.stem.isdigit():
            clouds[int(f.stem)] = read_ply(f)
    if not clouds:
        print(f"no per-device clouds under {session}/clouds", file=sys.stderr)
        return 2
    voxels = tuple(float(v) for v in args.voxels.split(","))
    iters = (50, 30, 14)[:len(voxels)] if len(voxels) <= 3 else (50,) * len(voxels)
    params = MultiScaleParams(voxels, iters)
    graph = register_rig(clouds, {}, params)
    save_pose_graph(session / "poses.json", graph)
    merged = merge_clouds({d: clouds[d] for d in graph.global_poses}, graph,
                          dedup_voxel=voxels[-1] / 2)
    write_ply(session / "clouds" / "merged.ply", merged)
    print(f"registered {len(graph.global_poses)} devices "
          f"({len(graph.failed_edges)} failed edges) -> {session/'poses.json'}")
    return 0


def _cmd_reconstruct(args) -> int:
    from .formats import read_ply, write_ply
    from .reconstruction import estimate_normals, poisson_reconstruct

    cloud = read_ply(args.cloud)
    mesh = poisson_reconstruct(estimate_normals(cloud), resolution=args.resolution)
    write_ply(args.out, vertices=mesh.vertices, triangles=mesh.triangles)
    print(f"wrote {args.out}: {len(mesh.vertices)} vertices, {len(mesh.triangles)} triangles")
    return 0


def _cmd_measure(args) -> int:
    from .formats import read_ply
    from .metrology import surface_area, volume
    from .reconstruction import TriangleMesh, is_watertight

    verts, tris = read_ply(args.mesh)
    mesh = TriangleMesh(verts, tris)
    ok, boundary = is_watertight(mesh)
    print(f"surface_area_m2 {surface_area(mesh):.6f}")
    if ok:
        print(f"volume_m3 {volume(mesh):.8f}")
    else:
        print(f"volume_m3 undefined (not watertight, {boundary} boundary edges)")
    return 0


def _cmd_experiment(args) -> int:
    from dataclasses import replace

    from . import experiments as ex
    from .geometry import RigidTransform
    from .pipeline import RunConfig
    from .rigs import known_object_rig
    from .scene import make_animal_model, make_known_object_scene

    overrides = json.loads(Path(args.config).read_text()) if args.config else {}

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
    ex.write_report_csv(args.out, *reports)
    for rep in reports:
        print(rep.summary())
    return 0


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
