#!/usr/bin/env python3
"""Acquisition demo: 8 device servers on loopback, one triggered scan, fetched frames."""

import argparse
import time
from pathlib import Path

from tofscan.acquisition import DeviceServer, ScanClient, save_session
from tofscan.capture import build_schedule
from tofscan.experiments import SYNC_SCENE
from tofscan.rigs import known_object_rig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="scan_demo")
    ap.add_argument("--delay-us", type=int, default=160)
    args = ap.parse_args()

    rig = known_object_rig()[:8]
    servers = [DeviceServer(s.device_id, s, scene=SYNC_SCENE, rig=rig) for s in rig]
    for s in servers:
        s.start_background()
    endpoints = [f"127.0.0.1:{s.port}" for s in servers]
    print("servers:", ", ".join(endpoints))

    t0 = time.monotonic()
    client = ScanClient()
    ids = [client.hello(ep)["device_id"] for ep in endpoints]
    schedule = build_schedule(ids, args.delay_us, 125)
    client.configure_all(endpoints, schedule)
    session = client.trigger_scan(endpoints, schedule=schedule)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_session(out / f"{session.session_id}.json", session)
    paths = client.fetch_frames(session, out)
    print(f"session {session.session_id} (cattle {session.cattle_id}): "
          f"{len(session.manifest)} devices, {len(paths)} files, "
          f"{time.monotonic() - t0:.1f}s")
    for s in servers:
        s.stop()


if __name__ == "__main__":
    main()
