#!/usr/bin/env python3
"""tofscan benchmark: one workload, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cattle_scan --seed 1 --seconds 5 --trace 0

Workloads, metrics and bounds are defined in BENCHMARK.json; perfbench/README.md
says why each workload exists and which end-to-end metric each per-layer
metric should move. The program is imported from ``src/`` of the same
checkout. The run repeats operations until ``--seconds`` have passed (at least
one), checks every output, and prints a detailed report line and then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

# One BLAS thread: the loopback workload already runs two server threads on a
# two-core machine, and a single thread keeps runs steady.
BLAS_THREADS = 1
# Set-up is repeated this many times before the operations and as many after,
# so that its median spans the run rather than the few seconds before it.
SETUP_REPEATS = 2


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """Import and build times of the workload in fresh interpreters, one pair per repeat."""
    code = (f"import sys, time; t0 = time.perf_counter(); "
            f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
            f"t1 = time.perf_counter(); w = workloads.WORKLOADS[{workload!r}]({seed}, None); "
            f"w.setup(); t2 = time.perf_counter(); w.close(); print(t1 - t0, t2 - t1)")
    pairs = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                             capture_output=True, text=True).stdout
        import_s, build_s = map(float, out.split())
        pairs.append((import_s, build_s))
    return pairs


def _machine() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": BLAS_THREADS}


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"{spec_path.name} not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=("stop-server",), default=None,
                    help="loopback_acquire: stop one device server between TRIGGER and "
                         "FETCH of the first operation")
    args = ap.parse_args(argv)
    if args.fault and args.workload != "loopback_acquire":
        ap.error("--fault applies to loopback_acquire only")

    if not (SRC / "tofscan" / "__init__.py").is_file():
        return _fail(f"no program to benchmark: {SRC / 'tofscan'} is missing")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    t_start = time.perf_counter()
    setups = _setup_seconds(args.workload, args.seed)
    import tofscan
    if not Path(tofscan.__file__).resolve().is_relative_to(SRC.resolve()):
        return _fail(f"imported tofscan from {tofscan.__file__}, not from {SRC}")
    from tracer import Tracer
    from workloads import WORKLOADS, error_pct

    WORKDIR.mkdir(exist_ok=True)
    fetch_dir = Path(tempfile.mkdtemp(prefix="fetch-", dir=WORKDIR))
    workload = WORKLOADS[args.workload](args.seed, fetch_dir, args.fault)
    try:
        workload.setup()
        tracer = Tracer() if args.trace else None
        run_op = tracer.wrap("op", workload.run_op) if tracer else workload.run_op
        ops = []  # one dict per operation
        t_loop = time.perf_counter()
        with tracer.installed() if tracer else contextlib.nullcontext():
            while not ops or time.perf_counter() - t_loop < args.seconds:
                k = len(ops)
                if tracer:
                    tracer.op = k
                record = {"op": k, "seed": args.seed + k}
                t0 = time.perf_counter()
                try:
                    outcome = run_op(k)
                except workload.errors as e:
                    record["seconds"] = time.perf_counter() - t0
                    record["error"] = f"{type(e).__name__}: {e}"
                    if tracer:
                        tracer.op = None
                    workload.after_failure(k)
                else:
                    record["seconds"] = time.perf_counter() - t0
                    if tracer:
                        tracer.op = None
                    record["wrong"] = workload.check(k, outcome)
                    m = workload.measurements(outcome)
                    if m is not None:
                        record["measured"] = m
                ops.append(record)
        frames_stored = workload.frames_stored()
    finally:
        workload.close()
        shutil.rmtree(fetch_dir, ignore_errors=True)
    setups += _setup_seconds(args.workload, args.seed)

    ok = [r for r in ops if "error" not in r and not r["wrong"]]
    failed = len(ops) - len(ok)
    timed = ok or ops
    op_s = statistics.median(r["seconds"] for r in timed)
    setup_s = statistics.median(i + b for i, b in setups)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "fault": args.fault, "machine": _machine(),
        "wall_s": time.perf_counter() - t_start,
        "op_s": _metric(op_s, "s"), "op_samples": len(timed),
        "setup_s": _metric(setup_s, "s"), "setup_import_build_s": setups,
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "failed_frac": _metric(failed / len(ops), "ratio"),
        "attempted": len(ops), "failed": failed,
        "ops": [{k: v for k, v in r.items() if k != "measured"} for r in ops],
    }
    measured = [r["measured"] for r in ok if "measured" in r]
    if measured:
        area_err, volume_err = error_pct(measured)
        report["area_err_pct"] = _metric(area_err, "%")
        report["volume_err_pct"] = _metric(volume_err, "%")

    values = {"op_s": op_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    wanted = spec["end_to_end"]
    if tracer:
        wanted = spec["per_layer"]
        values = dict.fromkeys(tracer.produces, 0)  # a layer the workload never called
        values.update(tracer.run_metrics(range(len(ops)), [r["op"] for r in timed]))
        values.update({"acquisition.frames_stored": frames_stored, "trace.op_s": op_s,
                       "trace.overhead_pct":
                           100 * tracer.overhead_s() / sum(r["seconds"] for r in ops)})
        for name in tracer.unobservable:
            values.pop(name, None)
        report["missing_targets"] = tracer.missing
        trace_file = WORKDIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.to_json()))
        report["trace_file"] = str(trace_file.relative_to(ROOT))
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
               for m in wanted if m["name"] in values}
    report["missing_metrics"] = [m["name"] for m in wanted if m["name"] not in values]

    print(json.dumps({"report": report}))
    print(json.dumps({"correct": all(not r.get("wrong") for r in ops),
                      "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
