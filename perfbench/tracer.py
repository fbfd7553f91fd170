"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public entry points of the tofscan layers by rebinding module
or class attributes for the length of one run, and restores them afterwards.
Each call becomes a span with its name, parent span, operation id and thread.
Counts are recorded at the same boundaries. Per-layer metrics are the self
time of each span name (its duration minus the time its child spans cover)
and those counts. Nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import threading
import time
from collections import defaultdict

__all__ = ["Tracer", "TARGETS", "RUN_TOTALS"]


class Span:
    __slots__ = ("name", "op", "parent", "thread", "start", "end", "failed", "counts",
                 "overhead")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.failed = False
        self.counts = {}
        self.overhead = 0.0

    def to_json(self, ids) -> dict:
        return {"id": ids[id(self)], "parent": None if self.parent is None else ids[id(self.parent)],
                "op": self.op, "name": self.name, "thread": self.thread,
                "start": self.start, "end": self.end, "failed": self.failed,
                "counts": self.counts}


def _add(counts, name, value):
    """Accumulate one count; names ending in _min/_max keep the extreme, others sum."""
    if name.endswith("_min"):
        counts[name] = min(counts.get(name, value), value)
    elif name.endswith("_max"):
        counts[name] = max(counts.get(name, value), value)
    else:
        counts[name] = counts.get(name, 0) + value


# --- observers: counts taken from a wrapped call's arguments and result ------

def _capture_counts(counts, result, args, kwargs):
    for stat in result.retention.values():
        _add(counts, "capture.kept", stat.points_after)
        _add(counts, "capture.attempted", stat.points_before)


def _cloud_points(counts, result, args, kwargs):
    _add(counts, "geometry.points", len(result))


def _registration_counts(counts, graph, args, kwargs):
    for edge in graph.edges.values():
        for scale, history in enumerate(edge.objective_history):
            _add(counts, f"registration.icp_iterations_s{scale}", max(0, len(history) - 1))
        _add(counts, "registration.fitness_min", edge.fitness)
        _add(counts, "registration.rmse_max", edge.inlier_rmse)
    _add(counts, "registration.failed_edges", len(graph.failed_edges))


def _merged_points(counts, result, args, kwargs):
    _add(counts, "registration.merged_points", len(result))


def _mesh_triangles(counts, mesh, args, kwargs):
    _add(counts, "reconstruction.triangles", len(mesh.triangles))


def _solve_counts(counts, result, args, kwargs):
    rhs = args[0] if args else kwargs["rhs"]
    info = result[1]
    _add(counts, "reconstruction.grid_nodes", rhs.size)
    _add(counts, "solver.iterations", info.iterations)
    _add(counts, "solver.residual", info.residual)


def _oracle_triangles(counts, result, args, kwargs):
    _add(counts, "oracle.triangles", len(result[1]))


def _session_failures(counts, session, args, kwargs):
    _add(counts, "acquisition.failed_requests", len(session.failed))


def _fetched_bytes(counts, paths, args, kwargs):
    session = args[1] if len(args) > 1 else kwargs["session"]
    _add(counts, "protocol.fetch_bytes",
         sum(e.depth_bytes + e.color_bytes for e in session.manifest))


# (owner, attribute, span name, observer, count metrics the observer feeds).
# The owner is "module" or "module:Class". Entry points that the pipeline,
# the oracle or the reconstruction call through their own module namespace
# are rebound there, so the program's call sites reach the wrapper.
TARGETS = [
    ("tofscan.pipeline", "simulate_capture", "capture.simulate_capture", _capture_counts,
     ("capture.retention",)),
    ("tofscan.acquisition", "corrupt_device_frame", "capture.simulate_capture", None, ()),
    ("tofscan.pipeline", "fuse", "segmentation.fuse", None, ()),
    ("tofscan.pipeline", "back_project", "geometry.back_project", _cloud_points,
     ("geometry.points",)),
    ("tofscan.pipeline", "register_rig", "registration.register_rig", _registration_counts,
     ("registration.icp_iterations_s0", "registration.icp_iterations_s1",
      "registration.icp_iterations_s2", "registration.fitness_min", "registration.rmse_max",
      "registration.failed_edges")),
    ("tofscan.pipeline", "merge_clouds", "registration.merge", _merged_points,
     ("registration.merged_points",)),
    ("tofscan.pipeline", "estimate_normals", "reconstruction.estimate_normals", None, ()),
    ("tofscan.pipeline", "poisson_reconstruct", "reconstruction.poisson", _mesh_triangles,
     ("reconstruction.triangles",)),
    ("tofscan.reconstruction", "solve_poisson_grid", "solver.solve", _solve_counts,
     ("reconstruction.grid_nodes", "solver.iterations", "solver.residual")),
    ("tofscan.reconstruction", "marching_cubes_grid", "marching.marching_cubes", None, ()),
    ("tofscan.oracle", "marching_cubes_stream", "marching.marching_cubes", _oracle_triangles,
     ("oracle.triangles",)),
    ("tofscan.oracle", "oracle_measurements", "oracle.reference", None, ()),
    ("tofscan.pipeline", "measure_mesh", "metrology.measure", None, ()),
    ("tofscan.oracle", "surface_area", "metrology.measure", None, ()),
    ("tofscan.oracle", "volume", "metrology.measure", None, ()),
    ("tofscan.metrology", "is_watertight", "metrology.watertight", None, ()),
    ("tofscan.acquisition:ScanClient", "configure_all", "acquisition.configure", None, ()),
    ("tofscan.acquisition:ScanClient", "trigger_scan", "acquisition.trigger", _session_failures,
     ("acquisition.failed_requests",)),
    ("tofscan.acquisition:ScanClient", "fetch_frames", "acquisition.fetch", _fetched_bytes,
     ("protocol.fetch_bytes", "protocol.fetch_MBps")),
]

# Failure counts are summed over the run; every other metric is the median
# over the operations op_s is taken from.
RUN_TOTALS = ("acquisition.failed_requests", "registration.failed_edges")


def _stream_sampler(tracer, args, kwargs):
    """Trace the oracle's slab sampler that marching_cubes_stream calls back."""
    if "sample_fn" in kwargs:
        kwargs = dict(kwargs, sample_fn=tracer.wrap("oracle.stream", kwargs["sample_fn"]))
    elif args:
        args = (tracer.wrap("oracle.stream", args[0]),) + tuple(args[1:])
    return args, kwargs


# attribute -> (argument rewriter, the metric of the spans it adds)
_WRAP_ARGS = {"marching_cubes_stream": (_stream_sampler, "oracle.stream_s")}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None           # id of the operation now running; None outside one
        self.missing: list[str] = []
        self.produces: set[str] = set()
        self.unobservable: set[str] = set()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, observe=None, wrap_args=None, feeds=()):
        """``fn`` wrapped so that every call records a span named ``name``.

        ``observe`` records counts from the call; if the call's arguments or
        result no longer have the shape it reads, the metrics it ``feeds``
        are marked unobservable instead of failing the run.
        """
        tracer = self

        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            stack = tracer._stack()
            span = Span(name, tracer.op, stack[-1] if stack else None)
            tracer.spans.append(span)
            stack.append(span)
            if wrap_args is not None:
                args, kwargs = wrap_args(tracer, args, kwargs)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.end = time.perf_counter()
                span.failed = True
                _add(span.counts, name.split(".")[0] + ".failed_requests", 1)
                raise
            else:
                span.end = time.perf_counter()
                if observe is not None:
                    try:
                        observe(span.counts, result, args, kwargs)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        tracer.unobservable.update(feeds)
                return result
            finally:
                stack.pop()
                span.overhead = (span.start - t_in) + (time.perf_counter() - span.end)

        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Rebind every target for the duration of the block.

        A target the program no longer has is recorded in ``missing``; the
        metrics only it feeds are then not in ``produces``, and are left out
        rather than reported as 0.
        """
        patched = []
        try:
            for owner_path, attr, name, observe, counts in targets:
                module_name, _, cls = owner_path.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    if cls:
                        owner = getattr(owner, cls)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{owner_path}.{attr}")
                    continue
                wrap_args, inner = _WRAP_ARGS.get(attr, (None, None))
                setattr(owner, attr, self.wrap(name, original, observe, wrap_args, counts))
                patched.append((owner, attr, original))
                self.produces.add(name + "_s")
                self.produces.update(counts)
                if inner:
                    self.produces.add(inner)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def op_metrics(self, op) -> dict:
        """Self seconds per span name plus the counts recorded, for one operation."""
        spans = [s for s in self.spans if s.op == op]
        covered = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                covered[id(s.parent)] += s.end - s.start
        out: dict = {}
        for s in spans:
            _add(out, s.name + "_s", (s.end - s.start) - covered[id(s)])
            for key, value in s.counts.items():
                _add(out, key, value)
        if out.get("capture.attempted"):
            out["capture.retention"] = out["capture.kept"] / out["capture.attempted"]
        if out.get("acquisition.fetch_s") and "protocol.fetch_bytes" in out:
            out["protocol.fetch_MBps"] = out["protocol.fetch_bytes"] / out["acquisition.fetch_s"] / 1e6
        return out

    def run_metrics(self, ops, timed) -> dict:
        """Per-layer metrics of a run: failure totals over ``ops``, medians over ``timed``.

        ``timed`` are the operations ``op_s`` is taken from. A metric an
        operation did not record counts as 0 for that operation.
        """
        per_op = {op: self.op_metrics(op) for op in ops}
        names = set().union(*per_op.values())
        out = {}
        for name in names:
            if name in RUN_TOTALS:
                out[name] = sum(m.get(name, 0) for m in per_op.values())
            else:
                out[name] = statistics.median(per_op[op].get(name, 0) for op in timed)
        return out

    def overhead_s(self) -> float:
        """Time the wrappers themselves spent, outside the calls they wrap."""
        return sum(s.overhead for s in self.spans)

    def to_json(self) -> list:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        return [s.to_json(ids) for s in self.spans]
