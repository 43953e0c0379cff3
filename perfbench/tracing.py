"""Outside-in span tracing for the end-to-end benchmark.

The benchmark times each layer of the stack from outside: it replaces
the public functions a caller binds (``repro.core.search.fisher_profile``,
``AutoTuner.tune``, the registered ``CandidateEncoding.encode`` objects,
...) with wrappers that open a span around the original call.  Nothing
under ``src/`` changes, and with tracing off nothing is wrapped at all.

A :class:`Tracer` keeps one span stack per thread, so the daemon's two
worker threads never subtract each other's time.  When a span closes, its
*self time* — its duration minus the durations of the spans directly
nested in it — is added to its root span's per-layer totals, so for
every root ``sum(self times) == root duration`` exactly, in integer
nanoseconds.  A root span is a span opened with an empty stack: one
benchmark request, one daemon job, one CLI process's import.

Finished spans are also kept (up to :data:`MAX_EVENTS` per process) as
Chrome trace events, so ``Tracer.write`` produces a file Perfetto or
``chrome://tracing`` opens directly.  The file carries the root
summaries beside ``traceEvents``; trace viewers ignore that key.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from collections import Counter
from pathlib import Path

#: Chrome events kept per process; the per-root totals are always complete.
MAX_EVENTS = 200_000


class _Frame:
    __slots__ = ("name", "args", "start", "child_ns", "self_ns", "calls",
                 "counters")

    def __init__(self, name: str, args: dict, start: int):
        self.name = name
        self.args = args
        self.start = start
        self.child_ns = 0
        # only used on root frames: per-layer totals of the whole tree
        self.self_ns: Counter | None = None
        self.calls: Counter | None = None
        self.counters: Counter | None = None


class Tracer:
    """Per-thread span stacks with exact self-time totals per root span.

    Example::

        tracer = Tracer()
        with tracer.span("request", key=0):
            with tracer.span("tenir.tune"):
                ...
        root = tracer.roots[0]   # {"key": 0, "dur_ns": ..., "self_ns": {...}}
    """

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: list[dict] = []
        self.events: list[tuple] = []
        self.dropped_events = 0
        self.pid = os.getpid()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **args):
        """Time the body as one span; yields the span's ``args`` dict."""
        stack = self._stack()
        frame = _Frame(name, args, self._clock())
        if not stack:
            frame.self_ns, frame.calls, frame.counters = Counter(), Counter(), Counter()
        stack.append(frame)
        try:
            yield frame.args
        finally:
            self._close(stack, frame)

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter of the innermost open root span on this thread."""
        stack = self._stack()
        if stack:
            stack[0].counters[name] += amount

    def _close(self, stack: list[_Frame], frame: _Frame) -> None:
        end = self._clock()
        popped = stack.pop()
        if popped is not frame:  # pragma: no cover - spans must nest
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        self_ns = duration - frame.child_ns
        root = stack[0] if stack else frame
        if stack:
            stack[-1].child_ns += duration
        root.self_ns[frame.name] += self_ns
        root.calls[frame.name] += 1
        tid = threading.get_ident()
        with self._lock:
            if len(self.events) < MAX_EVENTS:
                self.events.append((frame.name, tid, frame.start, duration,
                                    len(stack), frame.args or None))
            else:
                self.dropped_events += 1
            if root is frame:
                self.roots.append({
                    "name": frame.name, "tid": tid,
                    "key": frame.args.get("key"),
                    "start_ns": frame.start, "dur_ns": duration,
                    "self_ns": dict(frame.self_ns),
                    "calls": dict(frame.calls),
                    "counters": dict(frame.counters),
                    "args": {k: v for k, v in frame.args.items() if k != "key"},
                })

    # -- export -----------------------------------------------------------
    def chrome_events(self) -> list[dict]:
        """Finished spans as Chrome trace-event ``X`` records (µs times)."""
        with self._lock:
            events = list(self.events)
        return [{"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                 "ts": start / 1e3, "dur": duration / 1e3, "pid": self.pid,
                 "tid": tid, "args": {"depth": depth, **(args or {})}}
                for name, tid, start, duration, depth, args in events]

    def write(self, path: str | Path) -> Path:
        """Write the Chrome trace plus the root summaries to ``path``."""
        path = Path(path)
        with self._lock:
            roots = list(self.roots)
            dropped = self.dropped_events
        document = {"traceEvents": self.chrome_events(),
                    "displayTimeUnit": "ms",
                    "perfbench": {"pid": self.pid, "roots": roots,
                                  "dropped_events": dropped}}
        scratch = path.with_suffix(path.suffix + ".tmp")
        scratch.write_text(json.dumps(document, default=str))
        os.replace(scratch, path)
        return path


def read_roots(path: str | Path) -> list[dict]:
    """The root summaries a :meth:`Tracer.write` file carries."""
    return json.loads(Path(path).read_text())["perfbench"]["roots"]


def merge_roots(roots) -> dict:
    """Sum root summaries into one ``{"self_ns", "calls", "counters", "dur_ns"}``."""
    merged = {"self_ns": Counter(), "calls": Counter(), "counters": Counter(),
              "dur_ns": 0}
    for root in roots:
        merged["dur_ns"] += root["dur_ns"]
        for field in ("self_ns", "calls", "counters"):
            merged[field].update(root[field])
    return merged


# ---------------------------------------------------------------------------
# Wrapping the public functions of each layer
# ---------------------------------------------------------------------------

def _fits(predictor_fit_result) -> dict:
    return {"predictor.fits": int(bool(predictor_fit_result))}


def _appended(count) -> dict:
    return {"cache_store.entries_appended": int(count)}


def _checkpoint_bytes(path) -> dict:
    return {"checkpoint.writes": 1,
            "checkpoint.bytes": os.path.getsize(path)}


#: ``(module, owner, attribute, layer, result counter)`` — each layer's
#: public entry points, patched on the object the *caller* reads them
#: from (a module-level name is patched in the importing module).
TARGETS = (
    ("repro.core.search", None, "fisher_profile", "fisher.profile", None),
    ("repro.core.engine", "FisherOracle", "candidate_fisher_many",
     "fisher.candidate", None),
    ("repro.core.engine", "FisherOracle", "candidate_fisher",
     "fisher.candidate", None),
    ("repro.core.unified_space", "UnifiedSpace", "candidate_sequences",
     "space.generate", None),
    ("repro.core.unified_space", "UnifiedSpace", "random_composition",
     "space.generate", None),
    ("repro.core.unified_space", "UnifiedSpace", "sample_assignment",
     "space.generate", None),
    ("repro.core.program", "TransformProgram", "compile",
     "program.compile", None),
    ("repro.core.engine", "EvaluationEngine", "prescreen",
     "legality.prescreen", None),
    ("repro.core.engine", "EvaluationEngine", "tune_many",
     "engine.tune_many", None),
    ("repro.tenir.autotune", "AutoTuner", "tune", "tenir.tune", None),
    ("repro.tenir.autotune", None, "estimate_latency_batch",
     "hardware.cost_batch", None),
    ("repro.core.predictor", "LatencyPredictor", "fit", "predictor.fit",
     _fits),
    ("repro.core.predictor", "LatencyPredictor", "predict_batch_with_std",
     "predictor.predict", None),
    ("repro.core.cache_store", "CacheStore", "load_platform",
     "cache_store.load", None),
    ("repro.core.cache_store", "CacheStore", "append", "cache_store.append",
     _appended),
    ("repro.core.checkpoint", "CheckpointWriter", "write",
     "checkpoint.write", _checkpoint_bytes),
)


def traced(tracer: Tracer, function, layer: str, counter=None):
    """``function`` wrapped in a span named ``layer``."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(layer):
            result = function(*args, **kwargs)
            if counter is not None:
                for name, amount in counter(result).items():
                    tracer.count(name, amount)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point in :data:`TARGETS` (plus the registries).

    Call it once, after ``import repro`` and before the first request, so
    every object that looks a function up at call time sees the wrapper.
    The patches last as long as the process.
    """
    for module_name, owner_name, attribute, layer, counter in TARGETS:
        owner = importlib.import_module(module_name)
        if owner_name is not None:
            owner = getattr(owner, owner_name)
        setattr(owner, attribute,
                traced(tracer, getattr(owner, attribute), layer, counter))

    # A job record saved on a connection thread (submit) is a root span
    # of its own; key it by job id so it is charged to that job.
    from repro.service.jobs import JobStore

    save = JobStore.save

    @functools.wraps(save)
    def traced_save(store, job):
        with tracer.span("service.jobstore_save", key=job.job_id):
            return save(store, job)

    JobStore.save = traced_save

    # Encoders live on registered CandidateEncoding objects the predictor
    # resolves by name; acquisitions come out of get_acquisition.
    from repro.core import encoding, search

    for candidate in encoding.ENCODING_REGISTRY.values():
        candidate.encode = traced(tracer, candidate.encode, "predictor.encode")
    get_acquisition = search.get_acquisition

    @functools.wraps(get_acquisition)
    def traced_get_acquisition(name):
        return traced(tracer, get_acquisition(name), "acquisition.score")

    search.get_acquisition = traced_get_acquisition

    # The daemon's per-job boundary: one root span per job, keyed by id,
    # stamped with the moment the worker took the job off the queue.
    from repro.service import daemon

    run_job = daemon.OptimizationService._run_job

    @functools.wraps(run_job)
    def traced_run_job(service, job):
        with tracer.span("service.job", key=job.job_id,
                         started_at=time.time()):
            return run_job(service, job)

    daemon.OptimizationService._run_job = traced_run_job
