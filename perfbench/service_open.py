"""Workload ``service-open``: a ``repro serve`` daemon fed open loop.

A ``repro serve --workers 2`` daemon runs on a fresh state directory.
One generator thread submits jobs through ``repro.service.Client`` at
their due times, whether or not earlier jobs have finished, at
:data:`RATE` jobs per second (below the capacity measured on the seed,
about 0.75 jobs/s).  Arrivals are jittered slots: job ``i`` is due at a
uniformly drawn moment of ``[i, i + 1) / RATE``.  Exponential gaps were
tried first; with fifteen jobs a run their clumps swung the median
latency from 0.69 s to 1.70 s across five seeds, where jittered slots
keep the open loop and the rate but bound how many jobs can pile up.
Every run serves the same job list: resnet18 and resnet34 under every
registered strategy with a short interactive budget and search seed 0,
in a fixed order, with every :data:`REPEAT_EVERY`-th job repeating an
earlier request, so the shared store and the checkpoints grow during
the run.  The workload seed draws the arrival times.  (With the order
and the repeats drawn too, which jobs came first, paying the compiles
and tuning contexts, and which repeated, moved the median job time by
16% between runs.)

A job's request time (``request_s_*``) is the CPU seconds the daemon's
worker thread spent on it, recorded by ``bootstrap.py --job-cpu``: the
host this benchmark was built on steals enough time that the wall
latency of the same schedule moved its median by a third between runs,
while thread CPU time leaves out steal and waits for the interpreter
lock.  The wall latency — from the job's due time to the daemon's
``finished_at``, read through ``Client.status`` once the generator is
done (polling during the window would load the daemon; ``Client.wait``
would round it to its poll) — is kept per job in the record and
reported by traced runs as ``service.latency_s_p50`` and
``service.latency_s_tail``.  ``requests_per_s`` is finished jobs per
wall second.  This is the only workload that exercises service
queueing, ``JobStore`` writes and checkpoint writes.  Each job's result
must equal ``repro.optimize`` on the same request.

``setup_s`` is the CPU seconds of a daemon that starts, advertises its
endpoint and stops (the median of three).
"""

from __future__ import annotations

import json
import signal
import subprocess
import threading
import time
from pathlib import Path

import numpy as np

import common
import tracing

MODELS = ("resnet18", "resnet34")
#: offered load, jobs per second
RATE = 0.5
REPEAT_EVERY = 5
JOB_REQUEST = {"budget": 24, "seed": 0}
TINY_REQUEST = {"budget": 6, "trials": 2, "image_size": 8, "seed": 0}
SETUP_PROBES = 3
RETUNE_SAMPLES = 3
CLI_START_SAMPLES = 5
#: how long finished jobs may trail the last arrival
DRAIN_SECONDS = 120.0
FIELDS = {"budget": "configurations", "trials": "tuner_trials"}


def plan(seed: int, seconds: float, tiny: bool = False
         ) -> tuple[list[float], list[dict]]:
    """Due times (seconds from the start) and job requests.

    The job list is the same in every run: the catalogue in a fixed
    order, every :data:`REPEAT_EVERY`-th job a repeat of the job three
    places before it.  The workload seed draws the arrival times.
    """
    from repro.core.search import SEARCH_STRATEGY_REGISTRY

    rng = np.random.default_rng([seed, 0x5E4F])
    count = max(2, round(RATE * seconds))
    due = [(index + float(rng.uniform())) / RATE for index in range(count)]
    strategies = ("greedy", "model_guided") if tiny else tuple(
        SEARCH_STRATEGY_REGISTRY)
    models = ("resnet18",) if tiny else MODELS
    catalogue = iter([{"model": model, "platform": "cpu", "strategy": strategy,
                       **(TINY_REQUEST if tiny else JOB_REQUEST)}
                      for strategy in strategies for model in models] * count)
    jobs: list[dict] = []
    for index in range(count):
        repeat = (index + 1) % REPEAT_EVERY == 0
        jobs.append(dict(jobs[index - 3]) if repeat else next(catalogue))
    return due, jobs


def request_fields(request: dict) -> dict:
    """An ``optimize``-keyword request as ``OptimizationRequest`` fields."""
    return {FIELDS.get(key, key): value for key, value in request.items()}


class Daemon:
    """One ``repro serve`` child on its own state directory."""

    def __init__(self, state: Path, trace: Path | None = None):
        self.state = state
        self.job_cpu = state.with_name(state.name + ".job-cpu.json")
        self.log = state.with_name(state.name + ".log")
        command = common.bootstrap(
            "--cli", "serve", "--state-dir", str(state), "--workers", "2",
            trace=trace, job_cpu=self.job_cpu)
        with open(self.log, "w") as log:
            self.process = subprocess.Popen(command, cwd=common.ROOT,
                                            stdout=subprocess.DEVNULL,
                                            stderr=log)
        try:
            self._await_endpoint()
        except BaseException:
            self.stop()
            raise

    def _await_endpoint(self) -> None:
        endpoint = self.state / "service.json"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"the daemon exited {self.process.returncode} before "
                    f"serving:\n{self.log.read_text()[-4000:]}")
            try:
                if json.loads(endpoint.read_text()).get("pid") == self.process.pid:
                    return
            except (FileNotFoundError, json.JSONDecodeError):
                pass
            time.sleep(0.005)
        raise RuntimeError("the daemon never advertised its endpoint")

    def stop(self) -> dict[str, float]:
        """SIGTERM, wait, and return each job's worker CPU seconds.

        The daemon writes them (and a traced daemon its spans) on exit.
        """
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        try:
            return json.loads(self.job_cpu.read_text())
        except FileNotFoundError:
            return {}


def _open_loop(state: Path, due: list[float], jobs: list[dict],
               trace: Path | None = None) -> dict:
    """Run one daemon through the whole arrival schedule."""
    from repro.service import Client

    daemon = Daemon(state, trace)
    submissions: list[tuple[str, float, float]] = []
    errors: list[BaseException] = []
    try:
        client = Client(state_dir=state)
        origin = time.perf_counter()
        wall_origin = time.time()

        def generate() -> None:
            try:
                for offset, request in zip(due, jobs):
                    delay = origin + offset - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    late = time.perf_counter() - (origin + offset)
                    job_id = client.submit(**request_fields(request))
                    submissions.append((job_id, wall_origin + offset, late))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        generator = threading.Thread(target=generate, name="perfbench-loadgen")
        generator.start()
        generator.join()
        if errors:
            raise errors[0]
        records = _collect(client, submissions, jobs)
        finished = [r["finished_at"] for r in records if r["finished_at"]]
        elapsed = (max(finished) if finished else time.time()) - wall_origin
    finally:
        job_cpu = daemon.stop()
    for record in records:
        record["request_s"] = job_cpu.get(record["job_id"], DRAIN_SECONDS)
    return {"records": records, "elapsed_s": elapsed}


def _collect(client, submissions, jobs) -> list[dict]:
    """Wait for every job to end; one record per job, in arrival order."""
    deadline = time.monotonic() + DRAIN_SECONDS
    statuses: dict[str, dict] = {}
    while len(statuses) < len(submissions) and time.monotonic() < deadline:
        for job_id, _, _ in submissions:
            if job_id not in statuses:
                status = client.status(job_id)
                if status["state"] in ("done", "failed", "cancelled"):
                    statuses[job_id] = status
        time.sleep(0.1)
    records = []
    for (job_id, due_wall, late), request in zip(submissions, jobs):
        status = statuses.get(job_id)
        record = {"request": request, "job_id": job_id, "late_s": late,
                  "result": None, "error": None, "finished_at": None,
                  "submitted_at": None, "wall_s": DRAIN_SECONDS}
        if status is None:
            record["error"] = "never finished"
        else:
            record["finished_at"] = status["finished_at"]
            record["submitted_at"] = status["submitted_at"]
            record["wall_s"] = status["finished_at"] - due_wall
            if status["state"] == "done":
                record["result"] = client.result(job_id).to_dict()
            else:
                record["error"] = f"finished {status['state']}: {status.get('error')}"
        records.append(record)
    return records


def run(ctx) -> dict:
    import repro

    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    due, jobs = plan(ctx.seed, seconds, ctx.tiny)
    setups = []
    for probe in range(0 if ctx.trace else SETUP_PROBES):
        before = common.children_cpu_s()
        Daemon(ctx.work / f"probe-{probe}").stop()
        setups.append(common.children_cpu_s() - before)
    main = _open_loop(ctx.work / "state", due, jobs)
    records = main["records"]

    golden_store = ctx.work / "golden-store"
    goldens: dict[str, dict] = {}
    for request in jobs:
        key = json.dumps(request, sort_keys=True)
        if key not in goldens:
            goldens[key] = repro.optimize(**request,
                                          cache_dir=golden_store).to_dict()
    expected = [goldens[json.dumps(r, sort_keys=True)] for r in jobs]
    documents = [record["result"] for record in records]
    if ctx.corrupt and documents and documents[0] is not None:
        documents[0] = common.corrupt(documents[0])
    ctx.check_all(records, documents, RETUNE_SAMPLES, expected=expected)
    times = [record["request_s"] for record in records]
    latencies = [record["wall_s"] for record in records]
    outcome = {"attempted": len(records), "detail": {
        "requests": jobs, "due_s": due, "request_s": times,
        "latency_s": latencies,
        "late_s": [record["late_s"] for record in records]}}
    if ctx.trace:
        outcome["per_layer"] = _traced_pass(ctx, due, jobs, records)
        return outcome
    done = sum(1 for record in records if record["finished_at"])
    outcome["end_to_end"] = ctx.end_to_end(
        times, setups, requests_per_s=done / main["elapsed_s"],
        documents=documents, peak_rss_mb=common.peak_children_rss_mb(),
        cli_start=ctx.time_cli_start(CLI_START_SAMPLES))
    return outcome


def _traced_pass(ctx, due: list[float], jobs: list[dict],
                 records: list[dict]) -> dict:
    """The same schedule against a traced daemon; per-layer split by job."""
    trace_file = ctx.work / "service-open.trace.json"
    traced = _open_loop(ctx.work / "traced-state", due, jobs, trace_file)
    roots: dict[str, list[dict]] = {}
    for root in tracing.read_roots(trace_file):
        roots.setdefault(root["key"], []).append(root)
    traced_requests = []
    for record in traced["records"]:
        job_roots = roots.get(record["job_id"], [])
        merged = tracing.merge_roots(job_roots)
        request = {"wall_s": record["wall_s"], "self_ns": merged["self_ns"],
                   "counters": merged["counters"], "result": record["result"]}
        started = [root["args"]["started_at"] for root in job_roots
                   if root["name"] == "service.job"]
        if started and record["submitted_at"] is not None:
            request["queue_wait_s"] = min(started) - record["submitted_at"]
        traced_requests.append(request)
    # A job's wall time starts at its due time but its spans run past
    # finished_at (the session's store write-back), so other_s may dip
    # below zero for a job that never queued.
    metrics = ctx.per_layer(traced_requests, untraced=records,
                            traced=traced["records"], trace_file=trace_file,
                            check_other=False)
    metrics["loadgen.late_s_max"] = max(
        record["late_s"] for record in traced["records"])
    latency, _, _ = common.tail([record["wall_s"] for record in records])
    metrics["service.latency_s_p50"] = common.median(
        record["wall_s"] for record in records)
    metrics["service.latency_s_tail"] = latency
    return metrics
