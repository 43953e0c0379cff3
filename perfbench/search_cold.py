"""Workload ``search-cold``: cold ``repro.optimize`` searches, closed loop.

One client in one fresh interpreter (a worker process) calls
``repro.optimize`` with each request on its own empty cache directory.
Process-level memos — the compile trie and the shared tuning contexts —
live across requests, as they do in the experiment drivers and the
daemon.  An untimed resnet18 request warms the process up; it counts in
``setup_s``.

A *round* is every registered strategy on resnet34/cpu, resnet34/gpu and
densenet161/cpu: 18 requests (see :func:`plan`).  resnet34 (11 unique shapes) keeps the tuning-context working set
inside its LRU; densenet161 (86 unique shapes) pushes it past it.  The
worker runs whole rounds, and starts another only if the last one would
still fit in ``--seconds``: the request mix, and so the median, is the
same in every run.

A request's time is the CPU seconds the worker spent in it: with BLAS
pinned to one thread and no waiting, that is its wall time on an
uncontended core, and it does not move with the steal time of a shared
host.  Wall times are kept in the record.
"""

from __future__ import annotations

import contextlib
import json
import tempfile
import time
from pathlib import Path

import common
import tracing

#: the targets of one round, in the order a round runs them
ROUND = (("resnet34", "cpu"), ("resnet34", "gpu"), ("densenet161", "cpu"))
TINY_ROUND = (("resnet18", "cpu"),)
TINY_REQUEST = {"budget": 6, "trials": 2, "image_size": 8}
WARM_UP = {"model": "resnet18", "platform": "cpu", "strategy": "greedy",
           "seed": 0}
SETUP_PROBES = 2
RETUNE_SAMPLES = 3
CLI_START_SAMPLES = 3


def plan(tiny: bool = False) -> list[dict]:
    """One round: each target of :data:`ROUND` under every strategy.

    The round is the same in every run — search seed 0, strategies in
    registry order, targets in :data:`ROUND` order — because on this
    workload the draw swamped the program: with drawn search seeds the
    densenet161 requests alone ranged from 1.5 s to 8 s, and with a
    seeded order the first requests of each target (which pay its
    compiles and tuning contexts) moved the median by over 20% between
    runs.  resnet34 never runs right after densenet161 has churned the
    tuning-context LRU.  The workload seed still draws which chosen
    programs the output check re-tunes.
    """
    from repro.core.search import SEARCH_STRATEGY_REGISTRY

    strategies = ("greedy", "model_guided") if tiny else tuple(
        SEARCH_STRATEGY_REGISTRY)
    return [{"model": model, "platform": platform, "strategy": strategy,
             "seed": 0, **(TINY_REQUEST if tiny else {})}
            for model, platform in (TINY_ROUND if tiny else ROUND)
            for strategy in strategies]


# ---------------------------------------------------------------------------
# The worker: one fresh interpreter, started through bootstrap.py
# ---------------------------------------------------------------------------

def worker(argv: list[str], *, tracer) -> int:
    """Run the job file's rounds; write per-request walls and results."""
    import repro

    job = json.loads(Path(argv[0]).read_text())
    scratch = Path(job["scratch"])

    def fresh_dir() -> str:
        return tempfile.mkdtemp(dir=scratch)

    repro.optimize(**{**WARM_UP, **job.get("warm_up", {})},
                   cache_dir=fresh_dir())
    setup_cpu_s = time.process_time()
    records = []
    started = time.perf_counter()
    last_round = 0.0
    for requests in job["rounds"]:
        if records and (time.perf_counter() - started) + last_round > job["seconds"]:
            break
        round_started = time.perf_counter()
        for index, request in enumerate(requests, start=len(records)):
            span = (tracer.span("request", key=index) if tracer
                    else contextlib.nullcontext())
            begin, begin_cpu = time.perf_counter(), time.process_time()
            try:
                with span:
                    document = repro.optimize(**request,
                                              cache_dir=fresh_dir()).to_dict()
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed request is counted
                document, error = None, f"{type(exc).__name__}: {exc}"
            records.append({"request": request,
                            "wall_s": time.perf_counter() - begin,
                            "request_s": time.process_time() - begin_cpu,
                            "result": document, "error": error})
        last_round = time.perf_counter() - round_started
    output = {"setup_s": setup_cpu_s, "records": records,
              "elapsed_s": time.perf_counter() - started,
              "rss_mb": common.self_rss_mb()}
    Path(job["output"]).write_text(json.dumps(output))
    return 0


def _run_worker(work: Path, tag: str, rounds, seconds: float, tiny: bool,
                trace: Path | None = None) -> dict:
    job = {"rounds": rounds, "seconds": seconds,
           "scratch": str(work / f"{tag}-stores"),
           "output": str(work / f"{tag}.json"),
           "warm_up": TINY_REQUEST if tiny else {}}
    Path(job["scratch"]).mkdir()
    job_file = work / f"{tag}-job.json"
    job_file.write_text(json.dumps(job))
    completed, _, _ = common.run_child(
        common.bootstrap("--worker", "search_cold", str(job_file), trace=trace))
    if completed.returncode != 0:
        raise RuntimeError(f"search-cold worker {tag} exited "
                           f"{completed.returncode}:\n{completed.stderr[-4000:]}")
    return json.loads(Path(job["output"]).read_text())


# ---------------------------------------------------------------------------
# The parent side
# ---------------------------------------------------------------------------

def run(ctx) -> dict:
    """Measure the workload; returns the run's outcome for run.py."""
    rounds = [plan(ctx.tiny)] * 8
    if ctx.trace:
        # Both passes of a traced run share every other request of a round.
        rounds = [rounds[0][::2]]
    main = _run_worker(ctx.work, "main", rounds, ctx.seconds, ctx.tiny)
    records = main["records"]
    documents = [record["result"] for record in records]
    if ctx.corrupt and documents and documents[0] is not None:
        documents[0] = common.corrupt(documents[0])
    ctx.check_all(records, documents, RETUNE_SAMPLES)
    times = [record["request_s"] for record in records]
    outcome = {"attempted": len(records), "detail": {
        "requests": [r["request"] for r in records],
        "request_s": times, "wall_s": [r["wall_s"] for r in records]}}
    if ctx.trace:
        outcome["per_layer"] = _traced_pass(ctx, records)
        return outcome
    setups = [main["setup_s"]] + [
        _run_worker(ctx.work, f"setup-{probe}", [], 0, ctx.tiny)["setup_s"]
        for probe in range(SETUP_PROBES)]
    outcome["end_to_end"] = ctx.end_to_end(
        times, setups, requests_per_s=len(records) / sum(times),
        documents=documents, peak_rss_mb=main["rss_mb"],
        cli_start=ctx.time_cli_start(CLI_START_SAMPLES))
    return outcome


def _traced_pass(ctx, records: list[dict]) -> dict:
    """The same requests again in a fresh traced worker; per-layer split."""
    trace_file = ctx.work / "search-cold.trace.json"
    traced = _run_worker(ctx.work, "traced",
                         [[record["request"] for record in records]],
                         1e9, ctx.tiny, trace=trace_file)
    roots = {root["key"]: root for root in tracing.read_roots(trace_file)
             if root["name"] == "request"}
    traced_requests = [
        {"wall_s": record["wall_s"], "self_ns": roots[index]["self_ns"],
         "counters": roots[index]["counters"], "result": record["result"]}
        for index, record in enumerate(traced["records"])]
    return ctx.per_layer(traced_requests, untraced=records,
                         traced=traced["records"], trace_file=trace_file)
