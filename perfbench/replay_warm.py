"""Workload ``replay-warm``: CLI searches against a warm store, closed loop.

Set-up fills one cache store by running the request list once,
in-process: every registered strategy on resnet34/cpu and
resnext29_2x64d/cpu, each with a search seed drawn from the workload
seed.  The timed loop then replays the list in seeded order, one
``python -m repro optimize ... --cache-dir <store> --json`` process per
request, and after every :data:`HELP_EVERY` requests times one
``python -m repro --help`` process for ``cli_start_s``.

The tuner does no work here, so Fisher scoring, candidate generation,
store reads and CLI start-up dominate; the store is read, where
``search-cold`` writes it.  Each replayed result must equal the
in-process cold result of the same request.

A request's time is the CPU seconds (user + system) of its process, the
set-up's the CPU seconds of the fill: on an uncontended core that is the
wall time, and it does not move with a shared host's steal time.  Wall
times are kept in the record.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import common
import tracing

MODELS = ("resnet34", "resnext29_2x64d")
TINY_REQUEST = {"budget": 6, "trials": 2, "image_size": 8}
HELP_EVERY = 3
RETUNE_SAMPLES = 3
CLI_FLAGS = {"model": "--model", "platform": "--platform",
             "strategy": "--strategy", "seed": "--seed", "budget": "--budget",
             "trials": "--trials", "image_size": "--image-size"}


def plan(seed: int, tiny: bool = False) -> list[dict]:
    """The request list, drawn from the workload seed."""
    from repro.core.search import SEARCH_STRATEGY_REGISTRY

    rng = np.random.default_rng([seed, 0x3EA1])
    if tiny:
        return [{"model": "resnet18", "platform": "cpu", "strategy": strategy,
                 "seed": int(rng.integers(0, 1 << 16)), **TINY_REQUEST}
                for strategy in ("greedy", "model_guided")]
    return [{"model": model, "platform": "cpu", "strategy": strategy,
             "seed": int(rng.integers(0, 1 << 16))}
            for model in MODELS for strategy in SEARCH_STRATEGY_REGISTRY]


def cli_arguments(request: dict, store: Path) -> list[str]:
    arguments = ["optimize"]
    for field, value in request.items():
        arguments += [CLI_FLAGS[field], str(value)]
    return arguments + ["--cache-dir", str(store), "--json"]


def _replay(request: dict, store: Path, trace: Path | None) -> dict:
    arguments = cli_arguments(request, store)
    command = (common.bootstrap("--cli", *arguments, trace=trace)
               if trace is not None else common.python("-m", "repro", *arguments))
    completed, wall, cpu = common.run_child(command)
    record = {"request": request, "wall_s": wall, "request_s": cpu,
              "result": None, "error": None}
    if completed.returncode != 0:
        record["error"] = (f"exited {completed.returncode}: "
                           f"{completed.stderr.strip()[-2000:]}")
        return record
    try:
        record["result"] = json.loads(completed.stdout)
    except json.JSONDecodeError as exc:
        record["error"] = f"unreadable --json output: {exc}"
    return record


def run(ctx) -> dict:
    import repro

    requests = plan(ctx.seed, ctx.tiny)
    store = ctx.work / "store"
    begin = time.process_time()
    cold = [repro.optimize(**request, cache_dir=store).to_dict()
            for request in requests]
    setup_s = time.process_time() - begin

    rng = np.random.default_rng([ctx.seed, 0x3EA2])
    order: list[int] = []
    records: list[dict] = []
    traced: list[dict] = []
    helps: list[float] = []
    started = time.perf_counter()
    while time.perf_counter() - started < ctx.seconds:
        if not order:
            order = [int(index) for index in rng.permutation(len(requests))]
        index = order.pop()
        records.append({**_replay(requests[index], store, None),
                        "plan_index": index})
        if ctx.trace:
            # Right after its untraced twin, so drift in the host's speed
            # does not show up as tracing overhead.
            trace_file = ctx.work / f"replay-{len(traced)}.trace.json"
            traced.append({**_replay(requests[index], store, trace_file),
                           "trace_file": trace_file})
        if len(records) % HELP_EVERY == 0:
            helps.extend(ctx.time_cli_start(1))
    if not helps:
        helps.extend(ctx.time_cli_start(1))

    documents = [record["result"] for record in records]
    if ctx.corrupt and documents and documents[0] is not None:
        documents[0] = common.corrupt(documents[0])
    expected = [cold[record["plan_index"]] for record in records]
    ctx.check_all(records, documents, RETUNE_SAMPLES, expected=expected)
    times = [record["request_s"] for record in records]
    outcome = {"attempted": len(records)}
    outcome["end_to_end"] = ctx.end_to_end(
        times, [setup_s], requests_per_s=len(records) / sum(times),
        documents=documents, peak_rss_mb=common.peak_children_rss_mb(),
        cli_start=helps)
    outcome["detail"] = {
        "requests": [r["request"] for r in records],
        "request_s": times, "wall_s": [r["wall_s"] for r in records]}

    if ctx.trace:
        traced_requests = []
        for timed in traced:
            # A child that failed may have died before writing its spans.
            merged = tracing.merge_roots(
                tracing.read_roots(timed["trace_file"])
                if timed["trace_file"].exists() else [])
            traced_requests.append({"wall_s": timed["wall_s"],
                                    "self_ns": merged["self_ns"],
                                    "counters": merged["counters"],
                                    "result": timed["result"]})
        combined = ctx.work / "replay-warm.trace.json"
        _combine_traces([timed.pop("trace_file") for timed in traced], combined)
        outcome["per_layer"] = ctx.per_layer(
            traced_requests, untraced=records, traced=traced,
            trace_file=combined)
    return outcome


def _combine_traces(paths: list[Path], destination: Path) -> None:
    """One Chrome trace holding every traced CLI process (one pid each)."""
    events, roots = [], []
    for path in paths:
        if not path.exists():
            continue
        document = json.loads(path.read_text())
        events.extend(document["traceEvents"])
        roots.extend(document["perfbench"]["roots"])
    destination.write_text(json.dumps({
        "traceEvents": events, "displayTimeUnit": "ms",
        "perfbench": {"roots": roots}}))
