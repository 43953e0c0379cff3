"""End-to-end benchmark of the repro optimizer: one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn

Workloads (see ``perfbench/README.md`` for why each exists):

* ``search-cold`` — cold ``repro.optimize`` searches in one interpreter;
* ``replay-warm`` — ``python -m repro optimize`` processes against a warm
  cache store, interleaved with ``python -m repro --help``;
* ``service-open`` — a ``repro serve --workers 2`` daemon fed open loop.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it runs the same requests twice — untraced, then
traced — and reports the per-layer split, the tracing overhead, and
fails unless both passes returned bit-identical results.

Every result is checked (``common.check_result`` plus the workload's own
reference); a request that raised, exited non-zero, finished ``failed``
or ``cancelled``, or failed a check counts as failed.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 1 when any check failed, 2 when the
source tree is missing.  A full record — provenance, tail percentile
and sample count, per-request detail — lands in
``.perfbench/records/``, with the Chrome trace of a traced run beside it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
import time
from pathlib import Path

import common

WORKLOADS = ("search-cold", "replay-warm", "service-open")


class Context:
    """What one workload run needs from the harness, and what it reports."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 work: Path, *, tiny: bool = False, corrupt: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tiny = tiny
        self.corrupt = corrupt
        #: request index -> problems found with it
        self.failures: dict[int, list[str]] = {}
        self.record: dict = {}

    def fail(self, index: int, problem: str) -> None:
        self.failures.setdefault(index, []).append(problem)

    def time_cli_start(self, samples: int) -> list[float]:
        """CPU seconds of ``python -m repro --help`` processes."""
        times = []
        for _ in range(samples):
            completed, _, cpu = common.run_child(
                common.python("-m", "repro", "--help"))
            if completed.returncode != 0:
                raise RuntimeError(f"repro --help exited {completed.returncode}")
            times.append(cpu)
        return times

    def check_all(self, records: list[dict], documents: list[dict | None],
                  retune_samples: int, expected: list[dict] | None = None) -> None:
        """Check every request's outcome (see ``common.check_result``)."""
        import numpy as np

        for index, (record, document) in enumerate(zip(records, documents)):
            if record.get("error"):
                self.fail(index, record["error"])
                continue
            if document is None:
                self.fail(index, "no result")
                continue
            rng = np.random.default_rng([self.seed, 0xC4EC, index])
            for problem in common.check_result(document, rng, retune_samples):
                self.fail(index, problem)
            if expected is not None and \
                    common.stripped(document) != common.stripped(expected[index]):
                self.fail(index, "result differs from the reference run")

    def end_to_end(self, times: list[float], setups: list[float], *,
                   requests_per_s: float, documents, peak_rss_mb: float,
                   cli_start: list[float]) -> dict[str, float]:
        """The end-to-end metrics from each request's ``request_s``."""
        value, percentile, samples = common.tail(times)
        self.record["request_s_tail"] = {"percentile": percentile,
                                         "samples": samples}
        self.record["cli_start_samples"] = cli_start
        self.record["setup_samples"] = setups
        return {
            "setup_s": common.median(setups),
            "request_s_p50": common.median(times),
            "request_s_tail": value,
            "requests_per_s": requests_per_s,
            "speedup_geomean": common.geomean(
                document["speedup"] for document in documents if document),
            "peak_rss_mb": peak_rss_mb,
            "cli_start_s": common.median(cli_start),
        }

    def per_layer(self, traced_requests: list[dict], *, untraced: list[dict],
                  traced: list[dict], trace_file: Path,
                  check_other: bool = True) -> dict[str, float]:
        """Per-layer split of the traced pass, plus the tracing checks.

        ``untraced`` and ``traced`` are the two passes' records of the
        same requests in the same order: tracing must not change any
        result, and the overhead is the ratio of their median walls.
        """
        import layers

        metrics = layers.per_layer_metrics(traced_requests)
        for index, (plain, timed) in enumerate(zip(untraced, traced)):
            if timed.get("error"):
                self.fail(index, f"traced pass: {timed['error']}")
            elif plain.get("result") is not None and \
                    common.stripped(plain["result"]) != common.stripped(timed["result"]):
                self.fail(index, "the result changed with tracing on")
        if check_other:
            for index, request in enumerate(traced_requests):
                if layers.other_seconds(request) < 0:
                    self.fail(index, "layer self times exceed the wall time")
        metrics["trace.overhead_ratio"] = common.ratio(
            common.median(r["request_s"] for r in traced),
            common.median(r["request_s"] for r in untraced[:len(traced)]))
        metrics["trace.requests"] = len(traced_requests)
        for name in ("loadgen.late_s_max", "service.latency_s_p50",
                     "service.latency_s_tail"):
            metrics.setdefault(name, 0.0)
        self.record["trace_file"] = trace_file.name
        return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 tiny: bool = False, corrupt: bool = False) -> dict:
    """Run one workload and write its record; returns the record, whose
    ``correct``, ``attempted``, ``failed`` and ``metrics`` feed the
    result line."""
    import layers

    module = importlib.import_module(name.replace("-", "_"))
    records_dir = common.WORK / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
    work = common.WORK / "work" / f"{name}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    ctx = Context(name, seed, seconds, trace, work, tiny=tiny, corrupt=corrupt)
    ctx.record["provenance"] = common.provenance(name, seed, seconds, trace)
    try:
        outcome = module.run(ctx)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        if trace:
            shutil.move(str(work / ctx.record["trace_file"]),
                         records_dir / f"{stem}.trace.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = outcome["attempted"]
    failed = len(ctx.failures)
    if trace:
        values = outcome["per_layer"]
        values["failed_ratio"] = common.ratio(failed, attempted)
        catalogue = layers.PER_LAYER
    else:
        values = outcome["end_to_end"]
        catalogue = layers.END_TO_END
    metrics = {metric: {"value": float(values[metric]), "unit": unit}
               for metric, unit, _ in catalogue}
    ctx.record.update({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics,
                       "failures": {str(k): v for k, v in ctx.failures.items()},
                       "detail": outcome.get("detail", {})})
    (records_dir / f"{stem}.json").write_text(json.dumps(ctx.record, indent=1))
    return ctx.record


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {common.SRC}",
              file=sys.stderr)
        return 2
    common.exit_on_sigterm()
    common.pin_environment()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    for name, result in results.items():
        tail = result.get("request_s_tail")
        for metric, entry in result["metrics"].items():
            note = ""
            if metric == "request_s_tail" and tail:
                note = (f"  (p{tail['percentile']:.1f} of "
                        f"{tail['samples']} requests)")
            print(f"{name:13s} {metric:30s} {entry['value']:14.6g} "
                  f"{entry['unit']}{note}")
        for index, problems in result["failures"].items():
            print(f"{name}: request {index} FAILED: {'; '.join(problems)}")
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {f"{name}/{metric}": entry for name, result in results.items()
                   for metric, entry in result["metrics"].items()}
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
