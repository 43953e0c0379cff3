"""The benchmark's own tests: span arithmetic, metric catalogue, smokes.

Run with either of::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

The file is deliberately not named ``test_*.py``: the repository's
tier-1 ``pytest`` run does not collect it, so the workload smokes (about
a minute of child processes) run only when asked for.
"""

from __future__ import annotations

import contextlib
import json
import queue
import sys
import threading

import common

common.pin_environment()

import layers  # noqa: E402 - after the BLAS pin
import tracing  # noqa: E402


class _Clock:
    """A clock the test moves by hand."""

    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_of_nested_spans():
    clock = _Clock()
    tracer = tracing.Tracer(clock=clock)
    with tracer.span("request", key=7):
        clock.now = 10
        with tracer.span("engine.tune_many"):
            clock.now = 15
            with tracer.span("tenir.tune"):
                clock.now = 25
            clock.now = 40
        clock.now = 50
        with tracer.span("fisher.candidate"):
            clock.now = 90
        clock.now = 100
    (root,) = tracer.roots
    assert root["key"] == 7 and root["dur_ns"] == 100
    assert root["self_ns"] == {"request": 30, "engine.tune_many": 20,
                               "tenir.tune": 10, "fisher.candidate": 40}
    assert sum(root["self_ns"].values()) == root["dur_ns"]
    assert root["calls"] == {"request": 1, "engine.tune_many": 1,
                             "tenir.tune": 1, "fisher.candidate": 1}
    events = tracer.chrome_events()
    assert [event["args"]["depth"] for event in events] == [2, 1, 1, 0]
    assert all(event["ph"] == "X" for event in events)


class _DrivenThread:
    """A thread that opens and closes spans when the test says so."""

    def __init__(self, tracer: tracing.Tracer):
        self.tracer = tracer
        self.commands: queue.Queue = queue.Queue()
        self.acks: queue.Queue = queue.Queue()
        self.thread = threading.Thread(target=self._body)
        self.thread.start()

    def _body(self) -> None:
        open_spans = []
        while (command := self.commands.get()) is not None:
            if command[0] == "open":
                span = self.tracer.span(command[1], **command[2])
                span.__enter__()
                open_spans.append(span)
            else:
                open_spans.pop().__exit__(None, None, None)
            self.acks.put(command)

    def do(self, *command) -> None:
        self.commands.put(command)
        self.acks.get(timeout=10)

    def finish(self) -> None:
        self.commands.put(None)
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


def test_self_time_of_spans_on_two_threads():
    """Interleaved spans on two threads never subtract each other's time."""
    clock = _Clock()
    tracer = tracing.Tracer(clock=clock)
    first, second = _DrivenThread(tracer), _DrivenThread(tracer)
    try:
        for now, thread, command in (
                (0, first, ("open", "service.job", {"key": "a"})),
                (5, second, ("open", "service.job", {"key": "b"})),
                (10, first, ("open", "tenir.tune", {})),
                (20, second, ("open", "fisher.profile", {})),
                (30, first, ("close",)),
                (35, second, ("close",)),
                (40, first, ("close",)),
                (60, second, ("close",))):
            clock.now = now
            thread.do(*command)
    finally:
        first.finish()
        second.finish()
    roots = {root["key"]: root for root in tracer.roots}
    assert roots["a"]["self_ns"] == {"service.job": 20, "tenir.tune": 20}
    assert roots["b"]["self_ns"] == {"service.job": 40, "fisher.profile": 15}
    for root in roots.values():
        assert sum(root["self_ns"].values()) == root["dur_ns"]


def test_layers_and_other_add_up_to_the_wall():
    request = {"wall_s": 2.0, "counters": {}, "result": None,
               "self_ns": {"tenir.tune": 500_000_000, "request": 100_000_000,
                           "cli.import": 250_000_000}}
    metrics = layers.per_layer_metrics([request])
    timed = sum(metrics[f"{layer}_s"] for layer in layers.TIMED_LAYERS)
    assert abs(timed + metrics["other_s"] - 2.0) < 1e-12
    assert abs(metrics["other_s"] - 1.25) < 1e-12


def test_tail_percentile_keeps_ten_samples_beyond():
    value, percentile, samples = common.tail(range(1, 31))
    assert (value, samples) == (20, 30)
    assert abs(percentile - 100 * 20 / 30) < 1e-12
    assert common.tail([3.0, 1.0, 2.0])[:2] == (1.0, 100 / 3)


def test_benchmark_json_names_the_catalogue():
    document = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in document["end_to_end"]] == [
        name for name, _, _ in layers.END_TO_END]
    assert [m["name"] for m in document["per_layer"]] == [
        name for name, _, _ in layers.PER_LAYER]
    for entry in document["end_to_end"] + document["per_layer"]:
        assert entry["unit"] == layers.UNITS[entry["name"]]
    import run

    assert [w["name"] for w in document["workloads"]] == list(run.WORKLOADS)


def _smoke(workload: str, *, trace: bool, corrupt: bool) -> dict:
    import run

    return run.run_workload(workload, 3, 4.0, trace, tiny=True,
                            corrupt=corrupt)


def _assert_corruption_counted(workload: str) -> None:
    record = _smoke(workload, trace=False, corrupt=True)
    assert record["attempted"] >= 2, record
    assert not record["correct"]
    assert list(record["failures"]) == ["0"], record["failures"]
    assert record["failed"] == 1


def _assert_traced_run_adds_up(workload: str) -> None:
    record = _smoke(workload, trace=True, corrupt=False)
    assert record["correct"], record["failures"]
    metrics = {name: entry["value"] for name, entry in record["metrics"].items()}
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    assert metrics["trace.requests"] >= 1 and metrics["failed_ratio"] == 0
    assert metrics["trace.overhead_ratio"] > 0
    trace = common.WORK / "records" / f"{workload}-seed3-trace1.trace.json"
    assert json.loads(trace.read_text())["traceEvents"]


def test_search_cold_smoke_counts_a_corrupted_result():
    _assert_corruption_counted("search-cold")


def test_replay_warm_smoke_counts_a_corrupted_result():
    _assert_corruption_counted("replay-warm")


def test_service_open_smoke_counts_a_corrupted_result():
    _assert_corruption_counted("service-open")


def test_search_cold_traced_smoke():
    _assert_traced_run_adds_up("search-cold")


def test_replay_warm_traced_smoke():
    _assert_traced_run_adds_up("replay-warm")


def test_service_open_traced_smoke():
    _assert_traced_run_adds_up("service-open")


def main() -> int:
    tests = [(name, value) for name, value in globals().items()
             if name.startswith("test_") and callable(value)]
    failed = 0
    for name, test in tests:
        try:
            with contextlib.redirect_stdout(sys.stderr):
                test()
        except Exception as exc:  # noqa: BLE001 - report every failing test
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
