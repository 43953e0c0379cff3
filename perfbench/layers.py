"""The metric catalogue and the per-layer arithmetic over traced requests.

End-to-end metrics are measured with tracing off.  Per-layer metrics
come from a separate traced pass: each layer's *self* seconds per
request (see :mod:`tracing`), work counts taken from each result's own
``search_statistics`` / ``engine_statistics`` where the program already
counts them, and tracer counters where it does not.  ``other_s`` is the
request's wall time minus every layer's self time, so the layer columns
plus ``other_s`` add up to the wall time by construction; the traced
pass checks that no request's ``other_s`` is negative.
"""

from __future__ import annotations

from common import median, ratio

#: (name, unit, better) — reported with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("request_s_p50", "s", "lower"),
    ("request_s_tail", "s", "lower"),
    ("requests_per_s", "1/s", "higher"),
    ("speedup_geomean", "x", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("cli_start_s", "s", "lower"),
)

#: Layers timed by span; each reports ``<layer>_s`` self seconds per request.
TIMED_LAYERS = (
    "fisher.profile", "fisher.candidate", "space.generate",
    "program.compile", "legality.prescreen", "tenir.tune",
    "hardware.cost_batch", "engine.tune_many", "predictor.encode",
    "predictor.fit", "predictor.predict", "acquisition.score",
    "cache_store.load", "cache_store.append", "checkpoint.write",
    "service.jobstore_save", "cli.import",
)

#: (name, unit, better) — reported with ``--trace 1``.
PER_LAYER = tuple(
    [(f"{layer}_s", "s", "lower") for layer in TIMED_LAYERS] + [
        ("other_s", "s", "lower"),
        ("fisher.scored", "count", "lower"),
        ("fisher.hit_ratio", "ratio", "higher"),
        ("space.candidates", "count", "lower"),
        ("program.compile_calls", "count", "lower"),
        ("compile_cache.hit_ratio", "ratio", "higher"),
        ("legality.rejection_ratio", "ratio", "lower"),
        ("tenir.tune_calls", "count", "lower"),
        ("engine.latency_hit_ratio", "ratio", "higher"),
        ("engine.task_retries", "count", "lower"),
        ("predictor.fits", "count", "lower"),
        ("cache_store.entries_loaded", "count", "lower"),
        ("cache_store.entries_appended", "count", "lower"),
        ("checkpoint.writes", "count", "lower"),
        ("checkpoint.bytes", "bytes", "lower"),
        ("service.queue_wait_s_p50", "s", "lower"),
        ("service.latency_s_p50", "s", "lower"),
        ("service.latency_s_tail", "s", "lower"),
        ("loadgen.late_s_max", "s", "lower"),
        ("failed_ratio", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.requests", "count", "higher"),
    ])

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def per_layer_metrics(requests: list[dict]) -> dict[str, float]:
    """Per-layer metrics over traced requests.

    Each request is ``{"wall_s", "self_ns": {layer: ns}, "counters":
    {name: n}, "result": document or None}`` plus an optional
    ``"queue_wait_s"``.  Times and counts are means per request; ratios
    pool their numerators and denominators over all requests.
    """
    count = max(len(requests), 1)
    metrics: dict[str, float] = {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_s"] = sum(
            request["self_ns"].get(layer, 0) for request in requests) / 1e9 / count
    metrics["other_s"] = sum(other_seconds(request)
                             for request in requests) / count

    def engine(field: str) -> float:
        return sum((request["result"] or {}).get("engine_statistics", {})
                   .get(field, 0) for request in requests)

    def search(field: str) -> float:
        return sum((request["result"] or {}).get("search_statistics", {})
                   .get(field, 0) for request in requests)

    def counter(name: str) -> float:
        return sum(request["counters"].get(name, 0) for request in requests)

    fisher_hits, fisher_misses = engine("fisher_hits"), engine("fisher_misses")
    compile_hits, compile_misses = search("compile_hits"), search("compile_misses")
    latency_hits = engine("latency_hits")
    metrics.update({
        "fisher.scored": fisher_misses / count,
        "fisher.hit_ratio": ratio(fisher_hits, fisher_hits + fisher_misses),
        "space.candidates": search("candidate_sequences") / count,
        "program.compile_calls": (compile_hits + compile_misses) / count,
        "compile_cache.hit_ratio": ratio(compile_hits,
                                         compile_hits + compile_misses),
        "legality.rejection_ratio": ratio(engine("prescreen_rejections"),
                                          engine("prescreen_checks")),
        "tenir.tune_calls": engine("tuner_calls") / count,
        "engine.latency_hit_ratio": ratio(
            latency_hits, latency_hits + engine("latency_misses")),
        "engine.task_retries": engine("task_retries") / count,
        "predictor.fits": counter("predictor.fits") / count,
        "cache_store.entries_loaded": engine("loaded_entries") / count,
        "cache_store.entries_appended":
            counter("cache_store.entries_appended") / count,
        "checkpoint.writes": counter("checkpoint.writes") / count,
        "checkpoint.bytes": counter("checkpoint.bytes") / count,
        "service.queue_wait_s_p50": median(
            request["queue_wait_s"] for request in requests
            if "queue_wait_s" in request),
    })
    return metrics


def other_seconds(request: dict) -> float:
    """Wall time not covered by any timed layer's self time."""
    return request["wall_s"] - sum(
        request["self_ns"].get(layer, 0) for layer in TIMED_LAYERS) / 1e9
