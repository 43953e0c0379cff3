"""Shared pieces of the end-to-end benchmark: environment, statistics, checks.

Every process the benchmark starts runs with its BLAS threads pinned to
one (:data:`BLAS_PIN`): unpinned OpenBLAS threads were the largest
source of run-to-run noise, and two of them per process oversubscribe
a two-core machine as soon as the daemon runs two workers.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Working state (stores, state dirs, traces) and the kept records.
WORK = ROOT / ".perfbench"

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

#: The harness's pid, inherited by every child it starts.
PARENT_ENV = "PERFBENCH_PARENT_PID"
#: ``prctl`` option: signal this process when its parent dies (Linux).
PR_SET_PDEATHSIG = 1

#: Result-document statistics that vary with wall clock or cache warmth,
#: never with the search's decisions (as tools/service_smoke.py strips).
VOLATILE_STATISTICS = (
    "search_seconds", "compile_hits", "compile_misses", "prefix_hits",
    "prefix_depth_saved", "steps_replayed", "evictions", "invalidations",
)


def pin_environment() -> None:
    """Pin BLAS threads, drop ``REPRO_*`` knobs, and put ``src`` on the path.

    Must run before numpy is imported anywhere in the process.
    """
    os.environ.update(BLAS_PIN)
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = f"{SRC}{os.pathsep}{path}" if path else str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` and name this process as the parent.

    A terminated harness then unwinds its ``finally`` blocks — stopping
    the daemon it serves from, killing a running child, removing its
    work directory — instead of dying on the spot and orphaning them.
    """
    os.environ[PARENT_ENV] = str(os.getpid())
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))


def die_with_parent() -> None:
    """Have the kernel SIGTERM this child when the harness dies.

    Covers a harness killed outright (SIGKILL), which runs no cleanup:
    a ``repro serve`` child would otherwise serve on forever.  Exits at
    once if the harness already died before the request took effect.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: nothing to ask for
        return
    parent = os.environ.get(PARENT_ENV)
    if parent is not None and os.getppid() != int(parent):
        sys.exit(1)


def python(*args: str) -> list[str]:
    """A child command line for this interpreter."""
    return [sys.executable, *args]


def bootstrap(*args: str, trace: Path | None = None,
              job_cpu: Path | None = None) -> list[str]:
    """A child command line through ``bootstrap.py``."""
    head = [str(BENCH / "bootstrap.py")]
    if trace is not None:
        head += ["--trace", str(trace)]
    if job_cpu is not None:
        head += ["--job-cpu", str(job_cpu)]
    return python(*head, *args)


def run_child(command: list[str], *, timeout: float = 170.0
              ) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run a child to completion, capturing its output.

    Returns the completed process, its wall seconds (spawn to exit) and
    the CPU seconds (user + system) it used.
    """
    before = children_cpu_s()
    begin = time.perf_counter()
    completed = subprocess.run(command, capture_output=True, text=True,
                               timeout=timeout, cwd=ROOT)
    return completed, time.perf_counter() - begin, children_cpu_s() - before


def children_cpu_s() -> float:
    """CPU seconds used so far by every waited-for child process."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    middle = len(values) // 2
    if len(values) % 2:
        return float(values[middle])
    return (values[middle - 1] + values[middle]) / 2.0


def tail(values, beyond: int = 10) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that
    still has ``beyond`` samples above it.

    With ``n`` samples that is the ``n - beyond``-th smallest, at
    percentile ``100 * (n - beyond) / n``.  With ``beyond`` samples or
    fewer it falls back to the minimum, at percentile ``100 / n``.
    """
    values = sorted(values)
    count = len(values)
    if count == 0:
        return 0.0, 0.0, 0
    rank = max(count - beyond, 1)
    return float(values[rank - 1]), 100.0 * rank / count, count


def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_children_rss_mb() -> float:
    """Largest resident set of any waited-for child, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def stripped(document: dict) -> dict:
    """A result document without the statistics that vary run to run."""
    document = dict(document)
    document.pop("engine_statistics", None)
    statistics = dict(document.get("search_statistics", {}))
    for key in VOLATILE_STATISTICS:
        statistics.pop(key, None)
    document["search_statistics"] = statistics
    return document


def check_result(document: dict, rng, retune_samples: int) -> list[str]:
    """Problems with one result document; empty when it passes.

    Checks what holds for every correct result whatever produced it: the
    optimised latency is the sum of the chosen layers' latencies and no
    worse than the baseline; the chosen assignment's Fisher Potential
    reaches the request's threshold; and a seeded sample of the chosen
    ``(shape, program)`` pairs, re-tuned through ``repro.tune`` with the
    compile trie and the shared tuning contexts emptied first, reproduces
    the recorded latencies bit for bit.
    """
    import repro
    from repro.core import compile_cache
    from repro.tenir.autotune import clear_tuning_contexts

    result = repro.OptimizationResult.from_dict(document)
    request = result.request
    problems = []
    if request is None:
        return ["the result carries no request document"]
    if not result.optimized_latency_seconds <= result.baseline_latency_seconds:
        problems.append("optimised latency exceeds the baseline")
    layers_total = math.fsum(layer.latency_seconds for layer in result.layers)
    if not math.isclose(layers_total, result.optimized_latency_seconds,
                        rel_tol=1e-9):
        problems.append("optimised latency is not the sum of its layers")
    potential = result.fisher_original + math.fsum(
        layer.fisher_score - layer.baseline_fisher_score
        for layer in result.layers)
    if not math.isclose(potential, result.fisher_optimized, rel_tol=1e-9,
                        abs_tol=1e-12):
        problems.append("Fisher Potential does not add up over the layers")
    if result.fisher_optimized < request.fisher_threshold * result.fisher_original:
        problems.append("the chosen assignment is not Fisher-legal")
    layers = [layer for layer in result.layers if layer.shape is not None]
    picks = rng.choice(len(layers), size=min(retune_samples, len(layers)),
                       replace=False) if layers else []
    for index in sorted(int(pick) for pick in picks):
        layer = layers[index]
        compile_cache.invalidate()
        clear_tuning_contexts()
        tuned = repro.tune(layer.shape, layer.program,
                           platform=result.platform,
                           trials=request.tuner_trials, seed=request.seed)
        if tuned.latency_seconds != layer.latency_seconds:
            problems.append(f"re-tuning {layer.layer} gave "
                            f"{tuned.latency_seconds!r}, the result records "
                            f"{layer.latency_seconds!r}")
    return problems


def corrupt(document: dict) -> dict:
    """A copy of ``document`` with one layer's latency silently changed.

    The smoke tests feed it through the same checks as a real result, to
    prove a corrupted output counts as failed.
    """
    document = dict(document)
    layers = [dict(layer) for layer in document["layers"]]
    layers[0]["latency_seconds"] *= 1.5
    document["layers"] = layers
    return document


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _commit() -> str:
    """The checkout's git commit, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha1 over ``src/**/*.py``: names the code when there is no git."""
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "blas_pin": dict(BLAS_PIN),
        "commit": _commit(), "source_sha1": source_digest(),
        "started_at": time.time(),
    }
