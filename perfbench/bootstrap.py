"""Start a ``repro`` CLI process or a benchmark worker, optionally traced.

Usage::

    python perfbench/bootstrap.py [--trace FILE] [--job-cpu FILE] --cli serve ...
    python perfbench/bootstrap.py [--trace FILE] --worker search_cold JOB.json

Asks to be terminated when the harness that started it dies, pins BLAS
threads and puts ``src`` on the path before anything imports numpy.  With ``--trace`` it times ``import repro`` (plus the CLI module)
as the ``cli.import`` span, wraps every layer's public entry points
(:func:`tracing.install`) and writes the spans to ``FILE`` as Chrome
trace-event JSON when the process exits.  With ``--job-cpu`` it records
the CPU seconds each daemon job's worker thread spends on it and writes
``{job_id: seconds}`` to ``FILE`` when the process exits.  ``--cli``
then runs ``repro.cli.main`` exactly as ``python -m repro`` would.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path

import common
import tracing


def record_job_cpu(path: str) -> None:
    """Time each daemon job's worker-thread CPU; write them at exit.

    Thread CPU time leaves out the time a job waits for the interpreter
    lock or for a host that steals the core, which wall time does not.
    """
    from repro.service import daemon

    run_job = daemon.OptimizationService._run_job
    seconds: dict[str, float] = {}

    @functools.wraps(run_job)
    def timed_run_job(service, job):
        begin = time.thread_time()
        try:
            return run_job(service, job)
        finally:
            seconds[job.job_id] = (seconds.get(job.job_id, 0.0)
                                   + time.thread_time() - begin)

    daemon.OptimizationService._run_job = timed_run_job
    atexit.register(lambda: Path(path).write_text(json.dumps(seconds)))


def main(argv: list[str]) -> int:
    options = {}
    while argv[:1] in (["--trace"], ["--job-cpu"]):
        options[argv[0]], argv = argv[1], argv[2:]
    if not argv or argv[0] not in ("--cli", "--worker"):
        print(__doc__, file=sys.stderr)
        return 2
    kind, rest = argv[0], argv[1:]
    common.die_with_parent()
    common.pin_environment()
    trace = options.get("--trace")
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        atexit.register(tracer.write, trace)
    with tracer.span("cli.import") if tracer else contextlib.nullcontext():
        import repro.cli
    if tracer is not None:
        tracing.install(tracer)
    if "--job-cpu" in options:
        record_job_cpu(options["--job-cpu"])
    if kind == "--cli":
        return repro.cli.main(rest)
    worker = importlib.import_module(rest[0])
    return worker.worker(rest[1:], tracer=tracer)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
