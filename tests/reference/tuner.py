"""The pre-fast-path tuning loop."""

from __future__ import annotations

from repro.errors import ScheduleError
from repro.hardware.platform import PlatformSpec
from repro.tenir.autotune import (
    ScheduleParameters,
    TuningResult,
    default_schedule,
    sample_parameters,
)
from repro.tenir.expr import Computation
from repro.tenir.lower import lower
from repro.utils import make_rng
from tests.reference.cost_model import estimate_latency


def reference_tune(computation: Computation, platform: PlatformSpec,
                   trials: int = 16, seed: int | None = None) -> TuningResult:
    """What ``AutoTuner.tune`` did before the ``TuningContext`` fast path.

    Rebuilds the schedule, re-classifies loops, re-lowers and runs the
    scalar cost model from scratch on every trial.
    """
    if trials < 1:
        raise ScheduleError("the tuner needs at least one trial")
    rng = make_rng(seed)
    best: TuningResult | None = None
    for trial in range(trials):
        params = (ScheduleParameters() if trial == 0
                  else sample_parameters(computation, platform, rng))
        try:
            stage = default_schedule(computation, platform, params)
        except ScheduleError:
            continue
        nest = lower(stage)
        estimate = estimate_latency(nest, platform)
        candidate = TuningResult(stage, nest, estimate, params, trials)
        if best is None or candidate.seconds < best.seconds:
            best = candidate
    if best is None:
        raise ScheduleError("auto-tuning failed to produce a single valid schedule")
    return best
