"""Integer ``REPRO_*`` environment knobs fail as typed errors.

A mistyped knob must raise :class:`~repro.errors.ReproError` naming the
variable — never a bare ``ValueError``, and never at ``import repro``,
so the CLI can print it as a clean error.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import faults
from repro.core.compile_cache import CompileCache
from repro.errors import ReproError
from repro.hardware import get_platform
from repro.poly.statement import ConvolutionShape
from repro.tenir import autotune, conv2d_compute
from repro.utils import env_int

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestEnvInt:
    def test_unset_gives_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", 7, minimum=1) == 7

    def test_parses_and_checks_the_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "12")
        assert env_int("REPRO_TEST_KNOB", 7, minimum=1) == 12
        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        with pytest.raises(ReproError, match="REPRO_TEST_KNOB must be >= 1"):
            env_int("REPRO_TEST_KNOB", 7, minimum=1)

    def test_non_integer_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "abc")
        with pytest.raises(ReproError, match="REPRO_TEST_KNOB must be an integer"):
            env_int("REPRO_TEST_KNOB", 7)


class TestKnobs:
    def test_tuning_contexts(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CONTEXTS", "abc")
        monkeypatch.setattr(autotune, "_max_contexts", None)
        autotune.clear_tuning_contexts()
        with pytest.raises(ReproError, match="REPRO_TUNING_CONTEXTS"):
            autotune.shared_tuning_context(
                conv2d_compute(ConvolutionShape(8, 8, 6, 6, 3, 3)),
                get_platform("cpu"))

    def test_compile_cache_entries(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE_ENTRIES", "abc")
        cache = CompileCache()  # reading is deferred to first use
        with pytest.raises(ReproError, match="REPRO_COMPILE_CACHE_ENTRIES"):
            cache.max_entries
        monkeypatch.setenv("REPRO_COMPILE_CACHE_ENTRIES", "0")
        with pytest.raises(ReproError, match="must be >= 1"):
            CompileCache().max_entries
        monkeypatch.setenv("REPRO_COMPILE_CACHE_ENTRIES", "5")
        assert CompileCache().max_entries == 5

    def test_faults_seed(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "worker_crash:0.25")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV, "abc")
        with pytest.raises(ReproError, match=faults.FAULTS_SEED_ENV):
            faults.active_plan()

    @pytest.mark.parametrize("knob", ("REPRO_TUNING_CONTEXTS",
                                      "REPRO_COMPILE_CACHE_ENTRIES"))
    def test_cli_prints_the_typed_error(self, knob, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC, **{knob: "abc"})
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "tune", "--shape", "8x8x6x6x3x3",
             "--trials", "2", "--cache-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert completed.returncode == 1, completed.stderr
        assert f"error: {knob} must be an integer" in completed.stderr
        assert "Traceback" not in completed.stderr
