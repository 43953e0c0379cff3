"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import SyntheticImageDataset
from repro.poly.statement import ConvolutionShape

# The golden references (tests/reference/) import as ``tests.reference``
# from both suites, however pytest was launched.
REPO_ROOT = str(Path(__file__).resolve().parents[1])
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def small_conv_shape() -> ConvolutionShape:
    """A small standard convolution used across compiler-layer tests."""
    return ConvolutionShape(c_out=8, c_in=8, h_out=6, w_out=6, k_h=3, k_w=3)


@pytest.fixture
def tiny_dataset() -> SyntheticImageDataset:
    """A small CIFAR-like dataset shared by training-related tests."""
    return SyntheticImageDataset.cifar10_like(train_size=48, test_size=24, image_size=8, seed=0)
