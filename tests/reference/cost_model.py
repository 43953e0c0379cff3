"""The scalar cost-model formulas the batch path is pinned against.

:func:`estimate_latency` and :func:`estimate_dram_traffic` are the
per-nest Python implementations of the roofline and the cache-reuse
traffic model; :func:`vectorised_dram_traffic` is the intermediate
one-nest numpy form over the memoised traffic arrays.  The
schedule-quality factors are shared with ``src/`` (the batch path calls
the same per-nest helpers), so what these references pin is the traffic
model and the roofline combination.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.cost_model import (
    LatencyEstimate,
    _cpu_parallelism,
    _gpu_mapping,
    _instruction_efficiency,
    _vector_efficiency,
)
from repro.hardware.platform import PlatformSpec
from repro.tenir.lower import LoweredNest


def _tensor_footprints(nest: LoweredNest, depth: int) -> dict[str, int]:
    """Unique elements touched per tensor by the sub-nest starting at ``depth``."""
    varying = nest.varying_iterators_from(depth)
    footprints: dict[str, int] = {}
    for access in nest.accesses:
        elements = access.footprint(varying)
        footprints[access.tensor] = max(footprints.get(access.tensor, 0), elements)
    return footprints


def _reuse_depth(nest: LoweredNest, cache_bytes: int) -> int:
    """Outermost loop depth whose sub-nest working set fits in the cache."""
    for depth in range(len(nest.loops) + 1):
        footprint = sum(_tensor_footprints(nest, depth).values()) * nest.element_bytes
        if footprint <= cache_bytes:
            return depth
    return len(nest.loops)


def estimate_dram_traffic(nest: LoweredNest, cache_bytes: int) -> float:
    """DRAM bytes moved by the nest under a shared cache of ``cache_bytes``."""
    depth = _reuse_depth(nest, cache_bytes)
    footprints = _tensor_footprints(nest, depth)
    outer_loops = nest.loops[:depth]
    traffic_bytes = 0.0
    for access in nest.accesses:
        footprint = footprints[access.tensor]
        # Only outer loops that change this tensor's working set force refetches.
        refetch = 1
        for loop in outer_loops:
            if access.stride_of(loop.name) != 0 or any(
                loop.name in coeffs for coeffs in access.dim_coefficients
            ):
                refetch *= loop.extent
        tensor_bytes = footprint * refetch * nest.element_bytes
        # Compulsory lower bound: the tensor must be read/written at least once.
        tensor_bytes = max(tensor_bytes, access.total_elements * nest.element_bytes)
        # Writes cost twice (write-allocate + write-back).
        if access.is_write:
            tensor_bytes *= 2
        traffic_bytes += tensor_bytes
    return traffic_bytes


def vectorised_dram_traffic(nest: LoweredNest, cache_bytes: int) -> float:
    """DRAM traffic from the nest's precomputed locality arrays.

    Same quantity as :func:`estimate_dram_traffic`, computed over the
    memoised traffic arrays instead of per-depth Python loops — one numpy
    round-trip per nest, the form the batch path replaced.
    """
    arrays = nest.traffic_arrays()
    fits = arrays.working_set_bytes <= cache_bytes
    depth = int(np.argmax(fits)) if fits.any() else len(nest.loops)
    per_access = arrays.tensor_footprints[depth] * arrays.refetch[depth] * nest.element_bytes
    per_access = np.maximum(per_access, arrays.compulsory_bytes)
    return float(np.sum(per_access * arrays.write_factor))


def estimate_latency(nest: LoweredNest, platform: PlatformSpec) -> LatencyEstimate:
    """Estimate the latency of one scheduled operator on one platform."""
    flops = 2.0 * nest.macs
    dram_bytes = estimate_dram_traffic(nest, platform.cache_bytes)
    overhead = platform.launch_overhead_us * 1e-6

    if platform.is_gpu:
        concurrency, coalescing, mapping_quality = _gpu_mapping(nest, platform)
        instr = _instruction_efficiency(nest)
        effective_flops = platform.peak_flops * concurrency * mapping_quality * instr
        compute_seconds = flops / max(effective_flops, 1.0)
        memory_seconds = dram_bytes / (platform.dram_bandwidth * coalescing)
        vector_eff = coalescing
        parallel_fraction = concurrency
    else:
        cores_used, parallel_eff = _cpu_parallelism(nest, platform)
        vector_eff = _vector_efficiency(nest, platform)
        instr = _instruction_efficiency(nest)
        per_core_peak = platform.peak_flops / platform.cores
        effective_flops = per_core_peak * cores_used * parallel_eff * vector_eff * instr
        compute_seconds = flops / max(effective_flops, 1.0)
        bandwidth_share = 0.55 + 0.45 * (cores_used / platform.cores)
        memory_seconds = dram_bytes / (platform.dram_bandwidth * bandwidth_share)
        parallel_fraction = cores_used / platform.cores

    seconds = max(compute_seconds, memory_seconds) + overhead
    return LatencyEstimate(
        seconds=seconds,
        compute_seconds=compute_seconds,
        memory_seconds=memory_seconds,
        overhead_seconds=overhead,
        dram_bytes=dram_bytes,
        flops=flops,
        vector_efficiency=vector_eff,
        parallel_fraction=parallel_fraction,
        details={"instruction_efficiency": _instruction_efficiency(nest)},
    )
