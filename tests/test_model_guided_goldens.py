"""Pinned model_guided goldens: the chosen program of every layer.

``model_guided`` picks each round's tuning batch through the
constant-liar protocol (``liar="cl_mean"``, the default) or one static
ranking pass (``liar="none"``).  These values were captured from the
search before its two ``rank`` selectors were folded into one, and pin
that the fold changed no chosen program and no latency.
"""

from __future__ import annotations

import pytest

from repro.api import OptimizationSession

#: ``(liar, seed) -> (optimized_latency_seconds, {layer: program.describe()})``
#: for resnet18 on cpu, acquisition ``rank``, budget 60, default scale.
GOLDENS = {
    ('cl_mean', 0): (
        9.173648411076104e-05,
        {
            'stem_conv': 'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage0_block0.conv1':
                "spatial_bottleneck: reorder(front=('oh', 'ow', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=oh) -> '
                "reorder(front=('ow', 'oh', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=ow) -> '
                "reorder(front=('co', 'ci', 'oh', 'ow', 'kh', 'kw'))",
            'stage0_block0.conv2':
                'compose[bottleneck+bottleneck]: bottleneck(factor=4,iterator=ci) -> '
                'bottleneck(factor=2,iterator=co)',
            'stage0_block1.conv1':
                "spatial_bottleneck: reorder(front=('oh', 'ow', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=oh) -> '
                "reorder(front=('ow', 'oh', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=ow) -> '
                "reorder(front=('co', 'ci', 'oh', 'ow', 'kh', 'kw'))",
            'stage0_block1.conv2':
                "spatial_bottleneck: reorder(front=('oh', 'ow', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=oh) -> '
                "reorder(front=('ow', 'oh', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=ow) -> '
                "reorder(front=('co', 'ci', 'oh', 'ow', 'kh', 'kw'))",
            'stage1_block0.conv1':
                'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage1_block0.conv2':
                "spatial_bottleneck: reorder(front=('oh', 'ow', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=2,iterator=oh) -> '
                "reorder(front=('ow', 'oh', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=2,iterator=ow) -> '
                "reorder(front=('co', 'ci', 'oh', 'ow', 'kh', 'kw'))",
            'stage1_block0.shortcut.layer0':
                'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage1_block1.conv1':
                'compose[bottleneck+bottleneck+bottleneck]: bottleneck(factor=2,iterator=ci) -> '
                'bottleneck(factor=2,iterator=ci) -> '
                'bottleneck(factor=2,iterator=co)',
            'stage1_block1.conv2':
                'compose[bottleneck+bottleneck+bottleneck]: bottleneck(factor=2,iterator=ci) -> '
                'bottleneck(factor=2,iterator=ci) -> '
                'bottleneck(factor=2,iterator=co)',
            'stage2_block0.conv1':
                'compose[bottleneck+bottleneck]: bottleneck(factor=4,iterator=ci) -> '
                'bottleneck(factor=2,iterator=co)',
            'stage2_block0.conv2':
                'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage2_block0.shortcut.layer0':
                'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage2_block1.conv1':
                'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage2_block1.conv2':
                'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage3_block0.conv1':
                'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage3_block0.conv2':
                'compose[split+bottleneck+bottleneck]: split(parts=2) -> '
                'bottleneck(factor=2,iterator=co) -> '
                'bottleneck(factor=2,iterator=co)',
            'stage3_block0.shortcut.layer0':
                'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage3_block1.conv1': 'standard',
            'stage3_block1.conv2': 'standard',
        }),
    ('cl_mean', 1): (
        0.000117859625382119,
        {
            'stem_conv': 'bottleneck: bottleneck(factor=2,iterator=co)',
            'stage0_block0.conv1':
                "compose[reorder+reorder+reorder+bottleneck]: reorder(front=('kw',)) -> "
                "reorder(front=('co',)) -> reorder(front=('co',)) -> "
                'bottleneck(factor=4,iterator=co)',
            'stage0_block0.conv2':
                "compose[reorder+reorder+reorder+bottleneck]: reorder(front=('kw',)) -> "
                "reorder(front=('co',)) -> reorder(front=('co',)) -> "
                'bottleneck(factor=4,iterator=co)',
            'stage0_block1.conv1':
                "compose[reorder+reorder+reorder+bottleneck]: reorder(front=('kw',)) -> "
                "reorder(front=('co',)) -> reorder(front=('co',)) -> "
                'bottleneck(factor=4,iterator=co)',
            'stage0_block1.conv2':
                "compose[reorder+reorder+reorder+bottleneck]: reorder(front=('kw',)) -> "
                "reorder(front=('co',)) -> reorder(front=('co',)) -> "
                'bottleneck(factor=4,iterator=co)',
            'stage1_block0.conv1':
                'seq2: unroll(factor=16,iterator=co) -> group(factor=2) -> '
                "reorder(front=('g',))",
            'stage1_block0.conv2':
                "spatial_bottleneck: reorder(front=('oh', 'ow', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=oh) -> '
                "reorder(front=('ow', 'oh', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=ow) -> '
                "reorder(front=('co', 'ci', 'oh', 'ow', 'kh', 'kw'))",
            'stage1_block0.shortcut.layer0': 'standard',
            'stage1_block1.conv1':
                'seq3: split(parts=2) -> group(factor=2)@0 -> '
                "group(factor=2)@1 -> reorder(front=('g',))",
            'stage1_block1.conv2':
                "spatial_bottleneck: reorder(front=('oh', 'ow', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=oh) -> '
                "reorder(front=('ow', 'oh', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=ow) -> '
                "reorder(front=('co', 'ci', 'oh', 'ow', 'kh', 'kw'))",
            'stage2_block0.conv1': 'group: group(factor=2)',
            'stage2_block0.conv2': 'group: group(factor=2)',
            'stage2_block0.shortcut.layer0': 'standard',
            'stage2_block1.conv1': 'group: group(factor=2)',
            'stage2_block1.conv2': 'group: group(factor=2)',
            'stage3_block0.conv1':
                "input_bottleneck: reorder(front=('ci', 'co')) -> "
                'bottleneck(factor=4,iterator=ci)',
            'stage3_block0.conv2': 'standard',
            'stage3_block0.shortcut.layer0':
                "compose[reorder+reorder+reorder]: reorder(front=('co',)) -> "
                "reorder(front=('kh',)) -> reorder(front=('kw',))",
            'stage3_block1.conv1': 'standard',
            'stage3_block1.conv2': 'standard',
        }),
    ('none', 0): (
        8.969681696585429e-05,
        {
            'stem_conv': 'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage0_block0.conv1':
                "spatial_bottleneck: reorder(front=('oh', 'ow', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=oh) -> '
                "reorder(front=('ow', 'oh', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=ow) -> '
                "reorder(front=('co', 'ci', 'oh', 'ow', 'kh', 'kw'))",
            'stage0_block0.conv2':
                'compose[bottleneck+bottleneck]: bottleneck(factor=4,iterator=ci) -> '
                'bottleneck(factor=2,iterator=co)',
            'stage0_block1.conv1':
                "spatial_bottleneck: reorder(front=('oh', 'ow', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=oh) -> '
                "reorder(front=('ow', 'oh', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=ow) -> '
                "reorder(front=('co', 'ci', 'oh', 'ow', 'kh', 'kw'))",
            'stage0_block1.conv2':
                "spatial_bottleneck: reorder(front=('oh', 'ow', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=oh) -> '
                "reorder(front=('ow', 'oh', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=4,iterator=ow) -> '
                "reorder(front=('co', 'ci', 'oh', 'ow', 'kh', 'kw'))",
            'stage1_block0.conv1':
                'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage1_block0.conv2': 'standard',
            'stage1_block0.shortcut.layer0':
                "spatial_bottleneck: reorder(front=('oh', 'ow', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=2,iterator=oh) -> '
                "reorder(front=('ow', 'oh', 'co', 'ci', 'kh', 'kw')) -> "
                'bottleneck(factor=2,iterator=ow) -> '
                "reorder(front=('co', 'ci', 'oh', 'ow', 'kh', 'kw'))",
            'stage1_block1.conv1':
                'compose[bottleneck+bottleneck+bottleneck]: bottleneck(factor=2,iterator=ci) -> '
                'bottleneck(factor=2,iterator=ci) -> '
                'bottleneck(factor=2,iterator=co)',
            'stage1_block1.conv2':
                'compose[bottleneck+bottleneck+bottleneck]: bottleneck(factor=2,iterator=ci) -> '
                'bottleneck(factor=2,iterator=ci) -> '
                'bottleneck(factor=2,iterator=co)',
            'stage2_block0.conv1':
                'compose[bottleneck+bottleneck]: bottleneck(factor=4,iterator=ci) -> '
                'bottleneck(factor=2,iterator=co)',
            'stage2_block0.conv2':
                'compose[bottleneck+group]: bottleneck(factor=4,iterator=co) -> '
                'group(factor=4)',
            'stage2_block0.shortcut.layer0':
                'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage2_block1.conv1':
                'compose[bottleneck+group]: bottleneck(factor=4,iterator=co) -> '
                'group(factor=4)',
            'stage2_block1.conv2':
                'compose[bottleneck+group]: bottleneck(factor=4,iterator=co) -> '
                'group(factor=4)',
            'stage3_block0.conv1':
                'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage3_block0.conv2':
                'compose[tile+bottleneck]: tile(factor=4,iterator=ci) -> '
                'bottleneck(factor=4,iterator=co)',
            'stage3_block0.shortcut.layer0':
                'bottleneck: bottleneck(factor=4,iterator=co)',
            'stage3_block1.conv1': 'standard',
            'stage3_block1.conv2': 'standard',
        }),
    ('none', 1): (
        0.00012328762492685413,
        {
            'stem_conv':
                'compose[bottleneck+unroll+tile]: bottleneck(factor=2,iterator=co) -> '
                'unroll(factor=16,iterator=ci) -> tile(factor=4,iterator=co)',
            'stage0_block0.conv1':
                "compose[reorder+reorder+reorder+bottleneck]: reorder(front=('kw',)) -> "
                "reorder(front=('co',)) -> reorder(front=('co',)) -> "
                'bottleneck(factor=4,iterator=co)',
            'stage0_block0.conv2':
                "compose[reorder+reorder+reorder+bottleneck]: reorder(front=('kw',)) -> "
                "reorder(front=('co',)) -> reorder(front=('co',)) -> "
                'bottleneck(factor=4,iterator=co)',
            'stage0_block1.conv1':
                "compose[reorder+reorder+reorder+bottleneck]: reorder(front=('kw',)) -> "
                "reorder(front=('co',)) -> reorder(front=('co',)) -> "
                'bottleneck(factor=4,iterator=co)',
            'stage0_block1.conv2':
                "compose[reorder+reorder+reorder+bottleneck]: reorder(front=('kw',)) -> "
                "reorder(front=('co',)) -> reorder(front=('co',)) -> "
                'bottleneck(factor=4,iterator=co)',
            'stage1_block0.conv1':
                'seq1: split(factor=auto,floor=2,iterator=ow,limit=8) -> '
                "reorder(front=('ow_o',)) -> group(factor=2) -> "
                "reorder(front=('g', 'ow_o')) -> fuse(first=ow_o,second=ow_i)",
            'stage1_block0.conv2':
                'seq2: unroll(factor=16,iterator=co) -> group(factor=2) -> '
                "reorder(front=('g',))",
            'stage1_block0.shortcut.layer0': 'standard',
            'stage1_block1.conv1':
                'seq2: unroll(factor=16,iterator=co) -> group(factor=2) -> '
                "reorder(front=('g',))",
            'stage1_block1.conv2':
                'seq2: unroll(factor=16,iterator=co) -> group(factor=2) -> '
                "reorder(front=('g',))",
            'stage2_block0.conv1': 'group: group(factor=2)',
            'stage2_block0.conv2':
                'seq1: split(factor=auto,floor=2,iterator=ow,limit=8) -> '
                "reorder(front=('ow_o',)) -> group(factor=2) -> "
                "reorder(front=('g', 'ow_o')) -> fuse(first=ow_o,second=ow_i)",
            'stage2_block0.shortcut.layer0': 'standard',
            'stage2_block1.conv1':
                'seq1: split(factor=auto,floor=2,iterator=ow,limit=8) -> '
                "reorder(front=('ow_o',)) -> group(factor=2) -> "
                "reorder(front=('g', 'ow_o')) -> fuse(first=ow_o,second=ow_i)",
            'stage2_block1.conv2':
                'seq1: split(factor=auto,floor=2,iterator=ow,limit=8) -> '
                "reorder(front=('ow_o',)) -> group(factor=2) -> "
                "reorder(front=('g', 'ow_o')) -> fuse(first=ow_o,second=ow_i)",
            'stage3_block0.conv1': 'group: group(factor=4)',
            'stage3_block0.conv2': 'standard',
            'stage3_block0.shortcut.layer0':
                'seq1: split(factor=auto,floor=2,iterator=ow,limit=8) -> '
                "reorder(front=('ow_o',)) -> group(factor=2) -> "
                "reorder(front=('g', 'ow_o')) -> fuse(first=ow_o,second=ow_i)",
            'stage3_block1.conv1': 'standard',
            'stage3_block1.conv2': 'standard',
        }),
}


@pytest.mark.parametrize("liar, seed", sorted(GOLDENS))
def test_model_guided_rank_choices_are_pinned(liar, seed):
    optimized, programs = GOLDENS[(liar, seed)]
    with OptimizationSession("cpu", seed=seed) as session:
        result = session.optimize("resnet18", strategy="model_guided",
                                  budget=60, liar=liar, acquisition="rank")
    assert {decision.layer: decision.program.describe()
            for decision in result.layers} == programs
    assert result.optimized_latency_seconds == optimized
