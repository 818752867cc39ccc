"""Random launch-sequence generators for fusion property tests.

The fusion pass (:func:`repro.gpu.graph_capture.fuse_events`) is a pure
function over captured epoch event lists, so its legality rules — never fuse
across a phase or epoch boundary, a reduction, a transfer, a device change,
or any non-elementwise kernel — are checkable on *synthetic* sequences
without building a workload.  This module provides:

* :func:`make_launch` / :func:`make_transfer` — single-event constructors
  with dummy timing (fusion only reads descriptors and device ids);
* :data:`EPOCH_BOUNDARY` — the synthetic epoch-boundary marker.  Real
  captured plans cover exactly one epoch so never contain one; the fusion
  pass treats every unknown event tag as a barrier, which this marker (and
  the property suite) pins down;
* :func:`events` — a shrinkable Hypothesis strategy over event lists
  (imported lazily so the package works without Hypothesis installed);
* :func:`random_events` — a plain seeded generator for non-Hypothesis reuse
  (fuzzing loops, benchmarks, notebooks).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..gpu.analysis_cache import AnalysisRecord
from ..gpu.kernel import (
    AccessPattern,
    KernelDescriptor,
    KernelLaunch,
    MemoryMetrics,
    OpClass,
    StallBreakdown,
    TransferRecord,
)
from ..gpu.timing import TimingResult

#: synthetic epoch-boundary event: any tag the replay/fusion machinery does
#: not recognise acts as a fusion barrier
EPOCH_BOUNDARY = ("E",)

PHASES = ("forward", "backward", "optimizer")

ELEMENTWISE_NAMES = ("add", "mul", "relu", "sigmoid", "dropout", "sgd_step")

#: the all-zero analysis record every synthetic launch shares
ZERO_RECORD = AnalysisRecord(
    memory=MemoryMetrics(),
    timing=TimingResult(
        cycles=0.0, duration_s=0.0, instructions=0.0, fp32_instrs=0.0,
        int32_instrs=0.0, ldst_instrs=0.0, control_instrs=0.0, ipc=0.0,
        occupancy=0.0, bound="", components={},
    ),
    stalls=StallBreakdown(),
)


def make_launch(
    name: str = "add",
    op_class: OpClass = OpClass.ELEMENTWISE,
    phase: str = "forward",
    device_id: int = 0,
    threads: int = 1024,
    block_size: int = 256,
    element_bytes: int = 4,
    fp32_flops: float = 1024.0,
    int32_iops: float = 0.0,
    ldst_instrs: float = 64.0,
    control_instrs: float = 32.0,
    bytes_read: float = 4096.0,
    bytes_written: float = 4096.0,
    reuse_factor: float = 1.0,
    compute_scale: float = 1.0,
    access: Optional[AccessPattern] = None,
) -> tuple:
    """One ``("K", launch)`` event costed by :data:`ZERO_RECORD`.

    Fusion never reads timing from its *inputs* (only from the re-analysed
    fused descriptor), so synthetic launches don't need the analysis
    pipeline.
    """
    desc = KernelDescriptor(
        name=name,
        op_class=op_class,
        threads=threads,
        fp32_flops=fp32_flops,
        int32_iops=int32_iops,
        ldst_instrs=ldst_instrs,
        control_instrs=control_instrs,
        bytes_read=bytes_read,
        bytes_written=bytes_written,
        reuse_factor=reuse_factor,
        access=access or AccessPattern.coalesced(element_bytes),
        block_size=block_size,
        phase=phase,
        compute_scale=compute_scale,
    )
    return ("K", KernelLaunch(desc, -1, device_id, 0.0, ZERO_RECORD))


def make_transfer(direction: str = "h2d", nbytes: int = 4096,
                  label: str = "batch") -> tuple:
    """One ``("T", record)`` event (always a fusion barrier)."""
    return ("T", TransferRecord(
        direction=direction,
        nbytes=nbytes,
        num_values=nbytes // 4,
        num_zeros=0,
        label=label,
        start_s=0.0,
        duration_s=0.0,
        device_id=0,
    ))


def events(max_size: int = 40):
    """Shrinkable Hypothesis strategy over launch-sequence event lists.

    Skews towards fusible elementwise launches so generated sequences
    actually contain runs, while still mixing in every barrier kind:
    reductions (both by op class and by ``reuse_factor``), GEMMs, strided
    elementwise kernels, transfers, epoch boundaries, phase switches, and a
    second device.
    """
    from hypothesis import strategies as st

    # exact-in-float integers: cost-conservation asserts exact FP equality
    work = st.integers(min_value=0, max_value=2**20).map(float)

    fusible_kernel = st.builds(
        make_launch,
        name=st.sampled_from(ELEMENTWISE_NAMES),
        # skew every compatibility axis towards its common value so adjacent
        # fusible launches actually form runs, while keeping each axis able
        # to break one
        phase=st.sampled_from(("forward", "forward", "forward", "backward",
                               "optimizer")),
        device_id=st.sampled_from((0, 0, 0, 0, 1)),
        threads=st.integers(min_value=32, max_value=1 << 16),
        block_size=st.sampled_from((256, 256, 256, 128)),
        element_bytes=st.sampled_from((4, 4, 4, 8)),
        fp32_flops=work,
        int32_iops=work,
        bytes_read=work,
        bytes_written=work,
        control_instrs=work,
    )
    unfusible_elementwise = st.one_of(
        # elementwise but cache-reusing (acts like a fused-unsafe kernel)
        st.builds(make_launch, name=st.just("ew_reuse"),
                  reuse_factor=st.just(1.5), fp32_flops=work),
        # elementwise but strided access
        st.builds(make_launch, name=st.just("ew_strided"),
                  access=st.just(AccessPattern.strided(128)),
                  fp32_flops=work),
        # elementwise with shape-dependent compute scaling
        st.builds(make_launch, name=st.just("ew_scaled"),
                  compute_scale=st.just(2.0), fp32_flops=work),
    )
    barrier_kernel = st.one_of(
        st.builds(make_launch, name=st.just("rowsum"),
                  op_class=st.just(OpClass.REDUCTION),
                  reuse_factor=st.just(1.5), fp32_flops=work),
        st.builds(make_launch, name=st.just("gemm"),
                  op_class=st.just(OpClass.GEMM),
                  reuse_factor=st.just(8.0), fp32_flops=work),
        st.builds(make_launch, name=st.just("gather"),
                  op_class=st.just(OpClass.GATHER), fp32_flops=work),
    )
    event = st.one_of(
        fusible_kernel,
        fusible_kernel,  # bias towards runs forming at all
        unfusible_elementwise,
        barrier_kernel,
        st.builds(make_transfer, direction=st.sampled_from(("h2d", "d2h")),
                  nbytes=st.integers(min_value=4, max_value=1 << 20)),
        st.just(EPOCH_BOUNDARY),
    )
    return st.lists(event, max_size=max_size)


def random_events(rng: np.random.Generator, size: int = 40) -> list[tuple]:
    """Seeded, Hypothesis-free equivalent of :func:`events` for reuse."""
    out: list[tuple] = []
    for _ in range(size):
        roll = rng.random()
        work = float(rng.integers(0, 2**20))
        if roll < 0.55:
            out.append(make_launch(
                name=ELEMENTWISE_NAMES[int(rng.integers(len(ELEMENTWISE_NAMES)))],
                phase=PHASES[int(rng.integers(len(PHASES)))] if rng.random() < 0.3
                else "forward",
                device_id=int(rng.random() < 0.2),
                threads=int(rng.integers(32, 1 << 16)),
                block_size=128 if rng.random() < 0.25 else 256,
                element_bytes=8 if rng.random() < 0.25 else 4,
                fp32_flops=work,
                bytes_read=float(rng.integers(0, 2**20)),
                bytes_written=float(rng.integers(0, 2**20)),
            ))
        elif roll < 0.7:
            out.append(make_launch(name="rowsum",
                                   op_class=OpClass.REDUCTION,
                                   reuse_factor=1.5, fp32_flops=work))
        elif roll < 0.85:
            out.append(make_transfer(
                direction=("h2d", "d2h")[int(rng.integers(2))],
                nbytes=int(rng.integers(4, 1 << 20)),
            ))
        else:
            out.append(EPOCH_BOUNDARY)
    return out
