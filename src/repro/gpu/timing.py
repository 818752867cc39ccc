"""Kernel cycle/throughput model.

A kernel's duration is the maximum over the classic bottleneck candidates —
instruction issue, fp32 units, int32 units, load/store units, L2 bandwidth,
DRAM bandwidth, and a latency bound for small/low-occupancy launches — plus
a pipeline ramp-up floor.  All inputs come from the kernel descriptor
(dynamic instruction counts, byte traffic) and the cache model's outcome for
the launch, so the relative throughput of e.g. a skinny feature-transform
GEMM vs. a scatter-add over real edge indices is emergent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import SimulationConfig
from .kernel import KernelDescriptor, MemoryMetrics


@dataclass(frozen=True)
class TimingResult:
    """Frozen: shared between memoized launches of identical descriptors
    (:mod:`repro.gpu.analysis_cache`); nothing may mutate a published result,
    including the ``components`` dict."""

    cycles: float
    duration_s: float
    instructions: float
    fp32_instrs: float
    int32_instrs: float
    ldst_instrs: float
    control_instrs: float
    ipc: float
    occupancy: float
    #: which bottleneck produced the cycle count (for reports/tests).
    bound: str
    #: component cycle estimates, used by the stall-attribution model.
    components: dict[str, float]


def instruction_counts(
    desc: KernelDescriptor, sim: SimulationConfig
) -> tuple[float, float, float, float]:
    """Derive dynamic thread-level instruction counts from the descriptor.

    fp32 FLOPs collapse into fewer instructions when fused multiply-adds are
    available (2 FLOPs/instruction); int32 ops map 1:1.
    """
    profile = sim.profile_for(desc.op_class.value)
    fp32_instrs = desc.fp32_flops / (1.0 + profile.fma_fraction)
    int32_instrs = desc.int32_iops
    ldst = desc.ldst_instrs
    control = desc.control_instrs
    if control <= 0:
        control = 0.08 * (fp32_instrs + int32_instrs + ldst)
    return fp32_instrs, int32_instrs, ldst, control


def analyze(
    desc: KernelDescriptor, mem: MemoryMetrics, sim: SimulationConfig
) -> TimingResult:
    dev = sim.device
    profile = sim.profile_for(desc.op_class.value)

    fp32_instrs, int32_instrs, ldst, control = instruction_counts(desc, sim)
    total_instr = fp32_instrs + int32_instrs + ldst + control
    warp_instrs = total_instr / dev.warp_size

    warps = desc.warps
    active_sms = min(dev.num_sms, desc.blocks)
    warps_per_sm = warps / max(1, active_sms)
    occupancy = min(1.0, warps_per_sm / dev.max_warps_per_sm)
    waves = max(1.0, warps / (dev.num_sms * dev.max_warps_per_sm))

    # --- throughput bounds (cycles) ----------------------------------------
    # Underutilized SMs cannot be reclaimed: scale unit throughput by the
    # number of SMs that actually received blocks.
    sm_frac = active_sms / dev.num_sms
    scale = desc.compute_scale / max(profile.unit_efficiency, 1e-3)
    # half-precision packs two values per fp32 lane on Volta
    fp_lanes = dev.fp32_lanes_per_sm * (2 if sim.precision == "fp16" else 1)
    issue = warp_instrs / (dev.num_sms * dev.issue_width_per_sm * sm_frac)
    fp32 = scale * fp32_instrs / (dev.num_sms * fp_lanes * sm_frac)
    int32 = scale * int32_instrs / (dev.num_sms * dev.int32_lanes_per_sm * sm_frac)
    # LSU: one warp transaction per cycle per SM; divergence serializes
    # replayed transactions.
    lsu = (ldst / dev.warp_size) * mem.lines_per_warp / (dev.num_sms * sm_frac)
    l2_bw = mem.l2_bytes / dev.l2_bytes_per_cycle
    dram_bw = mem.dram_bytes / dev.dram_bytes_per_cycle

    # --- latency bound ------------------------------------------------------
    avg_latency = (
        mem.l1_hit_rate * dev.l1_latency_cycles
        + (1.0 - mem.l1_hit_rate)
        * (
            mem.l2_hit_rate * dev.l2_latency_cycles
            + (1.0 - mem.l2_hit_rate) * dev.dram_latency_cycles
        )
    )
    loads_per_thread = ldst / max(1, desc.threads)
    chain_depth = max(1.0, loads_per_thread / profile.mlp)
    # Concurrency from co-resident warps hides latency.
    hiding = min(dev.max_warps_per_sm, max(1.0, warps_per_sm)) * profile.mlp
    latency_bound = waves * chain_depth * avg_latency / max(1.0, hiding / 8.0)

    # Per-thread serial issue: one warp cannot retire more than one
    # instruction per cycle, so instrs-per-thread floors each wave.
    instrs_per_thread = total_instr / max(1, desc.threads)
    serial = waves * instrs_per_thread / max(profile.ilp / 2.0, 1.0)

    # Pipeline ramp/drain: instruction fetch, first memory round trip, and
    # tail-wave underutilization.  Empirically even trivial CUDA kernels
    # occupy the GPU for ~1.5 us; this floor is what starves many-tiny-kernel
    # workloads (Tree-LSTM) of throughput.
    ramp = dev.dram_latency_cycles + 3.0 * dev.l2_latency_cycles + 900.0

    components = {
        "issue": issue,
        "fp32": fp32,
        "int32": int32,
        "lsu": lsu,
        "l2_bw": l2_bw,
        "dram_bw": dram_bw,
        "latency": latency_bound,
        "serial": serial,
    }
    bound = max(components, key=components.get)
    cycles = max(components.values()) + ramp
    duration_s = cycles / dev.clock_hz
    ipc = warp_instrs / cycles / dev.num_sms

    return TimingResult(
        cycles=cycles,
        duration_s=duration_s,
        instructions=total_instr,
        fp32_instrs=fp32_instrs,
        int32_instrs=int32_instrs,
        ldst_instrs=ldst,
        control_instrs=control,
        ipc=ipc,
        occupancy=occupancy,
        bound=bound,
        components=components,
    )


def h2d_time(nbytes: int, sim: SimulationConfig) -> float:
    """Duration of a host-to-device copy over PCIe."""
    dev = sim.device
    return dev.pcie_latency_s + nbytes / dev.pcie_bandwidth_bytes_per_s
