"""Kernel timing model behaviour."""

import pytest

from repro.gpu import (
    DEFAULT_SIMULATION,
    DeviceConfig,
    KernelDescriptor,
    OpClass,
    SimulatedGPU,
    SimulationConfig,
)
from repro.gpu.caches import analyze as cache_analyze
from repro.gpu.timing import analyze as timing_analyze
from repro.tensor.ops.base import gemm_threads, gemm_tiles, launch_gemm

V100_SMS = DEFAULT_SIMULATION.device.num_sms


def _run(desc):
    mem = cache_analyze(desc, DEFAULT_SIMULATION)
    return timing_analyze(desc, mem, DEFAULT_SIMULATION)


def _gemm_desc(m, k, n, threads=None):
    return KernelDescriptor(
        name="gemm", op_class=OpClass.GEMM,
        threads=threads or gemm_threads(m, n, k, V100_SMS),
        fp32_flops=2.0 * m * k * n,
        int32_iops=0.1 * m * k * n,
        bytes_read=4.0 * (m * k + k * n),
        bytes_written=4.0 * m * n,
    )


class TestBounds:
    def test_every_kernel_pays_the_ramp(self):
        tiny = KernelDescriptor(name="t", op_class=OpClass.ELEMENTWISE,
                                threads=32, bytes_read=128, bytes_written=128)
        result = _run(tiny)
        # ramp ~= 1940 cycles ~= 1.4 us floor
        assert result.cycles > 1500

    def test_big_gemm_is_compute_bound(self):
        result = _run(_gemm_desc(4096, 4096, 4096))
        assert result.bound == "fp32"

    def test_streaming_kernel_is_memory_bound(self):
        desc = KernelDescriptor(
            name="copy", op_class=OpClass.COPY, threads=1 << 22,
            int32_iops=float(1 << 22), bytes_read=float(256 << 20),
            bytes_written=float(256 << 20),
        )
        result = _run(desc)
        assert result.bound in ("dram_bw", "l2_bw", "lsu")

    def test_duration_positive_and_finite(self):
        result = _run(_gemm_desc(128, 128, 128))
        assert 0 < result.duration_s < 1.0

    def test_ipc_under_issue_width(self):
        result = _run(_gemm_desc(2048, 2048, 2048))
        assert 0 < result.ipc <= DEFAULT_SIMULATION.device.issue_width_per_sm


class TestShapeEffects:
    def test_skinny_gemm_runs_below_peak(self):
        """Unit efficiency keeps a feature-transform GEMM under peak."""
        desc = _gemm_desc(2708, 1433, 32)
        result = _run(desc)
        achieved = desc.fp32_flops / result.duration_s
        assert achieved < 0.75 * DEFAULT_SIMULATION.device.peak_fp32_flops

    def test_tiny_gemm_is_ramp_bound(self):
        """A 64^3 GEMM is dominated by pipeline ramp, far from peak."""
        desc = _gemm_desc(64, 64, 64)
        result = _run(desc)
        achieved = desc.fp32_flops / result.duration_s
        assert achieved < 0.05 * DEFAULT_SIMULATION.device.peak_fp32_flops

    def test_split_k_parallelizes_weight_gradients(self):
        """wgrad GEMMs (tiny m, n; huge k) must not serialize on one SM."""
        with_split = gemm_threads(32, 32, 16384, V100_SMS)
        without = gemm_tiles(32, 32)[2] * 256
        assert with_split >= 8 * without

    def test_split_k_follows_the_device_sm_count(self):
        """launch_gemm sizes split-K from the device it launches on."""
        def launched_threads(num_sms):
            sim = SimulationConfig(device=DeviceConfig(num_sms=num_sms))
            device = SimulatedGPU(sim=sim)
            seen = []
            device.add_launch_listener(
                lambda launch: seen.append(launch.descriptor.threads))
            launch_gemm(device, "wgrad", 64, 32768, 64)
            return seen[0]

        v100, half = launched_threads(V100_SMS), launched_threads(40)
        assert v100 == gemm_threads(64, 64, 32768, V100_SMS)
        assert half == gemm_threads(64, 64, 32768, 40)
        # one output tile: split-K fills 2 waves of blocks, so 40 SMs
        # split the reduction 80 ways where the V100's 80 SMs split it 128
        assert (half, v100) == (80 * 256, 128 * 256)

    def test_unit_efficiency_slows_conv(self):
        conv = KernelDescriptor(
            name="c", op_class=OpClass.CONV2D, threads=1 << 18,
            fp32_flops=1e9, bytes_read=1 << 22, bytes_written=1 << 22,
        )
        gemm = KernelDescriptor(
            name="g", op_class=OpClass.GEMM, threads=1 << 18,
            fp32_flops=1e9, bytes_read=1 << 22, bytes_written=1 << 22,
        )
        assert _run(conv).duration_s > _run(gemm).duration_s

    def test_compute_scale_inflates_cycles(self):
        base = _gemm_desc(512, 512, 512)
        padded = _gemm_desc(512, 512, 512)
        padded.compute_scale = 2.0
        assert _run(padded).cycles > 1.5 * _run(base).cycles

    def test_few_blocks_cannot_use_all_sms(self):
        narrow = _gemm_desc(64, 8192, 32, threads=256)
        wide = _gemm_desc(64, 8192, 32, threads=256 * 160)
        assert _run(narrow).cycles > _run(wide).cycles


class TestInstructionDerivation:
    def test_fma_halves_fp32_instructions(self):
        desc = _gemm_desc(256, 256, 256)
        result = _run(desc)
        fma = DEFAULT_SIMULATION.profile_for("GEMM").fma_fraction
        assert result.fp32_instrs == pytest.approx(desc.fp32_flops / (1 + fma))

    def test_int32_maps_one_to_one(self):
        desc = _gemm_desc(256, 256, 256)
        assert _run(desc).int32_instrs == pytest.approx(desc.int32_iops)

    def test_control_default_filled_in(self):
        desc = KernelDescriptor(name="x", op_class=OpClass.ELEMENTWISE,
                                threads=1024, fp32_flops=1024.0,
                                int32_iops=4096.0, bytes_read=4096,
                                bytes_written=4096)
        assert _run(desc).control_instrs > 0
