"""SimulatedGPU device behaviour: clocks, listeners, transfers."""

import dataclasses

import numpy as np
import pytest

from repro.gpu import (
    AccessPattern,
    KernelDescriptor,
    OpClass,
    SimulatedGPU,
    SimulationConfig,
    analysis_cache,
    memory,
)


def _desc(threads=1 << 16, **kw):
    base = dict(name="k", op_class=OpClass.ELEMENTWISE, threads=threads,
                bytes_read=float(threads * 4), bytes_written=float(threads * 4))
    base.update(kw)
    return KernelDescriptor(**base)


class TestClocks:
    def test_clock_advances_per_launch(self, gpu):
        t0 = gpu.elapsed_s()
        gpu.launch(_desc())
        assert gpu.elapsed_s() > t0

    def test_async_launches_absorb_overhead(self):
        """Big kernels hide the host enqueue cost (CUDA streams)."""
        gpu = SimulatedGPU()
        big = _desc(threads=1 << 22, bytes_read=float(512 << 20),
                    bytes_written=float(128 << 20))
        for _ in range(10):
            gpu.launch(big)
        # gaps only on the first launch; the rest enqueue while GPU is busy
        assert gpu.stats.launch_overhead_s < 2 * gpu.sim.device.kernel_launch_overhead_s

    def test_tiny_kernels_are_launch_bound(self):
        gpu = SimulatedGPU()
        tiny = _desc(threads=32, bytes_read=128.0, bytes_written=128.0)
        for _ in range(100):
            gpu.launch(tiny)
        # host enqueue (4us each) dominates these sub-2us kernels
        assert gpu.stats.launch_overhead_s > 0.5 * 100 * gpu.sim.device.kernel_launch_overhead_s

    def test_reset_clears_everything(self, gpu):
        gpu.launch(_desc())
        gpu.h2d(np.zeros(10), "x")
        gpu.reset()
        assert gpu.elapsed_s() == 0.0
        assert gpu.host_clock_s == 0.0
        assert gpu.stats.kernel_count == 0
        assert gpu.stats.transfer_count == 0


class TestTransfers:
    def test_h2d_measures_sparsity(self, gpu):
        arr = np.array([0.0, 1.0, 0.0, 0.0], dtype=np.float32)
        record = gpu.h2d(arr, "test")
        assert record.sparsity == pytest.approx(0.75)
        assert record.nbytes == 16

    def test_dense_array_zero_sparsity(self, gpu):
        record = gpu.h2d(np.ones(100, dtype=np.float32))
        assert record.sparsity == 0.0

    def test_int_arrays_counted_too(self, gpu):
        record = gpu.h2d(np.array([0, 5, 0], dtype=np.int64))
        assert record.sparsity == pytest.approx(2 / 3)

    def test_transfer_duration_scales_with_bytes(self, gpu):
        small = gpu.h2d(np.zeros(1 << 10, dtype=np.float32))
        large = gpu.h2d(np.zeros(1 << 22, dtype=np.float32))
        assert large.duration_s > small.duration_s

    def test_d2h_direction_recorded(self, gpu):
        record = gpu.d2h(np.zeros(4))
        assert record.direction == "d2h"
        assert gpu.stats.d2h_bytes == 32


class TestListeners:
    def test_launch_listener_sees_every_kernel(self, gpu):
        seen = []
        gpu.add_launch_listener(seen.append)
        gpu.launch(_desc())
        gpu.launch(_desc())
        assert len(seen) == 2
        assert seen[0].launch_id == 0 and seen[1].launch_id == 1

    def test_removed_listener_stops_receiving(self, gpu):
        seen = []
        gpu.add_launch_listener(seen.append)
        gpu.remove_launch_listener(seen.append)
        gpu.launch(_desc())
        assert seen == []

    def test_transfer_listener(self, gpu):
        seen = []
        gpu.add_transfer_listener(seen.append)
        gpu.h2d(np.zeros(8))
        # unlabelled copies default to their direction, never ""
        assert len(seen) == 1 and seen[0].label == "h2d"

    def test_reset_clears_listeners_and_site_memo(self, gpu):
        """A tracer detached (or leaked) before reset must not leak into the
        next measurement run on a reused device."""
        seen = []
        gpu.add_launch_listener(seen.append)
        gpu.add_transfer_listener(seen.append)
        gpu.site_records[("stale",)] = ("whatever",)
        gpu.reset()
        assert gpu._launch_listeners == []
        assert gpu._transfer_listeners == []
        assert gpu.site_records == {}
        gpu.launch(_desc())
        gpu.h2d(np.zeros(8))
        assert seen == []

    def test_override_toggle_resets_analysis_counters(self, gpu):
        """Hit/miss telemetry sampled with the cache on must not bleed into
        a run measured with it off (and vice versa)."""
        from repro.gpu import analysis_cache

        with analysis_cache.override(True):
            gpu.launch(_desc())
            gpu.launch(_desc())
            assert gpu.stats.analysis_hits + gpu.stats.analysis_misses == 2
            with analysis_cache.override(not analysis_cache.enabled()):
                # effective setting flipped: counters start from zero
                assert gpu.stats.analysis_hits == 0
                assert gpu.stats.analysis_misses == 0
                gpu.launch(_desc())
                assert gpu.stats.analysis_hits + gpu.stats.analysis_misses == 1
                with analysis_cache.override(analysis_cache.enabled()):
                    # redundant override (same effective value): no reset
                    assert (gpu.stats.analysis_hits
                            + gpu.stats.analysis_misses == 1)


class TestStats:
    def test_flop_accounting(self, gpu):
        gpu.launch(_desc(fp32_flops=1e6, int32_iops=2e6))
        assert gpu.stats.fp32_flops == pytest.approx(1e6)
        assert gpu.stats.int32_iops == pytest.approx(2e6)

    def test_kernel_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            KernelDescriptor(name="bad", op_class=OpClass.GEMM, threads=0)

    def test_launch_metrics_attached(self, gpu):
        launch = gpu.launch(_desc())
        assert launch.duration_s > 0
        assert launch.stalls.total() == pytest.approx(1.0)
        assert 0 <= launch.memory.l1_hit_rate <= 1
        assert launch.gflops >= 0


def _make_sequence():
    """Big and tiny kernels, regular and irregular, each repeated so the
    analysis cache both misses and hits."""
    idx = np.random.default_rng(3).integers(0, 4096, size=2048)
    kinds = [
        _desc(threads=32, bytes_read=128.0, bytes_written=128.0),
        _desc(threads=1 << 22, bytes_read=float(64 << 20),
              bytes_written=float(16 << 20), fp32_flops=1e8),
        _desc(name="g", op_class=OpClass.GATHER, threads=2048,
              access=AccessPattern.irregular(idx, element_bytes=64)),
        _desc(threads=4096, int32_iops=4096.0),
    ]
    return [kinds[i] for i in (0, 1, 0, 2, 3, 2, 0, 1, 3, 3)]


SEQUENCE = _make_sequence()


def _envelope(launch):
    # by identity: irregular descriptors hold index arrays, so ``==`` on
    # them is ambiguous
    return (id(launch.descriptor), launch.launch_id, launch.device_id,
            launch.start_s, launch.record)


def _without_hit_split(stats):
    state = dataclasses.asdict(stats)
    hits_and_misses = state.pop("analysis_hits") + state.pop("analysis_misses")
    return state, hits_and_misses


class TestOneAccountingPath:
    """Every launch entry point advances the device through the same body."""

    @pytest.mark.parametrize("listen", [True, False])
    def test_entry_points_leave_identical_state(self, listen):
        records = {}

        def primed_replay(gpu, desc):
            if id(desc) not in records:
                records[id(desc)] = analysis_cache.compute(desc, gpu.sim)
            gpu.replay(desc, records[id(desc)])

        runs = []
        for entry in (SimulatedGPU.launch, SimulatedGPU.launch_fast,
                      SimulatedGPU.launch_analyzed, primed_replay):
            gpu = SimulatedGPU()
            seen = []
            if listen:
                gpu.add_launch_listener(seen.append)
            with analysis_cache.override(True):
                for desc in SEQUENCE:
                    entry(gpu, desc)
            runs.append((gpu, [_envelope(launch) for launch in seen]))
        ref_gpu, ref_envelopes = runs[0]
        assert len(ref_envelopes) == (len(SEQUENCE) if listen else 0)
        for gpu, envelopes in runs:
            assert gpu.clock_s == ref_gpu.clock_s
            assert gpu.host_clock_s == ref_gpu.host_clock_s
            assert gpu._launch_counter == len(SEQUENCE)
            assert (_without_hit_split(gpu.stats)
                    == _without_hit_split(ref_gpu.stats))
            assert _without_hit_split(gpu.stats)[1] == len(SEQUENCE)
            assert envelopes == ref_envelopes

    def test_cache_hit_carries_the_cached_record(self):
        gpu = SimulatedGPU(SimulationConfig())  # a config with a fresh cache
        desc = _desc()
        with analysis_cache.override(True):
            first = gpu.launch(desc)
            second = gpu.launch(desc)
        cached = gpu._analysis.records[analysis_cache.signature(desc, gpu.sim)]
        assert second.record is cached
        assert first.record is cached
        assert gpu.stats.analysis_hits == 1
        assert gpu.stats.analysis_misses == 1

    def test_metrics_read_through_to_the_record(self, gpu):
        launch = gpu.launch(_desc())
        timing = launch.record.timing
        assert launch.duration_s == timing.duration_s
        assert launch.end_s == launch.start_s + timing.duration_s
        assert (launch.cycles, launch.instructions, launch.fp32_instrs,
                launch.int32_instrs, launch.ipc, launch.occupancy) == (
            timing.cycles, timing.instructions, timing.fp32_instrs,
            timing.int32_instrs, timing.ipc, timing.occupancy)
        assert launch.memory is launch.record.memory
        assert launch.stalls is launch.record.stalls


class TestAnalyticTransfers:
    @pytest.mark.parametrize("direction", ["h2d", "d2h"])
    def test_transfer_bytes_matches_array_copy(self, direction):
        values = np.arange(1, 257, dtype=np.float32)  # no zeros
        devices, records = [], []
        for analytic in (False, True):
            gpu = SimulatedGPU()
            gpu.launch(_desc(threads=32))  # both clocks off zero
            seen = []
            gpu.add_transfer_listener(seen.append)
            if analytic:
                record = gpu.transfer_bytes(values.nbytes, direction, "x",
                                            num_values=values.size)
            else:
                record = getattr(gpu, direction)(values, "x")
            assert seen == [record]
            devices.append(gpu)
            records.append(record)
        array_gpu, bytes_gpu = devices
        assert records[0] == records[1]
        assert bytes_gpu.clock_s == array_gpu.clock_s
        assert bytes_gpu.host_clock_s == array_gpu.host_clock_s
        assert bytes_gpu.stats == array_gpu.stats

    def test_unknown_direction_rejected(self, gpu):
        with pytest.raises(ValueError, match="direction"):
            gpu.transfer_bytes(16, "p2p")
        assert gpu.stats.transfer_count == 0

    def test_negative_nbytes_rejected(self, gpu):
        with pytest.raises(ValueError, match="nbytes"):
            gpu.transfer_bytes(-1, "h2d")
        assert gpu.stats.transfer_count == 0

    def test_h2d_registers_before_listeners_run(self, gpu):
        """Graph capture relies on the pool allocation preceding the
        transfer event of the same copy."""
        order = []
        values = np.ones(64, dtype=np.float32)
        with memory.track(gpu) as tracker:
            gpu.add_transfer_listener(
                lambda record: order.append(len(tracker._live)))
            gpu.h2d(values, "x")
            gpu.transfer_bytes(values.nbytes, "h2d", "y")
        # the analytic copy registers nothing
        assert order == [1, 1]
