"""The paper's future-work extensions: fp16 training, transfer compression,
weak scaling, time-to-train, inference profiling."""

import json

import numpy as np
import pytest

from repro.core import executor, profile_inference, profile_workload, registry
from repro.gpu import (
    KernelDescriptor,
    OpClass,
    SimulatedGPU,
    SimulationConfig,
    compress,
)
from repro.gpu.compression import rle_bytes, zvc_bytes
from repro.train import Trainer, run_weak_scaling_point
from tests.cli_helpers import run_cli


class TestCompression:
    def test_zvc_all_zero(self):
        arr = np.zeros(1024, dtype=np.float32)
        result = compress(arr, "zvc")
        assert result.compressed_bytes == 1024 // 8  # mask only
        assert result.ratio == pytest.approx(32.0)

    def test_zvc_dense_falls_back_near_raw(self):
        arr = np.ones(1024, dtype=np.float32)
        result = compress(arr, "zvc")
        assert result.compressed_bytes <= arr.nbytes  # never expands
        assert result.ratio < 1.05

    def test_zvc_half_sparse(self):
        arr = np.zeros(1000, dtype=np.float32)
        arr[::2] = 1.0
        assert compress(arr, "zvc").ratio == pytest.approx(
            4000 / (125 + 500 * 4), rel=0.01
        )

    def test_rle_wins_on_long_runs(self):
        arr = np.zeros(10_000, dtype=np.float32)
        arr[:10] = 1.0
        assert rle_bytes(arr) < zvc_bytes(arr)

    def test_adaptive_picks_best(self):
        for arr in (np.zeros(4096, dtype=np.float32),
                    np.random.default_rng(0).normal(size=4096).astype(np.float32)):
            adaptive = compress(arr, "adaptive").compressed_bytes
            assert adaptive <= zvc_bytes(arr)
            assert adaptive <= min(rle_bytes(arr), arr.nbytes)

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError):
            compress(np.zeros(4), "gzip")

    def test_device_compressed_transfer_faster(self):
        sparse = np.zeros(1 << 20, dtype=np.float32)
        plain = SimulatedGPU()
        compressed = SimulatedGPU(SimulationConfig(transfer_compression="zvc"))
        rec_plain = plain.h2d(sparse)
        rec_zvc = compressed.h2d(sparse)
        assert rec_zvc.duration_s < 0.2 * rec_plain.duration_s
        assert rec_zvc.wire_bytes < rec_zvc.nbytes
        assert rec_zvc.compression_ratio > 5
        # measured sparsity is about the logical buffer, not the wire
        assert rec_zvc.sparsity == rec_plain.sparsity == 1.0

    def test_dense_transfer_unaffected(self):
        dense = np.ones(1 << 16, dtype=np.float32)
        dev = SimulatedGPU(SimulationConfig(transfer_compression="adaptive"))
        rec = dev.h2d(dense)
        assert rec.wire_bytes <= rec.nbytes


class TestHalfPrecision:
    def _mem_bound_desc(self):
        return KernelDescriptor(
            name="stream", op_class=OpClass.ELEMENTWISE, threads=1 << 20,
            int32_iops=float(1 << 22),
            bytes_read=float(128 << 20), bytes_written=float(64 << 20),
        )

    def test_fp16_speeds_up_memory_bound_kernels(self):
        fp32 = SimulatedGPU().launch(self._mem_bound_desc())
        fp16 = SimulatedGPU(SimulationConfig(precision="fp16")).launch(
            self._mem_bound_desc()
        )
        assert fp16.duration_s < 0.75 * fp32.duration_s

    def test_fp16_raises_l1_hit_rate(self):
        """The paper's suggested mitigation for the 15% L1 hit rate."""
        desc = KernelDescriptor(
            name="k", op_class=OpClass.ELEMENTWISE, threads=1 << 16,
            bytes_read=float(40 << 20), bytes_written=float(10 << 20),
            reuse_factor=2.0,
        )
        fp32 = SimulatedGPU().launch(desc)
        fp16 = SimulatedGPU(SimulationConfig(precision="fp16")).launch(desc)
        assert fp16.memory.l1_hit_rate >= fp32.memory.l1_hit_rate

    def test_fp16_doubles_compute_bound_throughput(self):
        desc = KernelDescriptor(
            name="gemm", op_class=OpClass.GEMM, threads=1 << 21,
            fp32_flops=4e10, bytes_read=float(64 << 20),
            bytes_written=float(16 << 20),
        )
        fp32 = SimulatedGPU().launch(desc)
        fp16 = SimulatedGPU(SimulationConfig(precision="fp16")).launch(desc)
        assert fp16.gflops == pytest.approx(2 * fp32.gflops, rel=0.15)

    def test_sort_traffic_not_scaled(self):
        """Integer key traffic does not shrink at fp16."""
        desc = KernelDescriptor(
            name="sort", op_class=OpClass.SORT, threads=1 << 18,
            int32_iops=1e8, bytes_read=float(64 << 20),
            bytes_written=float(64 << 20),
        )
        fp32 = SimulatedGPU().launch(desc)
        fp16 = SimulatedGPU(SimulationConfig(precision="fp16")).launch(desc)
        assert fp16.duration_s == pytest.approx(fp32.duration_s, rel=0.05)

    def test_fp16_workload_epoch_faster(self):
        base = profile_workload("DGCN", scale="test", epochs=1)
        half = profile_workload("DGCN", scale="test", epochs=1,
                                sim=SimulationConfig(precision="fp16"))
        assert half.kernels.total_time_s < base.kernels.total_time_s


class TestWeakScaling:
    def test_single_gpu_baseline(self):
        point = run_weak_scaling_point("KGNNL", 1, scale="test")
        assert point.allreduce_time_s == 0.0

    def test_efficiency_below_one_but_close(self):
        one = run_weak_scaling_point("KGNNL", 1, scale="test")
        four = run_weak_scaling_point("KGNNL", 4, scale="test")
        efficiency = one.epoch_time_s / four.epoch_time_s
        assert 0.5 < efficiency <= 1.0

    def test_per_device_compute_constant(self):
        one = run_weak_scaling_point("TLSTM", 1, scale="test")
        four = run_weak_scaling_point("TLSTM", 4, scale="test")
        assert four.compute_time_s == pytest.approx(one.compute_time_s,
                                                    rel=0.25)

    def test_arga_still_excluded(self):
        with pytest.raises(ValueError):
            run_weak_scaling_point("ARGA", 2)


class TestTimeToTrain:
    def _trainer(self):
        device = SimulatedGPU()
        workload = registry.get("KGNNL").build(device=device, scale="test")
        return Trainer(workload=workload, device=device)

    def test_reaches_loss_target(self):
        result = self._trainer().train_to_target("loss", 0.69, mode="min",
                                                 max_epochs=30)
        assert result.converged
        assert result.achieved <= 0.69
        assert result.sim_time_s > 0
        assert result.epochs <= 30

    def test_unreachable_target_flagged(self):
        result = self._trainer().train_to_target("loss", 0.0, mode="min",
                                                 max_epochs=2)
        assert not result.converged
        assert result.epochs == 2

    def test_max_mode(self):
        result = self._trainer().train_to_target("acc", 0.1, mode="max",
                                                 max_epochs=10)
        assert result.converged

    def test_bad_metric_raises(self):
        with pytest.raises(KeyError):
            self._trainer().train_to_target("bleu", 1.0, max_epochs=1)

    def test_bad_mode_raises(self):
        with pytest.raises(ValueError):
            self._trainer().train_to_target("loss", 1.0, mode="between")


class TestInferenceProfiling:
    def test_inference_has_no_backward_or_optimizer(self):
        profile = profile_inference("KGNNL", scale="test")
        phases = profile.kernels.phase_breakdown()
        assert set(phases) == {"forward"}

    def test_inference_cheaper_than_training(self):
        train = profile_workload("TLSTM", scale="test", epochs=1)
        infer = profile_inference("TLSTM", scale="test")
        assert infer.kernels.total_time_s < train.kernels.total_time_s

    def test_all_workloads_have_inference_paths(self):
        for key in registry.WORKLOAD_KEYS:
            profile = profile_inference(key, scale="test")
            assert profile.launch_count > 0, key


class TestMemoryFootprint:
    def test_arga_graph_dominates_memory(self):
        """The paper: the input graph can occupy up to 90% of GPU memory."""
        profile = profile_workload("ARGA", scale="test", epochs=1)
        mem = profile.memory_footprint()
        assert mem["data_fraction"] > 0.9
        assert mem["model_bytes"] > 0

    def test_footprint_keys_and_bounds(self):
        profile = profile_workload("KGNNL", scale="test", epochs=1)
        mem = profile.memory_footprint()
        assert set(mem) == {"model_bytes", "data_bytes_per_epoch",
                            "data_fraction"}
        assert 0.0 <= mem["data_fraction"] <= 1.0

    def test_model_bytes_include_adam_state(self):
        profile = profile_workload("TLSTM", scale="test", epochs=1)
        params = profile._workload.model.parameter_bytes()
        assert profile.memory_footprint()["model_bytes"] == 3 * params


class TestCLI:
    def test_table1_command(self, capsys):
        res = run_cli(["table1"], capsys)
        assert res.code == 0
        assert "PinSAGE" in res.out

    def test_profile_command(self, capsys):
        res = run_cli(["profile", "KGNNL", "--scale", "test"], capsys)
        assert res.code == 0
        assert "KGNNL" in res.out and "us" in res.out

    def test_profile_without_workload_profiles_suite(self, capsys,
                                                     monkeypatch):
        # stub the engine: this tests the CLI wiring, not the (already
        # covered) characterization itself
        calls = {}

        def fake_run_suite(scale=None, epochs=1, seed=0, strict=False,
                           jobs=None, cache=None):
            from repro.core.characterize import SuiteProfile

            calls.update(scale=scale, jobs=jobs, cache=cache)
            return SuiteProfile()

        monkeypatch.setattr(executor, "run_suite", fake_run_suite)
        res = run_cli(["profile", "--scale", "test", "--jobs", "3",
                       "--no-cache"], capsys)
        assert res.code == 0
        assert calls == {"scale": "test", "jobs": 3, "cache": False}

    def test_profile_suite_mode_end_to_end(self, capsys, monkeypatch):
        """Unstubbed suite-mode profile over a two-workload registry slice."""
        keys = ("TLSTM", "KGNNL")
        monkeypatch.setattr(registry, "WORKLOAD_KEYS", keys)
        res = run_cli(["profile", "--scale", "test", "--no-cache"], capsys)
        assert res.code == 0
        assert "== TLSTM" in res.out and "== KGNNL" in res.out

    def test_bench_command_writes_report(self, capsys, tmp_path,
                                         monkeypatch):
        fake = {"suite": ["TLSTM"], "scale": "test", "epochs": 1, "jobs": 2,
                "cold_serial_s": 1.0, "cold_parallel_s": 0.6,
                "warm_cache_s": 0.01, "warm_cache_hits": 1,
                "parallel_speedup": 1.67, "warm_speedup": 100.0}
        monkeypatch.setattr(executor, "benchmark_suite", lambda **kw: fake)
        out_path = tmp_path / "BENCH_suite.json"
        res = run_cli(["bench", "--quick", "--output", str(out_path)],
                      capsys)
        assert res.code == 0
        report = json.loads(out_path.read_text())
        assert report["warm_speedup"] == 100.0
        assert "warm cache" in res.out

    def test_unknown_command_rejected(self, capsys):
        res = run_cli(["fig99"], capsys)
        assert res.code == 2
        assert "invalid choice" in res.err
