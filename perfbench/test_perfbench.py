"""The benchmark's own tests: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import harness, seams, spans, workloads  # noqa: E402


def test_self_time_subtracts_direct_children():
    # a[0,100] > b[10,40] > c[20,30];  a > d[50,90]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [30, 20, 10, 40]


def test_recorded_self_times_add_up_to_the_root():
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda: sum(range(1000)))
    same = rec.wrap("outer", lambda: inner())  # re-entry: part of "outer"
    outer = rec.wrap("outer", lambda: [same(), inner()])
    rec.current_unit = 0
    root = rec.open("unit")
    outer()
    rec.close(root)
    names = [rec.names[n] for n in rec.name]
    assert names == ["unit", "outer", "inner", "inner"]
    assert list(rec.parent) == [-1, 0, 1, 1]
    layers = spans.aggregate(rec, [0])
    assert layers["outer"]["calls"] == 1 and layers["inner"]["calls"] == 2
    total = sum(slot["self_ns"] for slot in layers.values())
    assert total == rec.end[root] - rec.start[root]
    assert spans.child_calls(rec, "inner", "outer", [0]) == 2
    assert spans.aggregate(rec, [1]) == {}


def test_span_stack_survives_an_exception():
    rec = spans.Recorder()

    def fail():
        raise ValueError("boom")

    wrapped = rec.wrap("layer", fail)
    with pytest.raises(ValueError):
        wrapped()
    assert rec.stack == [] and rec.end[0] >= rec.start[0]


def test_seams_replace_every_binding_and_restore():
    import repro.tensor.autograd as autograd
    import repro.tensor.ops.base as base
    import repro.tensor.ops.elementwise as elementwise
    import repro.tensor.optim as optim

    originals = (base.launch_elementwise, elementwise.launch_elementwise,
                 optim.launch_elementwise, autograd.Function.__dict__["apply"])
    rec = spans.Recorder()
    table = spans.Seams(rec, seams.SEAMS)
    table.install()
    try:
        assert base.launch_elementwise is elementwise.launch_elementwise
        assert optim.launch_elementwise is not originals[2]
        assert isinstance(autograd.Function.__dict__["apply"], classmethod)

        from repro.gpu import SimulatedGPU
        from repro.tensor import Tensor

        device = SimulatedGPU()
        a = Tensor([1.0, 2.0], device=device, requires_grad=True)
        (a * a).sum().backward()
    finally:
        table.uninstall()
    assert (base.launch_elementwise, elementwise.launch_elementwise,
            optim.launch_elementwise,
            autograd.Function.__dict__["apply"]) == originals
    names = {rec.names[n] for n in rec.name}
    assert {"tensor.apply", "tensor.backward", "tensor.launch",
            "gpu.launch"} <= names


def test_p90_needs_a_hundred_units():
    assert harness.p90([1.0] * 99) is None
    values = [float(i) for i in range(1, 101)]
    assert harness.p90(values) == pytest.approx(90.1)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert ({w["name"]: w["why"] for w in spec["workloads"]}
            == {name: cls.why for name, cls in workloads.WORKLOADS.items()})
    # every span name has exactly one per-unit self-time metric
    assert sorted(harness.SELF_TIME.values()) == sorted(seams.LAYERS + ["unit"])
    assert set(harness.SELF_TIME) <= set(harness.PER_LAYER)


class _Fake(workloads.Workload):
    def setup(self, seed, scratch):
        pass

    def unit(self):
        return {"kernels": 3, "device_s": 0.5, "loss": 1.25}


def test_tampered_reference_counts_every_unit_failed():
    tampered = {"kernels": 3, "device_s": 0.5, "loss": 1.2500001}
    run = harness.run_units(_Fake(), 0.01, harness.make_check(tampered))
    assert run.failed == len(run.records) >= 1
    ok = harness.run_units(_Fake(), 0.01,
                           harness.make_check(dict(_Fake().unit())))
    assert ok.failed == 0


def test_without_reference_units_must_repeat_the_first():
    results = iter([{"kernels": 3}, {"kernels": 3}, {"kernels": 4}])
    check = harness.make_check(None)
    check(next(results))
    check(next(results))
    with pytest.raises(workloads.Mismatch):
        check(next(results))


def test_device_seconds_compare_to_a_relative_1e9():
    workloads.compare({"device_s": 0.0069027084347835}, {"device_s": 0.00690270843478337})
    with pytest.raises(workloads.Mismatch):
        workloads.compare({"device_s": 0.00690271}, {"device_s": 0.0069027})
    with pytest.raises(workloads.Mismatch):
        workloads.compare({"kernels": 1}, {"kernels": 1, "loss": 0.5})


def test_committed_reference_tampered_fails_a_real_unit(tmp_path):
    refs = json.loads((ROOT / "perfbench" / "references.json").read_text())
    reference = dict(refs["workloads"]["launch-bound"])
    workload = workloads.LaunchBound()
    workload.setup(refs["seed"], tmp_path)
    good = harness.run_units(workload, 0.0, harness.make_check(reference))
    assert good.failed == 0
    reference["kernels"] += 1
    bad = harness.run_units(workload, 0.0, harness.make_check(reference))
    assert bad.failed == 1 and "kernels" in bad.records[0].error


def test_traced_units_add_up_and_keep_sim_results(tmp_path):
    workload = workloads.LaunchBound()
    session = harness.TraceSession()
    session.begin(spans.SETUP_UNIT)
    workload.setup(1, tmp_path)
    session.end()
    with harness.GcMeter() as meter:
        run = harness.run_units(workload, 0.0, harness.make_check(None),
                                session=session, meter=meter,
                                probe=harness.CalibrationProbe())
    assert [r.traced for r in run.records] == [False, True]
    assert run.failed == 0 and harness.sim_identical(run)
    layers = harness.per_layer(run, session)
    assert set(layers) == set(harness.PER_LAYER)
    assert harness.layer_sum_error(layers) < 1e-6
    assert layers["tensor.launch.calls"] == layers["sim.kernels"]
    assert not session.seams.installed


def test_unit_times_scale_to_the_reference_host_speed():
    slow = harness.REFERENCE_PROBE_S * 2  # host ran at half speed
    run = harness.Run(records=[
        harness.UnitRecord(host_s=t, traced=False, result={"kernels": 100},
                           probe=slow)
        for t in (0.4, 0.8, 10.0)])
    gated = harness.end_to_end(run, [3.0, 1.0, 2.0])
    assert gated["unit_s_p50"] == pytest.approx(0.4)
    assert gated["setup_s"] == 2.0  # set-up stays on the host clock
    assert gated["sim_launches_per_s"] == pytest.approx(250.0)
    assert set(gated) == set(harness.END_TO_END)
    # a unit that ran in a fast spell is scaled by its own probe
    run.records[0].probe = harness.REFERENCE_PROBE_S / 2
    assert harness.scaled_times(run)[:2] == pytest.approx([0.8, 0.4])
