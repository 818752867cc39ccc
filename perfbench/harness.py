"""Closed-loop unit runner, traced session and metric assembly."""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import seams, spans
from .workloads import Mismatch, compare

#: unit_s_p90 needs at least ten samples beyond it
P90_MIN_UNITS = 100
#: median CalibrationProbe time on the host the bounds were set on (2-vCPU
#: Xeon at 2.0 GHz, Python 3.11, numpy 2.4); unit times are scaled to it
REFERENCE_PROBE_S = 0.0066

END_TO_END = {
    "setup_s": "s",
    "unit_s_p50": "s",
    "sim_launches_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: per-layer metric -> unit; every ``*.self_s`` is per traced unit and they
#: add up, with ``other.self_s``, to ``trace.unit_s``
PER_LAYER = {
    "tensor.apply.calls": "count/unit",
    "tensor.apply.self_s": "s/unit",
    "tensor.backward.self_s": "s/unit",
    "tensor.launch.calls": "count/unit",
    "tensor.launch.self_s": "s/unit",
    "tensor.launch.memo_hit_ratio": "ratio",
    "tensor.optim.self_s": "s/unit",
    "models.epoch.self_s": "s/unit",
    "gpu.replay.calls": "count/unit",
    "gpu.replay.self_s": "s/unit",
    "gpu.launch.calls": "count/unit",
    "gpu.launch.self_s": "s/unit",
    "gpu.analysis.calls": "count/unit",
    "gpu.analysis.self_s": "s/unit",
    "gpu.analysis.hit_ratio": "ratio",
    "gpu.divergence.self_s": "s/unit",
    "gpu.transfer.calls": "count/unit",
    "gpu.transfer.self_s": "s/unit",
    "gpu.transfer.bytes": "B/unit",
    "gpu.memory.calls": "count/unit",
    "gpu.memory.self_s": "s/unit",
    "gpu.memory.oom_events": "count/unit",
    "graph.sample.calls": "count/unit",
    "graph.sample.self_s": "s/unit",
    "graph.sample.edges": "count/unit",
    "graph.build.self_s": "s/unit",
    "train.loader.self_s": "s/unit",
    "datasets.load.self_s": "s/unit",
    "core.build.self_s": "s/unit",
    "core.task.calls": "count/unit",
    "core.task.self_s": "s/unit",
    "core.cache.load_s": "s/unit",
    "core.cache.store_s": "s/unit",
    "core.cache.hits": "count/unit",
    "core.cache.misses": "count/unit",
    "profiling.listener.calls": "count/unit",
    "profiling.listener.self_s": "s/unit",
    "profiling.report.self_s": "s/unit",
    "other.self_s": "s/unit",
    "trace.unit_s": "s/unit",
    "trace.overhead_frac": "ratio",
    "setup.graph.build.self_s": "s",
    "setup.datasets.load.self_s": "s",
    "setup.core.build.self_s": "s",
    "python.gc.collections": "count/unit",
    "python.gc.pause_s": "s/unit",
    "sim.kernels": "count/unit",
    "sim.device_s": "sim_s/unit",
}

#: per-unit self-time metric -> span name, one per span name (the ``unit``
#: root's own self time is the ``other`` remainder)
SELF_TIME = {
    **{f"{layer}.self_s": layer for layer in seams.LAYERS
       if not layer.startswith("core.cache.")},
    "core.cache.load_s": "core.cache.load",
    "core.cache.store_s": "core.cache.store",
    "other.self_s": "unit",
}
_CALLS = {f"{layer}.calls": layer for layer in seams.LAYERS
          if f"{layer}.calls" in PER_LAYER}


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> Optional[float]:
    """90th percentile, or ``None`` below :data:`P90_MIN_UNITS` samples."""
    if len(values) < P90_MIN_UNITS:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcMeter:
    """Counts cyclic-GC collections and their pause time via gc.callbacks."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_ns = 0
        self._t0 = 0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter_ns()
        else:
            self.collections += 1
            self.pause_ns += time.perf_counter_ns() - self._t0

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class CalibrationProbe:
    """A fixed ~7 ms load of pure Python and small numpy GEMMs, run before
    every unit and never inside one.

    A shared host switches between speeds about 2x apart in spells of
    seconds.  The probe slows with the host but not with the program, so
    each unit's time is scaled by ``REFERENCE_PROBE_S / probe`` taken just
    before it (see :func:`scaled_times`).
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._m = rng.standard_normal((64, 64))
        self._v = rng.standard_normal(20_000)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc: dict[int, int] = {}
        for i in range(20_000):
            acc[i & 127] = acc.get(i & 127, 0) + i
        for _ in range(40):
            (self._m @ self._m).sum()
            self._np.exp(self._v).sum()
        return time.perf_counter() - t0


class TraceSession:
    """Wrappers plus recorder; each traced unit gets a ``unit`` root span."""

    def __init__(self) -> None:
        self.rec = spans.Recorder()
        self.seams = spans.Seams(self.rec, seams.SEAMS)
        self._root = -1

    def begin(self, unit: int) -> None:
        self.seams.install()
        self.rec.current_unit = unit
        self._root = self.rec.open("setup" if unit == spans.SETUP_UNIT
                                   else "unit")

    def end(self) -> None:
        self.rec.close(self._root)
        self.rec.current_unit = spans.IDLE_UNIT
        self.seams.uninstall()


@dataclass
class UnitRecord:
    host_s: float
    traced: bool
    result: Optional[dict]
    error: Optional[str] = None
    trace_id: int = -1
    analysis: tuple = (0, 0)  # analysis-cache (hits, misses) over the unit
    probe: float = 0.0  # CalibrationProbe seconds just before the unit
    gc: tuple = (0, 0)  # (collections, pause ns) over the unit


@dataclass
class Run:
    records: list[UnitRecord] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.error is not None)


def run_units(workload, seconds: float, check: Callable[[dict], None],
              session: Optional[TraceSession] = None,
              meter: Optional[GcMeter] = None,
              analysis_stats: Optional[Callable[[], dict]] = None,
              probe: Optional[CalibrationProbe] = None) -> Run:
    """Closed loop: start the next unit when the previous one returns,
    until ``seconds`` have passed.  With a session, units alternate
    untraced / traced (at least one of each).  A unit fails when it raises
    or ``check`` rejects its result."""
    run = Run()
    min_units = 2 if session is not None else 1
    t_start = time.perf_counter()
    while True:
        traced = session is not None and len(run.records) % 2 == 1
        trace_id = len(run.records) // 2 if traced else -1
        workload.before_unit()
        speed = probe() if probe is not None else 0.0
        a0 = analysis_stats() if analysis_stats else None
        g0 = (meter.collections, meter.pause_ns) if meter else (0, 0)
        if traced:
            session.begin(trace_id)
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = workload.unit()
        except Exception:
            error = traceback.format_exc()
        host_s = time.perf_counter() - t0
        if traced:
            session.end()
        record = UnitRecord(host_s=host_s, traced=traced, result=result,
                            error=error, trace_id=trace_id, probe=speed)
        if meter:
            record.gc = (meter.collections - g0[0], meter.pause_ns - g0[1])
        if a0 is not None:
            a1 = analysis_stats()
            record.analysis = (a1["hits"] - a0["hits"],
                               a1["misses"] - a0["misses"])
        workload.after_unit()
        if error is None:
            try:
                check(result)
            except Mismatch as exc:
                record.error = str(exc)
        if record.error is not None:
            print(f"unit {len(run.records)} failed: {record.error}",
                  file=sys.stderr)
        run.records.append(record)
        if (time.perf_counter() - t_start >= seconds
                and len(run.records) >= min_units):
            break
    run.wall_s = time.perf_counter() - t_start
    return run


def make_check(reference: Optional[dict]) -> Callable[[dict], None]:
    """Compare each unit with ``reference``, or with the first unit when
    there is none (every unit of a seed must repeat the same results)."""
    state = {"expected": reference,
             "what": "reference" if reference is not None else "first unit"}

    def check(result: dict) -> None:
        if state["expected"] is None:
            state["expected"] = dict(result)
            return
        compare(result, state["expected"], what=state["what"])

    return check


def scaled_times(run: Run) -> list[float]:
    """Each unit's host time at the reference host speed."""
    return [r.host_s * REFERENCE_PROBE_S / r.probe for r in run.records]


def end_to_end(run: Run, setup_samples: list[float]) -> dict:
    """The gated metrics.

    Unit times are scaled to the reference host speed; set-up time is on
    the host clock.  Throughput is launches per unit over the median unit
    time (every unit of a run repeats the same work), so one slow unit
    moves it no more than it moves ``unit_s_p50``.
    """
    unit_s = p50(scaled_times(run))
    launches = p50([r.result["kernels"] for r in run.records
                    if r.result is not None] or [0])
    return {
        "setup_s": p50(setup_samples),
        "unit_s_p50": unit_s,
        "sim_launches_per_s": launches / unit_s,
        "peak_rss_mb": peak_rss_mib(),
    }


def per_layer(run: Run, session: TraceSession) -> dict:
    """The per-layer metrics, as means over the traced units."""
    traced = [r for r in run.records if r.traced]
    plain = [r for r in run.records if not r.traced]
    n = len(traced)
    ids = [r.trace_id for r in traced]
    rec = session.rec
    layers = spans.aggregate(rec, ids)
    setup = spans.aggregate(rec, [spans.SETUP_UNIT])
    out: dict[str, float] = {}
    for metric, span in SELF_TIME.items():
        out[metric] = layers.get(span, {}).get("self_ns", 0) / 1e9 / n
    for metric, span in _CALLS.items():
        out[metric] = layers.get(span, {}).get("calls", 0) / n
    launches = layers.get("tensor.launch", {}).get("calls", 0)
    memo_hits = spans.child_calls(rec, "gpu.replay", "tensor.launch", ids)
    out["tensor.launch.memo_hit_ratio"] = memo_hits / launches if launches else 0.0
    hits = sum(r.analysis[0] for r in traced)
    probes = hits + sum(r.analysis[1] for r in traced)
    out["gpu.analysis.hit_ratio"] = hits / probes if probes else 0.0
    for counter in ("gpu.transfer.bytes", "graph.sample.edges"):
        out[counter] = sum(rec.counts.get((i, counter), 0.0) for i in ids) / n
    results = [r.result or {} for r in traced]
    out["gpu.memory.oom_events"] = sum(x.get("oom_events", 0)
                                       for x in results) / n
    out["core.cache.hits"] = sum(x.get("cache.hits", 0) for x in results) / n
    out["core.cache.misses"] = sum(x.get("cache.misses", 0)
                                   for x in results) / n
    out["sim.kernels"] = sum(x.get("kernels", 0) for x in results) / n
    out["sim.device_s"] = sum(x.get("device_s", 0.0) for x in results) / n
    unit_ns = [rec.end[i] - rec.start[i] for i in range(len(rec))
               if rec.names[rec.name[i]] == "unit"]
    out["trace.unit_s"] = sum(unit_ns) / 1e9 / n
    scaled = list(zip(run.records, scaled_times(run)))
    out["trace.overhead_frac"] = (p50([t for r, t in scaled if r.traced])
                                  / p50([t for r, t in scaled if not r.traced])
                                  - 1.0)
    for layer in ("graph.build", "datasets.load", "core.build"):
        out[f"setup.{layer}.self_s"] = setup.get(layer, {}).get("self_ns", 0) / 1e9
    out["python.gc.collections"] = sum(r.gc[0] for r in plain) / len(plain)
    out["python.gc.pause_s"] = sum(r.gc[1] for r in plain) / 1e9 / len(plain)
    return {name: out[name] for name in PER_LAYER}


def sim_identical(run: Run) -> bool:
    """Do traced units report the same simulated values as untraced ones?"""
    def sim(record: UnitRecord) -> dict:
        return {"kernels": record.result["kernels"],
                "device_s": record.result["device_s"]}

    done = [r for r in run.records if r.result is not None]
    plain = [sim(r) for r in done if not r.traced]
    try:
        for record in done:
            compare(sim(record), plain[0], what="untraced unit")
    except (Mismatch, IndexError):
        return False
    return True


def layer_sum_error(layers: dict) -> float:
    """|per-layer self times + other - traced unit time|, in seconds."""
    return abs(sum(layers[m] for m in SELF_TIME) - layers["trace.unit_s"])
