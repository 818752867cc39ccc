"""Kernel-timeline tracing: ordered, timestamped spans on the simulated clock.

The rest of the profiling layer reports *aggregates* — op-class time sums,
stall averages, cache ratios.  Nothing there can observe *when* kernels run,
how H2D staging interleaves with compute, or how DDP's allreduce buckets sit
between backward and optimizer.  This module records exactly that: every
kernel launch, host<->device transfer and collective becomes a
:class:`Span` with a start timestamp and duration on the simulated clock,
grouped per device (Chrome ``pid``) and per stream (``tid``).

Event model
-----------

One ``pid`` per simulated GPU; within a pid, spans live on named streams:

=============  =========================================================
tid            contents
=============  =========================================================
``epoch``      one span per training epoch (emitted by the Trainer)
``phase``      derived phase spans: maximal runs of same-phase kernels
               (``forward`` / ``backward`` / ``optimizer``) plus
               ``transfer`` runs — the sample→transfer→forward→backward→
               optimizer cadence of each training step
``kernels``    every kernel launch (the launch-site fast path's replayed
               timings included — replay rebuilds the launch envelope
               whenever a listener is attached)
``h2d``/``d2h``  transfers, annotated with byte counts and (for H2D,
               where the payload is deterministic input data) sparsity
``allreduce``  NVLink ring-allreduce bucket spans (multi-GPU runs)
``serve``      one span per executed serving batch (repro.serve), from
               batch start to completion, annotated with size and
               capture-vs-replay mode
``queue``      one span per serving request's queue wait, from arrival
               to its batch's start
``loader``     one span per sampled mini-batch (repro.train.loader),
               from sampler start to batch-ready, annotated with seed
               count, sampled edges and device stall
``halo``       one span per device per halo-feature exchange
               (repro.train.sharded), annotated with byte counts and
               peer count
=============  =========================================================

Determinism rules
-----------------

Traces must be byte-identical across ``--jobs``, analysis-cache on/off and
repeat runs, so golden trace digests are snapshot-testable:

* timestamps come from the simulated clock, which the launch-analysis cache
  reproduces exactly (``tests/test_analysis_cache.py`` pins replay-clock
  equality);
* span ordering is canonical — sorted by ``(pid, stream, start)`` with a
  stable sort, so insertion order only breaks exact ties, and insertion
  order is itself deterministic;
* D2H payloads are compute results, so their zero counts never enter a
  span (mirroring the golden kernel-stream rule); H2D sparsity is derived
  from seeded input data and is recorded;
* serialization is canonical JSON (sorted keys, fixed separators), so the
  digest is just SHA-256 over the exported bytes.

Zero-cost guard
---------------

Tracing uses the same guard pattern as the launch-site memo: when no tracer
is installed (:func:`active` returns ``None``) the per-kernel path is
untouched — the device only builds :class:`KernelLaunch` envelopes when a
listener is attached, and the Trainer/optimizer/allreduce hooks are single
``is None`` checks per epoch/step/collective, never per kernel.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from ..gpu import memory as gpu_memory
from ..gpu.device import SimulatedGPU
from ..gpu.kernel import KernelLaunch, TransferRecord

TRACE_VERSION = 1

#: span categories
CAT_KERNEL = "kernel"
CAT_TRANSFER = "transfer"
CAT_ALLREDUCE = "allreduce"
CAT_PHASE = "phase"
CAT_EPOCH = "epoch"
#: zero-duration samples exported as Chrome Counter ("C") events — Perfetto
#: renders them as a memory-over-time track beside the kernel spans
CAT_COUNTER = "counter"
#: serving-simulation spans (repro.serve): one per executed batch on the
#: ``serve`` stream, one per request's queue wait on the ``queue`` stream
CAT_SERVE = "serve"
CAT_QUEUE = "queue"
#: mini-batch sampler spans (repro.train.loader): one per sampled batch on
#: the ``loader`` stream, from sample start to batch-ready.  Deliberately
#: NOT a device category — sampling runs on the host and overlaps compute.
CAT_LOADER = "loader"
#: halo-feature exchange spans (repro.train.sharded): one per device per
#: collective on the ``halo`` stream — the NVLink gather of out-of-part
#: neighbor features before a partition's aggregation can run
CAT_HALO = "halo"

#: categories that occupy the device (busy/idle accounting)
DEVICE_CATS = (CAT_KERNEL, CAT_TRANSFER, CAT_ALLREDUCE, CAT_HALO)

#: canonical stream display order inside one pid
_TID_RANK = {"epoch": 0, "phase": 1, "kernels": 2, "h2d": 3, "d2h": 4,
             "allreduce": 5, "memory": 6, "serve": 7, "queue": 8,
             "loader": 9, "halo": 10}


def _tid_rank(tid: str) -> int:
    return _TID_RANK.get(tid, len(_TID_RANK))


@dataclass(frozen=True)
class Span:
    """One timestamped interval on a device stream (times in microseconds)."""

    name: str
    cat: str
    pid: int
    tid: str
    ts_us: float
    dur_us: float
    #: sorted ``(key, value)`` pairs; values are str/int/float so spans stay
    #: hashable and serialize canonically
    args: tuple = ()

    @property
    def end_us(self) -> float:
        return self.ts_us + self.dur_us

    def arg(self, key: str, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default

    def args_dict(self) -> dict:
        return dict(self.args)

    @staticmethod
    def make(name: str, cat: str, pid: int, tid: str, start_s: float,
             end_s: float, args: Optional[dict] = None) -> "Span":
        """Build a span from clock seconds, normalizing ``args`` ordering."""
        items = tuple(sorted((args or {}).items()))
        return Span(name=name, cat=cat, pid=int(pid), tid=tid,
                    ts_us=start_s * 1e6,
                    dur_us=max(0.0, (end_s - start_s) * 1e6),
                    args=items)


class Tracer:
    """Collects spans from simulated devices and host-side emitters.

    Attach to one or more devices (kernel/transfer listeners) and install
    globally (:func:`install`) so the Trainer, optimizer hooks and
    :class:`~repro.gpu.multigpu.MultiGPUSystem` can emit host spans.  Phase
    spans are *derived*: maximal runs of consecutive same-phase kernels (or
    transfers) on one device collapse into one ``phase``-stream span, which
    keeps them a pure function of the event stream — and therefore exactly
    as deterministic as the golden kernel streams.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._devices: list[SimulatedGPU] = []
        #: pid -> [phase name, run start_s, run end_s]
        self._phase_runs: dict[int, list] = {}
        #: pid -> index of its latest counter span (same-timestamp coalescing)
        self._last_counter: dict[int, int] = {}

    # -- device plumbing ---------------------------------------------------
    def attach(self, device: SimulatedGPU) -> "Tracer":
        device.add_launch_listener(self.on_launch)
        device.add_transfer_listener(self.on_transfer)
        self._devices.append(device)
        return self

    def detach(self) -> None:
        for device in self._devices:
            device.remove_launch_listener(self.on_launch)
            device.remove_transfer_listener(self.on_transfer)
        self._devices.clear()
        self.flush_phases()

    # -- event ingestion ---------------------------------------------------
    def on_launch(self, launch: KernelLaunch) -> None:
        desc = launch.descriptor
        end = launch.start_s + launch.duration_s
        self._extend_phase(launch.device_id, desc.phase, launch.start_s, end)
        self.spans.append(Span.make(
            desc.name, CAT_KERNEL, launch.device_id, "kernels",
            launch.start_s, end,
            {"op": desc.op_class.value, "phase": desc.phase},
        ))

    def on_transfer(self, record: TransferRecord) -> None:
        end = record.start_s + record.duration_s
        self._extend_phase(record.device_id, "transfer", record.start_s, end)
        args = {
            "label": record.label,
            "nbytes": record.nbytes,
            "wire_bytes": record.wire_bytes,
            "num_values": record.num_values,
        }
        if record.direction == "h2d":
            # D2H payloads are compute results; their zero counts must not
            # enter the (byte-deterministic) trace — same rule as goldens.
            args["sparsity"] = round(record.sparsity, 9)
        self.spans.append(Span.make(
            record.label or record.direction, CAT_TRANSFER, record.device_id,
            record.direction, record.start_s, end, args,
        ))

    def add_span(self, name: str, cat: str, pid: int, tid: str,
                 start_s: float, end_s: float,
                 args: Optional[dict] = None) -> None:
        """Record an explicit host-side span (epoch, allreduce bucket, ...)."""
        self.spans.append(Span.make(name, cat, pid, tid, start_s, end_s, args))

    # -- counter samples (memory-over-time) --------------------------------
    def add_counter(self, pid: int, clock_s: float, values: dict,
                    name: str = "HBM") -> None:
        """Record one counter sample (a zero-duration span on the ``memory``
        stream).  Multiple samples at one timestamp coalesce to the last —
        an alloc/free burst inside a single simulated instant exports as one
        Chrome ``C`` event, keeping per-stream timestamps strictly usable."""
        span = Span.make(name, CAT_COUNTER, pid, "memory",
                         clock_s, clock_s, values)
        idx = self._last_counter.get(pid)
        if (idx is not None and self.spans[idx].ts_us == span.ts_us
                and self.spans[idx].name == name):
            self.spans[idx] = span
            return
        self._last_counter[pid] = len(self.spans)
        self.spans.append(span)

    def counter_sink(self, device: SimulatedGPU):
        """Adapter for :meth:`DeviceMemoryTracker.set_counter_sink`."""
        pid = device.device_id

        def sink(clock_s: float, live: int, reserved: int) -> None:
            self.add_counter(pid, clock_s,
                             {"live_bytes": int(live),
                              "reserved_bytes": int(reserved)})

        return sink

    # -- derived phase spans ----------------------------------------------
    def _extend_phase(self, pid: int, name: str, start_s: float,
                      end_s: float) -> None:
        run = self._phase_runs.get(pid)
        if run is not None and run[0] == name:
            run[2] = end_s
            return
        if run is not None:
            self._close_phase(pid, run)
        self._phase_runs[pid] = [name, start_s, end_s]

    def _close_phase(self, pid: int, run: list) -> None:
        self.spans.append(Span.make(run[0], CAT_PHASE, pid, "phase",
                                    run[1], run[2]))

    def flush_phases(self, pid: Optional[int] = None) -> None:
        """Close open phase runs (epoch boundaries must not be straddled)."""
        if pid is None:
            pids = list(self._phase_runs)
        else:
            pids = [pid] if pid in self._phase_runs else []
        for p in pids:
            self._close_phase(p, self._phase_runs.pop(p))

    def end_epoch(self, device: SimulatedGPU, index: int,
                  start_s: float) -> None:
        """Trainer hook: close phase runs and emit the epoch span."""
        self.flush_phases(device.device_id)
        self.add_span(f"epoch {index}", CAT_EPOCH, device.device_id, "epoch",
                      start_s, device.elapsed_s())

    def timeline(self) -> "Timeline":
        self.flush_phases()
        return Timeline(self.spans)


# -- the global tracer (zero-cost when absent) --------------------------------
_TRACER: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` — the single-check fast guard."""
    return _TRACER


def install(tracer: Tracer) -> Tracer:
    global _TRACER
    if _TRACER is not None:
        raise RuntimeError("a tracer is already installed; uninstall() first")
    _TRACER = tracer
    return tracer


def uninstall() -> None:
    global _TRACER
    _TRACER = None


@contextlib.contextmanager
def session(devices: Sequence[SimulatedGPU] = (),
            tracer: Optional[Tracer] = None):
    """Install a tracer (attached to ``devices``) for the duration of a block."""
    tracer = tracer or Tracer()
    for device in devices:
        tracer.attach(device)
    install(tracer)
    try:
        yield tracer
    finally:
        uninstall()
        tracer.detach()


class Timeline:
    """Compact in-memory span store with interval queries and Chrome export.

    Spans are held in canonical order — ``(pid, stream rank, start)`` under
    a stable sort — so two timelines built from the same event stream are
    equal element-wise and serialize byte-identically.
    """

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans: list[Span] = sorted(
            spans, key=lambda s: (s.pid, _tid_rank(s.tid), s.ts_us)
        )

    def __len__(self) -> int:
        return len(self.spans)

    def __eq__(self, other) -> bool:
        return isinstance(other, Timeline) and self.spans == other.spans

    # -- queries -----------------------------------------------------------
    def query(self, pid: Optional[int] = None, tid: Optional[str] = None,
              cat: Optional[str] = None,
              name: Optional[str] = None) -> list[Span]:
        return [
            s for s in self.spans
            if (pid is None or s.pid == pid)
            and (tid is None or s.tid == tid)
            and (cat is None or s.cat == cat)
            and (name is None or s.name == name)
        ]

    def device_ids(self) -> list[int]:
        return sorted({s.pid for s in self.spans})

    def wall_us(self) -> float:
        return max((s.end_us for s in self.spans), default=0.0)

    def wall_s(self) -> float:
        return self.wall_us() / 1e6

    def _intervals(self, pid: Optional[int],
                   cats: Sequence[str]) -> list[tuple[float, float]]:
        ivals = [(s.ts_us, s.end_us) for s in self.spans
                 if s.cat in cats and (pid is None or s.pid == pid)]
        return _merge_intervals(ivals)

    def busy_us(self, pid: int) -> float:
        """Microseconds the device is occupied (union of device-cat spans)."""
        return sum(b - a for a, b in self._intervals(pid, DEVICE_CATS))

    def idle_fraction(self, pid: int) -> float:
        """Fraction of the trace wall-clock this device spends idle."""
        wall = self.wall_us()
        if wall <= 0:
            return 0.0
        return 1.0 - self.busy_us(pid) / wall

    def overlap_us(self, cat_a: str, cat_b: str,
                   pid: Optional[int] = None) -> float:
        """Total time where a ``cat_a`` span and a ``cat_b`` span coexist."""
        return _intersect_total(self._intervals(pid, (cat_a,)),
                                self._intervals(pid, (cat_b,)))

    def compute_transfer_overlap(self, pid: Optional[int] = None) -> float:
        """Fraction of transfer time hidden under kernel execution.

        Pageable PyTorch-1.5-style copies are synchronous, so this is ~0 on
        faithful configurations — the observability exists precisely so a
        future pinned/async transfer model has a measurable target.
        """
        transfer = sum(b - a for a, b in self._intervals(pid, (CAT_TRANSFER,)))
        if transfer <= 0:
            return 0.0
        return self.overlap_us(CAT_KERNEL, CAT_TRANSFER, pid) / transfer

    def phase_occupancy(self, pid: Optional[int] = None) -> dict[str, float]:
        """Per-phase share of the trace wall-clock (derived phase spans).

        With ``pid=None`` the share is averaged over devices, so a
        symmetric multi-GPU trace reports the same occupancy as any one
        of its replicas.
        """
        wall = self.wall_us()
        if wall <= 0:
            return {}
        if pid is None:
            wall *= max(1, len(self.device_ids()))
        acc: dict[str, float] = {}
        for s in self.spans:
            if s.cat == CAT_PHASE and (pid is None or s.pid == pid):
                acc[s.name] = acc.get(s.name, 0.0) + s.dur_us
        return {name: acc[name] / wall for name in sorted(acc)}

    def critical_path(self) -> list[Span]:
        """Device-occupying spans of the last-finishing device, in order.

        Every per-device stream is serialized (in-order launch semantics) and
        collectives are barriers, so the chain of kernel/transfer/allreduce
        spans on the device that finishes last covers the end-to-end
        wall-clock minus that device's idle gaps.
        """
        best_pid, best_end = None, -1.0
        for pid in self.device_ids():
            end = max((s.end_us for s in self.spans
                       if s.pid == pid and s.cat in DEVICE_CATS), default=0.0)
            if end > best_end:
                best_pid, best_end = pid, end
        if best_pid is None:
            return []
        return [s for s in self.spans
                if s.pid == best_pid and s.cat in DEVICE_CATS]

    def critical_path_s(self) -> float:
        return sum(s.dur_us for s in self.critical_path()) / 1e6

    def span_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.spans:
            counts[s.cat] = counts.get(s.cat, 0) + 1
        return {cat: counts[cat] for cat in sorted(counts)}

    def summary(self) -> dict:
        """The profiling report's timeline block (small, picklable)."""
        wall = self.wall_s()
        devices = {
            str(pid): {
                "busy_s": self.busy_us(pid) / 1e6,
                "idle_fraction": self.idle_fraction(pid),
            }
            for pid in self.device_ids()
        }
        idle = [d["idle_fraction"] for d in devices.values()]
        return {
            "wall_s": wall,
            "span_count": len(self.spans),
            "span_counts": self.span_counts(),
            "devices": devices,
            "idle_fraction": max(idle) if idle else 0.0,
            "compute_transfer_overlap": self.compute_transfer_overlap(),
            "phase_occupancy": self.phase_occupancy(),
        }

    # -- multi-GPU symmetry ------------------------------------------------
    def replicate_device(self, src_pid: int,
                         dst_pids: Iterable[int]) -> "Timeline":
        """Clone one device's non-collective spans onto peer pids.

        DDP replicas are symmetric — every device runs the same stream shape
        on the same clock — so an N-GPU trace is device 0's stream replicated
        N ways plus the per-pid allreduce bucket spans already recorded.
        """
        clones = [
            replace(s, pid=int(pid))
            for pid in dst_pids
            for s in self.spans
            if s.pid == src_pid and s.cat != CAT_ALLREDUCE
        ]
        return Timeline(self.spans + clones)

    # -- Chrome trace JSON -------------------------------------------------
    def to_chrome(self, manifest: Optional[dict] = None) -> dict:
        """``chrome://tracing`` / Perfetto JSON object format.

        ``manifest`` (a :class:`repro.profiling.insights.RunManifest` dict)
        rides along under ``otherData`` so exported traces are
        provenance-comparable; :meth:`digest` never passes one, keeping
        golden trace digests a function of the spans alone.
        """
        events: list[dict] = []
        pids = self.device_ids()
        tids = sorted({(s.pid, s.tid) for s in self.spans},
                      key=lambda pt: (pt[0], _tid_rank(pt[1])))
        for pid in pids:
            events.append({"ph": "M", "pid": pid, "tid": "", "ts": 0,
                           "name": "process_name",
                           "args": {"name": f"simulated GPU {pid}"}})
        for pid, tid in tids:
            events.append({"ph": "M", "pid": pid, "tid": tid, "ts": 0,
                           "name": "thread_name", "args": {"name": tid}})
            events.append({"ph": "M", "pid": pid, "tid": tid, "ts": 0,
                           "name": "thread_sort_index",
                           "args": {"sort_index": _tid_rank(tid)}})
        for s in self.spans:
            if s.cat == CAT_COUNTER:
                events.append({
                    "ph": "C", "name": s.name, "cat": s.cat, "pid": s.pid,
                    "tid": s.tid, "ts": s.ts_us, "args": s.args_dict(),
                })
                continue
            events.append({
                "ph": "X", "name": s.name, "cat": s.cat, "pid": s.pid,
                "tid": s.tid, "ts": s.ts_us, "dur": s.dur_us,
                "args": s.args_dict(),
            })
        other = {"generator": "repro.profiling.trace",
                 "version": TRACE_VERSION}
        if manifest is not None:
            other["runManifest"] = manifest
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": other}

    def to_json(self, manifest: Optional[dict] = None) -> str:
        """Canonical serialization: the bytes the digest is defined over."""
        return json.dumps(self.to_chrome(manifest), sort_keys=True,
                          separators=(",", ":")) + "\n"

    def write(self, path, manifest: Optional[dict] = None) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json(manifest))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    @classmethod
    def from_chrome(cls, data: dict) -> "Timeline":
        """Rebuild a Timeline from Chrome JSON (lossless for ``X`` span and
        ``C`` counter events)."""
        spans = []
        for event in data.get("traceEvents", ()):
            ph = event.get("ph")
            if ph == "X":
                spans.append(Span(
                    name=event["name"], cat=event.get("cat", ""),
                    pid=int(event["pid"]), tid=str(event["tid"]),
                    ts_us=float(event["ts"]), dur_us=float(event["dur"]),
                    args=tuple(sorted(event.get("args", {}).items())),
                ))
            elif ph == "C":
                spans.append(Span(
                    name=event["name"], cat=event.get("cat", CAT_COUNTER),
                    pid=int(event["pid"]),
                    tid=str(event.get("tid", "memory")),
                    ts_us=float(event["ts"]), dur_us=0.0,
                    args=tuple(sorted(event.get("args", {}).items())),
                ))
        return cls(spans)


def _merge_intervals(
    intervals: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        last_start, last_end = merged[-1]
        if start <= last_end:
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged


def _intersect_total(a: list[tuple[float, float]],
                     b: list[tuple[float, float]]) -> float:
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def validate_chrome(data: dict) -> None:
    """Raise ``ValueError`` unless ``data`` is a well-formed Chrome trace.

    Checks the required keys per event and that ``ts`` is monotone
    non-decreasing within every ``(pid, tid)`` stream — the CI gate for
    exported artifacts.
    """
    if not isinstance(data, dict) or not isinstance(
        data.get("traceEvents"), list
    ):
        raise ValueError("Chrome trace must be an object with a "
                         "'traceEvents' list")
    last_ts: dict[tuple, float] = {}
    for i, event in enumerate(data["traceEvents"]):
        if not isinstance(event, dict) or "ph" not in event:
            raise ValueError(f"traceEvents[{i}]: not an event object")
        if event["ph"] == "M":
            continue
        if event["ph"] == "C":
            for field in ("name", "pid", "ts", "args"):
                if field not in event:
                    raise ValueError(f"traceEvents[{i}]: missing {field!r}")
            ts = float(event["ts"])
            if ts < 0:
                raise ValueError(f"traceEvents[{i}]: negative ts")
            stream = (event["pid"], "C", event["name"])
            if ts < last_ts.get(stream, 0.0):
                raise ValueError(
                    f"traceEvents[{i}]: ts {ts} not monotone on counter "
                    f"stream {stream}"
                )
            last_ts[stream] = ts
            continue
        if event["ph"] != "X":
            raise ValueError(f"traceEvents[{i}]: unsupported phase "
                             f"{event['ph']!r}")
        for field in ("name", "cat", "pid", "tid", "ts", "dur"):
            if field not in event:
                raise ValueError(f"traceEvents[{i}]: missing {field!r}")
        ts, dur = float(event["ts"]), float(event["dur"])
        if ts < 0 or dur < 0:
            raise ValueError(f"traceEvents[{i}]: negative ts/dur")
        stream = (event["pid"], event["tid"])
        if ts < last_ts.get(stream, 0.0):
            raise ValueError(
                f"traceEvents[{i}]: ts {ts} not monotone on stream {stream}"
            )
        last_ts[stream] = ts


# -- workload tracing entry points -------------------------------------------
def trace_workload(key: str, scale: str = "test", epochs: int = 1,
                   seed: int = 0, sim=None, memory: bool = False,
                   mode: Optional[str] = None,
                   launch_listener=None) -> Timeline:
    """Train ``epochs`` of one workload on a single traced device.

    Mirrors :func:`repro.testing.golden.fingerprint_workload`: reseed, build,
    reset (setup excluded), then record every event of training.  With
    ``memory=True`` a device-memory tracker rides along and every alloc/free
    emits a live/reserved counter sample — Perfetto shows the HBM footprint
    as a counter track beside the kernel spans.  Golden trace fingerprints
    keep ``memory=False``, so their digests are untouched by the samples.

    ``mode`` selects the training loop: ``None`` is the plain trainer,
    ``"steady"`` enforces the static-input discipline, ``"capture"`` runs
    capture/replay (repro.gpu.graph_capture) — the differential trace tests
    compare the latter two byte-for-byte.

    ``launch_listener`` rides along as an extra device launch listener for
    the duration of training (the insight engine's per-launch collector);
    it is attached after the post-build ``reset()``, so it sees exactly the
    launches the trace does.
    """
    from ..core import registry
    from ..tensor import manual_seed
    from ..train.trainer import Trainer

    spec = registry.get(key)
    manual_seed(seed)
    device = SimulatedGPU(sim)
    mem_ctx = (gpu_memory.track(device) if memory
               else contextlib.nullcontext(None))
    with mem_ctx as memtracker:
        workload = spec.build(device=device, scale=scale)
        device.reset()
        if launch_listener is not None:
            device.add_launch_listener(launch_listener)
        try:
            with session(devices=(device,)) as tracer:
                if memtracker is not None:
                    memtracker.set_counter_sink(tracer.counter_sink(device))
                Trainer(workload=workload, device=device,
                        steady=mode == "steady",
                        capture_replay=mode == "capture").run(epochs=epochs,
                                                              seed=seed)
        finally:
            if launch_listener is not None:
                device.remove_launch_listener(launch_listener)
    return tracer.timeline()


def trace_point(key: str, num_gpus: int = 1, scale: str = "test",
                epochs: int = 1, seed: int = 0, sim=None,
                memory: bool = False, launch_listener=None) -> Timeline:
    """Trace one workload on ``num_gpus`` simulated devices.

    Memory counter tracks are single-device only: the DDP path replicates
    device 0's spans to every peer, and cloning footprint samples would
    assert knowledge the allocator model doesn't have about replicas.
    ``launch_listener`` observes device 0's launches on either path (DDP
    replicas are symmetric, so device 0's stream characterizes each peer).
    """
    if num_gpus <= 1:
        return trace_workload(key, scale=scale, epochs=epochs, seed=seed,
                              sim=sim, memory=memory,
                              launch_listener=launch_listener)
    from ..train import ddp

    return ddp.trace_scaling_point(key, num_gpus, scale=scale, epochs=epochs,
                                   seed=seed, sim=sim,
                                   launch_listener=launch_listener)


def trace_run(key: str, scale: str = "test", epochs: int = 1, seed: int = 0,
              num_gpus: int = 1, traced: bool = True) -> tuple[dict, Timeline]:
    """One traced run → ``(summary report, timeline)``; the timeline comes
    back whatever ``traced`` says.  Memory counter tracks ride along on
    single-device traces only."""
    timeline = trace_point(key, num_gpus=num_gpus, scale=scale, epochs=epochs,
                           seed=seed, memory=num_gpus == 1)
    report = dict(timeline.summary(), workload=key, scale=scale,
                  epochs=epochs, seed=seed, gpus=num_gpus)
    return report, timeline


def trace_fingerprint(key: str, scale: str = "test", epochs: int = 1,
                      seed: int = 0, num_gpus: int = 1) -> dict:
    """Golden-trace payload: structural counts plus the canonical digest."""
    timeline = trace_point(key, num_gpus=num_gpus, scale=scale, epochs=epochs,
                           seed=seed)
    return {
        "version": TRACE_VERSION,
        "workload": key,
        "scale": scale,
        "epochs": epochs,
        "seed": seed,
        "num_gpus": num_gpus,
        "span_count": len(timeline),
        "span_counts": timeline.span_counts(),
        "wall_us": timeline.wall_us(),
        "trace_digest": timeline.digest(),
    }
