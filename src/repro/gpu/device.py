"""The simulated GPU device.

A :class:`SimulatedGPU` keeps a simulated clock.  The tensor framework calls
:meth:`launch` for every kernel an operation would run on real hardware; the
device runs the analytical cache/timing/stall models and advances the clock
by the kernel duration plus launch overhead.  Host<->device copies go through
:meth:`h2d` / :meth:`d2h`, which measure the value sparsity of the actual
buffer — the paper's transfer-sparsity instrumentation.

Profilers subscribe as listeners; the device itself only keeps aggregate
counters so that arbitrarily long training runs stay cheap.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import analysis_cache, memory, timing
from .config import DEFAULT_SIMULATION, SimulationConfig
from .kernel import KernelDescriptor, KernelLaunch, TransferRecord

LaunchListener = Callable[[KernelLaunch], None]
TransferListener = Callable[[TransferRecord], None]

#: live devices, tracked weakly so ``analysis_cache.clear()`` can flush every
#: per-device launch-site memo without pinning retired devices in memory.
_DEVICES: "weakref.WeakSet[SimulatedGPU]" = weakref.WeakSet()


def _clear_site_caches() -> None:
    for dev in _DEVICES:
        dev.site_records.clear()


def _reset_analysis_counters(_enabled: bool) -> None:
    # hit/miss ratios sampled under one caching discipline are meaningless
    # once the effective setting flips; start every regime from zero.
    for dev in _DEVICES:
        dev.stats.analysis_hits = 0
        dev.stats.analysis_misses = 0


analysis_cache.register_clear_hook(_clear_site_caches)
analysis_cache.register_toggle_hook(_reset_analysis_counters)


@dataclass
class DeviceStats:
    """Aggregate counters maintained by the device itself."""

    kernel_count: int = 0
    kernel_time_s: float = 0.0
    launch_overhead_s: float = 0.0
    transfer_count: int = 0
    transfer_time_s: float = 0.0
    h2d_bytes: int = 0
    d2h_bytes: int = 0
    fp32_flops: float = 0.0
    int32_iops: float = 0.0
    #: launches whose analysis triple was replayed from the memoized
    #: launch-analysis cache vs. computed cold (repro.gpu.analysis_cache).
    analysis_hits: int = 0
    analysis_misses: int = 0

    def reset(self) -> None:
        self.kernel_count = 0
        self.kernel_time_s = 0.0
        self.launch_overhead_s = 0.0
        self.transfer_count = 0
        self.transfer_time_s = 0.0
        self.h2d_bytes = 0
        self.d2h_bytes = 0
        self.fp32_flops = 0.0
        self.int32_iops = 0.0
        self.analysis_hits = 0
        self.analysis_misses = 0


class SimulatedGPU:
    """An analytical model of one GPU (default: NVIDIA V100)."""

    def __init__(
        self,
        sim: SimulationConfig | None = None,
        device_id: int = 0,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim or DEFAULT_SIMULATION
        self.device_id = device_id
        self.name = name or f"cuda:{device_id}"
        self.clock_s = 0.0
        #: host-side enqueue clock: CUDA launches are asynchronous, so the
        #: CPU runs ahead of the GPU; a kernel can start no earlier than its
        #: enqueue completes.  Launch overhead therefore only opens real GPU
        #: gaps when kernels are shorter than the enqueue rate — the effect
        #: that starves many-tiny-kernel workloads (Tree-LSTM) while large
        #: kernels absorb it entirely.
        self.host_clock_s = 0.0
        self.stats = DeviceStats()
        #: this config's launch-analysis memo, resolved once — the launch
        #: hot path must not pay a registry lookup per kernel
        self._analysis = analysis_cache.cache_for(self.sim)
        #: launch-site memo: full (descriptor, analysis record) pairs keyed
        #: by the emitting site's raw arguments (see ops.base.launch), letting
        #: repeat launches skip descriptor construction entirely
        self.site_records: dict[tuple, tuple] = {}
        #: simulated HBM occupancy (repro.gpu.memory); passive until a
        #: DeviceMemoryTracker drives it — never touched on the launch path
        self.memory = memory.MemoryPool(self.sim.device.dram_size_bytes)
        self._launch_listeners: list[LaunchListener] = []
        self._transfer_listeners: list[TransferListener] = []
        self._launch_counter = 0
        _DEVICES.add(self)

    # -- listener management -------------------------------------------------
    def add_launch_listener(self, listener: LaunchListener) -> None:
        self._launch_listeners.append(listener)

    def remove_launch_listener(self, listener: LaunchListener) -> None:
        self._launch_listeners.remove(listener)

    def add_transfer_listener(self, listener: TransferListener) -> None:
        self._transfer_listeners.append(listener)

    def remove_transfer_listener(self, listener: TransferListener) -> None:
        self._transfer_listeners.remove(listener)

    # -- execution ------------------------------------------------------------
    def _analyze(self, desc: KernelDescriptor):
        """``(record, was_cache_hit)`` for one descriptor under this device's
        config; with memoization off every launch is a cold miss."""
        if analysis_cache.enabled():
            return self._analysis.analyze(desc, self.sim)
        return analysis_cache.compute(desc, self.sim), False

    def launch(self, desc: KernelDescriptor) -> KernelLaunch:
        """Simulate one kernel launch and advance the device clock.

        The cache/timing/stall analysis is memoized per descriptor signature
        (:mod:`repro.gpu.analysis_cache`): repeated launches of an identical
        descriptor — every layer and epoch of GNN training re-emits them over
        the same adjacency — degrade to a dict lookup plus clock arithmetic.
        """
        record, hit = self._analyze(desc)
        return self._account(desc, record, hit, envelope=True)

    def launch_fast(self, desc: KernelDescriptor) -> Optional[KernelLaunch]:
        """:meth:`launch` for the tensor-ops hot path.

        Identical clock/stat effects, but analysis-cache hits go through
        :meth:`replay`, and no :class:`KernelLaunch` envelope is built (``None``
        is returned) when no profiler is listening.  :meth:`launch` keeps the
        always-return-a-launch contract for direct callers.
        """
        record, hit = self._analyze(desc)
        if hit:
            return self.replay(desc, record)
        return self._account(desc, record, False)

    def launch_analyzed(
        self, desc: KernelDescriptor
    ) -> tuple["analysis_cache.AnalysisRecord", Optional[KernelLaunch]]:
        """:meth:`launch` that also hands back the analysis record; like
        :meth:`launch_fast`, it builds no envelope unless a profiler listens.

        The miss path of the launch-site memo (``ops.base.launch``) uses this
        to capture the record it will replay on subsequent hits without a
        second cache probe.
        """
        record, hit = self._analyze(desc)
        return record, self._account(desc, record, hit)

    def replay(self, desc: KernelDescriptor, record) -> Optional[KernelLaunch]:
        """Re-issue a memoized launch: clock arithmetic plus counters only.

        Byte-identical to :meth:`launch` of the same descriptor — the record
        was produced from exactly this descriptor — but skips building the
        :class:`KernelLaunch` envelope unless a profiler is listening.
        """
        return self._account(desc, record, True)

    def _account(self, desc: KernelDescriptor, record, hit: bool,
                 envelope: bool = False) -> Optional[KernelLaunch]:
        """Advance the clocks and counters for one launch of ``desc`` costed
        by ``record``; build the envelope and notify listeners when any are
        attached (or ``envelope`` asks for one regardless)."""
        duration = record.timing.duration_s
        host = self.host_clock_s + self.sim.device.kernel_launch_overhead_s
        self.host_clock_s = host
        clock = self.clock_s
        start = host if host > clock else clock
        self.clock_s = start + duration
        launch_id = self._launch_counter
        self._launch_counter = launch_id + 1

        stats = self.stats
        stats.kernel_count += 1
        stats.kernel_time_s += duration
        stats.launch_overhead_s += start - clock
        stats.fp32_flops += desc.fp32_flops
        stats.int32_iops += desc.int32_iops
        if hit:
            stats.analysis_hits += 1
        else:
            stats.analysis_misses += 1

        listeners = self._launch_listeners
        if not (listeners or envelope):
            return None
        launch = KernelLaunch(desc, launch_id, self.device_id, start, record)
        for listener in listeners:
            listener(launch)
        return launch

    def h2d(self, array: np.ndarray, label: str = "") -> TransferRecord:
        """Copy a host buffer to the device, measuring value sparsity."""
        return self._transfer("h2d", label, np.asarray(array))

    def d2h(self, array: np.ndarray, label: str = "") -> TransferRecord:
        """Copy a device buffer back to the host."""
        return self._transfer("d2h", label, np.asarray(array))

    def transfer_bytes(
        self, nbytes: int, direction: str, label: str = "",
        num_values: int = 0,
    ) -> TransferRecord:
        """Account an *analytic* host<->device copy of ``nbytes``.

        Out-of-core staging (repro.train.sharded) moves partitions far too
        large to materialize as real arrays, so this path charges the PCIe
        cost model with a bare byte count: no payload to measure sparsity
        on, no compression (nothing to compress), and no tracker
        registration — capacity-mode callers drive the memory pool
        directly.  Clock advance, stats and transfer listeners behave
        exactly like :meth:`h2d`/:meth:`d2h`.
        """
        if direction not in ("h2d", "d2h"):
            raise ValueError(f"unknown transfer direction {direction!r}")
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        return self._transfer(direction, label, None, nbytes, int(num_values))

    def _transfer(
        self, direction: str, label: str, values: Optional[np.ndarray],
        nbytes: int = 0, num_values: int = 0,
    ) -> TransferRecord:
        """Account one copy: of a real buffer ``values`` (measured, and
        registered with the memory tracker on h2d), or with ``values=None``
        of an analytic ``nbytes``.  Clocks and stats advance first, then the
        tracker, then the transfer listeners."""
        num_zeros = 0
        wire_bytes = nbytes
        if values is not None:
            nbytes = wire_bytes = int(values.nbytes)
            num_values = int(values.size)
            if values.dtype == np.bool_ or np.issubdtype(values.dtype, np.number):
                num_zeros = int(values.size - np.count_nonzero(values))
            if direction == "h2d" and self.sim.transfer_compression != "none":
                from .compression import compress

                wire_bytes = compress(values, self.sim.transfer_compression).compressed_bytes
        # Unlabelled copies at least say which way they went — "h2d"/"d2h"
        # reads better than "" in traces and memory attributions.
        label = label or direction
        duration = timing.h2d_time(wire_bytes, self.sim)
        # PyTorch-1.5-style pageable copies are synchronous: the host stalls
        # until the copy completes, re-aligning both clocks.
        start = max(self.clock_s, self.host_clock_s)
        record = TransferRecord(
            direction=direction,
            nbytes=nbytes,
            num_values=num_values,
            num_zeros=num_zeros,
            label=label,
            start_s=start,
            duration_s=duration,
            device_id=self.device_id,
            wire_bytes=wire_bytes,
        )
        self.clock_s = start + duration
        self.host_clock_s = self.clock_s
        self.stats.transfer_count += 1
        self.stats.transfer_time_s += duration
        if direction == "h2d":
            self.stats.h2d_bytes += nbytes
            # registered before the listeners run: graph capture's
            # _EpochRecorder.finish relies on this order
            tracker = memory._TRACKER
            if values is not None and tracker is not None and tracker.device is self:
                tracker.register(values, label=label)
        else:
            self.stats.d2h_bytes += nbytes
        for listener in self._transfer_listeners:
            listener(record)
        return record

    # -- clock ---------------------------------------------------------------
    def elapsed_s(self) -> float:
        return self.clock_s

    def reset(self) -> None:
        """Start a fresh measurement run: clocks, counters, and any listener
        or launch-site memo state left behind by earlier instrumentation.

        Every profiler/tracer/recorder in the repo attaches *after* reset,
        so dropping stale listeners here means a detached-in-error tracer
        from a previous run can never skew a later one on a reused device.
        The memory pool is deliberately untouched — its lifecycle belongs to
        :func:`repro.gpu.memory.track`, which may span a reset (allocations
        made during build survive into the measured run).
        """
        self.clock_s = 0.0
        self.host_clock_s = 0.0
        self._launch_counter = 0
        self.stats.reset()
        self._launch_listeners.clear()
        self._transfer_listeners.clear()
        self.site_records.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SimulatedGPU({self.name}, kernels={self.stats.kernel_count}, "
            f"t={self.clock_s * 1e3:.3f} ms)"
        )
