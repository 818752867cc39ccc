"""Golden snapshots: committed JSON reports every golden kind is diffed against.

The op stream a workload emits is *emergent* from its forward/backward math,
so a refactor that silently changes the math changes the stream.  The
default kind, ``fingerprint``, snapshots a deterministic fingerprint of each
workload's one-epoch kernel stream — launch counts per op class and phase,
closed-form instruction/byte totals, transfer totals, training losses, and a
SHA-256 digest of the full ordered stream — as JSON under ``tests/golden/``.
The other golden kinds (timeline traces, HBM reports, fused replay plans,
serving, sampled and sharded training, insights) snapshot their own reports
beside it.

Every golden kind is one row of :mod:`repro.core.kinds`, and one generic set
of functions serves them all: :func:`path`, :func:`load`, :func:`save`,
:func:`compare`, :func:`verify` and :func:`update`.  Regenerate after an
*intentional* change with::

    PYTHONPATH=src python -m repro golden [--traces|--memory|...] --update

Everything hashed is derived from tensor shapes, graph structure, seeded
RNG draws and the analytical device model (never from float compute
results), so snapshots are bit-stable across machines; training losses ARE
compute results and are therefore compared with a tolerance instead of
entering the digest.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

import numpy as np

from ..core import kinds, registry
from ..gpu import SimulatedGPU
from ..gpu.kernel import KernelLaunch, TransferRecord
from ..tensor import manual_seed
from ..train.trainer import Trainer

FINGERPRINT_VERSION = 1

#: repo-root tests/golden/ (this file lives at src/repro/testing/golden.py)
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"


def golden_dir() -> Path:
    """Snapshot directory (override with ``REPRO_GOLDEN_DIR``)."""
    override = os.environ.get("REPRO_GOLDEN_DIR")
    return Path(override) if override else GOLDEN_DIR


def launch_line(launch: KernelLaunch) -> tuple:
    """One kernel launch as a stream-digest line: its descriptor only."""
    d = launch.descriptor
    return (
        "K", d.name, d.op_class.value, d.phase, d.threads, d.block_size,
        d.fp32_flops, d.int32_iops, d.ldst_instrs, d.control_instrs,
        d.bytes_read, d.bytes_written,
    )


def transfer_line(record: TransferRecord) -> tuple:
    """One host<->device copy as a stream-digest line."""
    # num_zeros is intentionally absent: d2h payloads are compute results,
    # and a borderline value flipping to exact zero must not change the
    # structural digest.
    return ("T", record.direction, record.label, record.nbytes,
            record.num_values, record.wire_bytes)


class StreamRecorder:
    """Device listener that keeps the full ordered launch/transfer stream."""

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self._device: Optional[SimulatedGPU] = None

    def attach(self, device: SimulatedGPU) -> "StreamRecorder":
        device.add_launch_listener(self.on_launch)
        device.add_transfer_listener(self.on_transfer)
        self._device = device
        return self

    def detach(self) -> None:
        if self._device is not None:
            self._device.remove_launch_listener(self.on_launch)
            self._device.remove_transfer_listener(self.on_transfer)
            self._device = None

    def on_launch(self, launch: KernelLaunch) -> None:
        self.events.append(launch_line(launch))

    def on_transfer(self, record: TransferRecord) -> None:
        self.events.append(transfer_line(record))

    def digest(self) -> str:
        h = hashlib.sha256()
        for event in self.events:
            h.update(repr(event).encode())
            h.update(b"\n")
        return h.hexdigest()


def fingerprint_workload(
    key: str,
    scale: str = "test",
    epochs: int = 1,
    seed: int = 0,
) -> dict:
    """Train ``epochs`` of a workload and fingerprint its kernel stream.

    Reseeds the framework RNG before building so parameter initialization —
    and hence any data-dependent control flow — is reproducible across
    processes.
    """
    spec = registry.get(key)
    manual_seed(seed)
    device = SimulatedGPU()
    workload = spec.build(device=device, scale=scale)
    device.reset()
    recorder = StreamRecorder().attach(device)
    results = Trainer(workload=workload, device=device).run(epochs=epochs,
                                                            seed=seed)
    recorder.detach()

    launches = [e for e in recorder.events if e[0] == "K"]
    transfers = [e for e in recorder.events if e[0] == "T"]
    op_hist: dict[str, int] = {}
    phase_hist: dict[str, int] = {}
    totals = {"fp32_flops": 0.0, "int32_iops": 0.0, "ldst_instrs": 0.0,
              "control_instrs": 0.0, "bytes_read": 0.0, "bytes_written": 0.0}
    for (_, _, op_class, phase, _, _, flops, iops, ldst, control,
         br, bw) in launches:
        op_hist[op_class] = op_hist.get(op_class, 0) + 1
        phase_hist[phase] = phase_hist.get(phase, 0) + 1
        totals["fp32_flops"] += flops
        totals["int32_iops"] += iops
        totals["ldst_instrs"] += ldst
        totals["control_instrs"] += control
        totals["bytes_read"] += br
        totals["bytes_written"] += bw

    transfer_totals = {"h2d_bytes": 0, "d2h_bytes": 0, "wire_bytes": 0}
    for _, direction, _, nbytes, _, wire in transfers:
        transfer_totals[f"{direction}_bytes"] += nbytes
        transfer_totals["wire_bytes"] += wire

    return {
        "version": FINGERPRINT_VERSION,
        "workload": key,
        "scale": scale,
        "epochs": epochs,
        "seed": seed,
        "launch_count": len(launches),
        "transfer_count": len(transfers),
        "op_class_launches": dict(sorted(op_hist.items())),
        "phase_launches": dict(sorted(phase_hist.items())),
        "totals": totals,
        "transfer_totals": transfer_totals,
        "losses": [float(r.metrics.get("loss", 0.0)) for r in results],
        "stream_digest": recorder.digest(),
    }


# -- capture/replay differential fingerprints ---------------------------------
# These extend the stream-digest contract to the *replay fast path*
# (repro.gpu.graph_capture): a capture-replay run must be byte-identical to a
# steady-dispatch run — same ordered stream, same final clocks, same
# DeviceStats.  tests/test_graph_capture.py fans these out through the
# execution engine across --jobs counts and analysis-cache settings.

def capture_fingerprint(
    key: str,
    scale: str = "test",
    epochs: int = 5,
    seed: int = 0,
    mode: str = "capture",
    analysis_cache_enabled: Optional[bool] = None,
) -> dict:
    """Fingerprint a steady-state run, dispatched or captured-and-replayed.

    ``mode="steady"`` restores the steady-state snapshot and dispatches every
    epoch; ``mode="capture"`` runs the full warmup/capture/validate/replay
    state machine.  Beyond :func:`fingerprint_workload`'s stream digest, the
    payload pins the final device clocks and the complete ``DeviceStats`` —
    the quantities replay recomputes rather than records.  The process-global
    launch-analysis cache is cleared first (and forced on/off when
    ``analysis_cache_enabled`` is not ``None``) so hit/miss telemetry is a
    function of this run alone, regardless of what the hosting process or
    pool worker executed before.
    """
    import contextlib
    import dataclasses

    from ..gpu import analysis_cache

    if mode not in ("steady", "capture"):
        raise ValueError(f"mode must be 'steady' or 'capture', not {mode!r}")
    cache_ctx = (
        contextlib.nullcontext()
        if analysis_cache_enabled is None
        else analysis_cache.override(analysis_cache_enabled)
    )
    with cache_ctx:
        analysis_cache.clear()
        spec = registry.get(key)
        manual_seed(seed)
        device = SimulatedGPU()
        workload = spec.build(device=device, scale=scale)
        device.reset()
        recorder = StreamRecorder().attach(device)
        trainer = Trainer(
            workload=workload,
            device=device,
            steady=mode == "steady",
            capture_replay=mode == "capture",
        )
        results = trainer.run(epochs=epochs, seed=seed)
        recorder.detach()
        analysis_cache.clear()

    controller = trainer._controller
    return {
        "version": FINGERPRINT_VERSION,
        "workload": key,
        "scale": scale,
        "epochs": epochs,
        "seed": seed,
        "mode": mode,
        "analysis_cache": analysis_cache_enabled,
        "launch_count": sum(1 for e in recorder.events if e[0] == "K"),
        "transfer_count": sum(1 for e in recorder.events if e[0] == "T"),
        "stream_digest": recorder.digest(),
        "clock_s": device.clock_s,
        "host_clock_s": device.host_clock_s,
        "device_stats": dataclasses.asdict(device.stats),
        "losses": [float(r.metrics.get("loss", 0.0)) for r in results],
        "controller": controller.describe(),
    }


# -- golden fused streams -----------------------------------------------------
# Fused plans intentionally diverge from dispatch (adjacent elementwise
# launches merge into synthetic kernels), so they get their own snapshot
# family instead of the differential contract: fused_<KEY>.json pins the
# fused event stream, the fusion census, and the work-conservation totals.
# Default goldens never see fusion — ``python -m repro golden`` output is
# byte-for-byte unchanged by this feature.

def fused_fingerprint(
    key: str,
    scale: str = "test",
    epochs: int = 5,
    seed: int = 0,
) -> dict:
    """Capture, fuse, and replay one workload; fingerprint the fused plan.

    ``epochs`` must cover warmup + capture + validate + at least one replayed
    epoch (>= 4).  Work conservation (summed instruction/byte counts equal
    before and after fusion) is asserted here, at generation time, on top of
    the property-test coverage.
    """
    from ..gpu import analysis_cache

    if epochs < 4:
        raise ValueError("fused fingerprints need epochs >= 4 "
                         "(warmup, capture, validate, replay)")
    analysis_cache.clear()
    spec = registry.get(key)
    manual_seed(seed)
    device = SimulatedGPU()
    workload = spec.build(device=device, scale=scale)
    device.reset()
    trainer = Trainer(workload=workload, device=device, fuse=True)
    results = trainer.run(epochs=epochs, seed=seed)
    analysis_cache.clear()

    controller = trainer._controller
    if controller.state != "replay":
        raise RuntimeError(
            f"{key}: capture fell back to dispatch: "
            f"{controller.fallback_reason}"
        )
    plan, fused = controller.plan, controller.fused_plan

    h = hashlib.sha256()
    fused_names: dict[str, int] = {}
    for event in fused.events:
        if event[0] == "K":
            line = launch_line(event[1])
            name = line[1]
            if name.startswith("fused_elementwise_x"):
                fused_names[name] = fused_names.get(name, 0) + 1
        elif event[0] == "T":
            line = transfer_line(event[1])
        else:
            line = event
        h.update(repr(line).encode())
        h.update(b"\n")

    totals = plan.totals()
    fused_totals = fused.totals()
    for name, value in totals.items():
        if not np.isclose(value, fused_totals[name], rtol=1e-9, atol=0.0):
            raise AssertionError(
                f"{key}: fusion lost work: {name} {value!r} -> "
                f"{fused_totals[name]!r}"
            )

    # epoch 2 is the validated dispatch epoch, the last one a fused replay
    return {
        "version": FINGERPRINT_VERSION,
        "workload": key,
        "scale": scale,
        "epochs": epochs,
        "seed": seed,
        "launch_count": plan.kernel_count,
        "fused_launch_count": fused.kernel_count,
        "fused_kernels": fused.fused_kernels,
        "fused_members": fused.fused_members,
        "fused_name_counts": dict(sorted(fused_names.items())),
        "transfer_count": plan.transfer_count,
        "totals": totals,
        "epoch_sim_time_s_dispatch": results[2].sim_time_s,
        "epoch_sim_time_s_fused": results[-1].sim_time_s,
        "fused_stream_digest": h.hexdigest(),
    }


# -- insight-engine snapshots -------------------------------------------------
# Insights snapshots store a compact fingerprint rather than the full report
# (the attribution tree is large and every byte of it is already covered by
# ``insights_digest``, which deliberately excludes ``manifest.source_digest``
# so snapshots survive commits that don't change behaviour).

#: flat sites carried verbatim in the fingerprint (the hottest N)
_INSIGHTS_TOP_SITES = 5


def insights_fingerprint(report: dict) -> dict:
    """Reduce a full insights report to the snapshot the goldens store."""
    manifest = report.get("manifest", {})
    top_sites = [
        {f: site[f] for f in ("phase", "stream", "site", "duration_us",
                              "bound_class")}
        for site in report.get("sites", [])[:_INSIGHTS_TOP_SITES]
    ]
    return {
        "version": report.get("version"),
        "workload": manifest.get("workload"),
        "scale": manifest.get("scale"),
        "epochs": manifest.get("epochs"),
        "seed": manifest.get("seed"),
        "gpus": manifest.get("gpus"),
        "sim_digest": manifest.get("sim_digest"),
        "wall_us": report.get("wall_us"),
        "attributed_us": report.get("attributed_us"),
        "span_count": report.get("span_count"),
        "launches": report.get("launches"),
        "site_count": len(report.get("sites", [])),
        "bound_summary": report.get("bound_summary", {}),
        "stream_summary": report.get("stream_summary", {}),
        "top_sites": top_sites,
        "insights_digest": report.get("insights_digest"),
    }


# -- snapshots: one generic path/load/save/compare/verify/update --------------
# A golden kind's row names its snapshot file, the field holding its key, an
# optional reducer, its digest field and how nested fields compare.  Fields
# outside the row's blocks compare exactly; only the blocks a row marks
# tolerant (float accumulations, training losses) get slack.  The
# digest-drift line always comes last.

def _golden_row(kind: str) -> kinds.ReportKind:
    row = kinds.get(kind)
    if not row.golden:
        raise ValueError(f"{kind!r} has no golden snapshots; golden kinds: "
                         f"{[r.name for r in kinds.GOLDEN]}")
    return row


def update_command(kind: str) -> str:
    """The CLI command that regenerates ``kind``'s snapshots."""
    flag = _golden_row(kind).flag
    return f"python -m repro golden{f' --{flag}' if flag else ''} --update"


def path(kind: str, key: str) -> Path:
    return golden_dir() / f"{_golden_row(kind).prefix}{key}.json"


def load(kind: str, key: str) -> dict:
    snapshot = path(kind, key)
    if not snapshot.exists():
        raise FileNotFoundError(
            f"no golden {kind} snapshot for {key!r} at {snapshot}; "
            f"generate it with `{update_command(kind)}`"
        )
    return json.loads(snapshot.read_text())


def save(kind: str, snapshot: dict) -> Path:
    """Write canonical JSON (sorted keys, trailing newline)."""
    target = path(kind, snapshot[_golden_row(kind).key_field])
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return target


def _entries(block: kinds.Block, value) -> dict:
    if block.by == "index":
        return dict(enumerate(value or []))
    if block.by == "first":
        return {row[0]: row[1:] for row in value or []}
    return value or {}


def _close(expected, actual, block: kinds.Block) -> bool:
    numbers = (int, float)
    if ((block.rtol or block.atol) and isinstance(expected, numbers)
            and isinstance(actual, numbers)):
        return bool(np.isclose(expected, actual, rtol=block.rtol,
                               atol=block.atol))
    return expected == actual


def compare(kind: str, expected: dict, actual: dict) -> list[str]:
    """Human-readable differences (empty when the snapshots match)."""
    row = _golden_row(kind)
    digest = row.digest_field
    diffs: list[str] = []
    skipped = {*row.blocks, *row.ignore, digest}
    for field in sorted((set(expected) | set(actual)) - skipped):
        if expected.get(field) != actual.get(field):
            diffs.append(f"{field}: expected {expected.get(field)!r}, "
                         f"got {actual.get(field)!r}")
    for field, block in sorted(row.blocks.items()):
        exp, act = expected.get(field), actual.get(field)
        if block.by == "index" and len(exp or []) != len(act or []):
            diffs.append(f"{field}: expected {len(exp or [])} entries, "
                         f"got {len(act or [])}")
            continue
        exp, act = _entries(block, exp), _entries(block, act)
        for name in sorted(set(exp) | set(act)):
            if not _close(exp.get(name), act.get(name), block):
                diffs.append(f"{field}[{name}]: expected {exp.get(name)!r}, "
                             f"got {act.get(name)!r}")
    if expected.get(digest) != actual.get(digest):
        diffs.append(
            f"{digest}: expected {expected.get(digest)}, "
            f"got {actual.get(digest)} — the canonical {kind} payload "
            f"changed even though the summary stats above "
            f"{'also differ' if diffs else 'still match'}"
        )
    return diffs


def verify(kind: str, keys: Optional[list[str]] = None, *,
           jobs: Optional[int] = None, cache=None) -> dict[str, list[str]]:
    """Diff fresh reports for ``keys`` against the committed snapshots.

    Reports regenerate under each snapshot's own recorded parameters (one
    executor suite per distinct parameter set, so generation fans out over
    ``jobs`` workers); a missing snapshot surfaces as a one-line diff
    instead of raising, so one absent file doesn't abort the other keys.
    """
    from ..core import executor

    row = _golden_row(kind)
    keys = list(keys or row.keys())
    expected: dict[str, dict] = {}
    diffs: dict[str, list[str]] = {}
    for key in keys:
        try:
            expected[key] = load(kind, key)
        except FileNotFoundError as exc:
            diffs[key] = [f"missing snapshot: {exc}"]

    groups: dict[tuple, list[str]] = {}
    for key, snapshot in expected.items():
        recorded = tuple(
            (name, tuple(value) if isinstance(value, list) else value)
            for name, value in snapshot.items() if name in row.params
        )
        groups.setdefault(recorded, []).append(key)
    for recorded, group in groups.items():
        reports = executor.suite(kind, group, jobs=jobs, cache=cache,
                                 **dict(recorded))
        for key in group:
            diffs[key] = compare(kind, expected[key],
                                 row.snapshot(reports[key]))
    return {key: diffs[key] for key in keys}


def update(kind: str, keys: Optional[list[str]] = None, *,
           jobs: Optional[int] = None, cache=None) -> list[Path]:
    """Regenerate ``kind``'s snapshots (default: the kind's default keys)."""
    from ..core import executor

    row = _golden_row(kind)
    keys = list(keys or row.keys())
    reports = executor.suite(kind, keys, jobs=jobs, cache=cache)
    return [save(kind, row.snapshot(reports[key])) for key in keys]
