"""Rendering helpers: aligned text tables that print the same rows/series
the paper's figures report, and the text of every CLI report (the
``renderer`` of a :mod:`repro.core.kinds` row)."""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

import numpy as np


def format_table(
    rows: Mapping[str, Mapping[str, float]],
    columns: Sequence[str],
    title: str = "",
    percent: bool = False,
    width: int = 12,
    mean_row: bool = True,
) -> str:
    """Render {row -> {column -> value}} as an aligned table."""
    lines = []
    if title:
        lines.append(title)
    header = "".join(f"{c:>{width}}" for c in columns)
    lines.append(f"{'workload':<14}{header}")
    lines.append("-" * (14 + width * len(columns)))

    def fmt(value: Optional[float]) -> str:
        if value is None:
            return f"{'-':>{width}}"
        if percent:
            return f"{value * 100:>{width - 1}.1f}%"
        return f"{value:>{width}.2f}"

    for name, row in rows.items():
        cells = "".join(fmt(row.get(c)) for c in columns)
        lines.append(f"{name:<14}{cells}")
    if mean_row and rows:
        lines.append("-" * (14 + width * len(columns)))
        cells = []
        for c in columns:
            values = [row[c] for row in rows.values() if c in row and row[c] is not None]
            cells.append(fmt(float(np.mean(values)) if values else None))
        lines.append(f"{'mean':<14}{''.join(cells)}")
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Iterable[float]],
    title: str = "",
    points: int = 24,
    percent: bool = True,
) -> str:
    """Render named numeric series (Figure-8 style timelines) as sparklines."""
    blocks = " .:-=+*#%@"
    lines = [title] if title else []
    for name, values in series.items():
        arr = np.asarray(list(values), dtype=np.float64)
        if arr.size == 0:
            lines.append(f"{name:<14}(no data)")
            continue
        if arr.size > points:
            edges = np.linspace(0, arr.size, points + 1).astype(int)
            arr = np.array([arr[a:b].mean() for a, b in zip(edges[:-1], edges[1:])])
        lo, hi = float(arr.min()), float(arr.max())
        span = (hi - lo) or 1.0
        chars = "".join(
            blocks[int((v - lo) / span * (len(blocks) - 1))] for v in arr
        )
        scale = (f"[{lo * 100:.0f}%..{hi * 100:.0f}%]" if percent
                 else f"[{lo:.3g}..{hi:.3g}]")
        lines.append(f"{name:<14}{chars}  {scale}")
    return "\n".join(lines)


def format_memory_table(
    reports: Mapping[str, Mapping],
    title: str = "Device-memory occupancy (simulated HBM)",
) -> str:
    """Render per-workload memory reports (``measure_memory`` dicts).

    ``peak_mem`` is the peak *live* bytes — what the workload's tensors
    actually occupy at their high-water mark; ``reserved`` is the caching
    allocator's device footprint (what ``nvidia-smi`` would show).
    """
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'workload':<12}{'peak_mem MB':>13}{'reserved MB':>13}"
                 f"{'util %':>8}{'frag %':>8}{'allocs':>9}{'reuse %':>9}"
                 f"{'oom':>5}")
    lines.append("-" * 77)
    for key, rep in reports.items():
        allocs = rep.get("alloc_count", 0)
        reuse = (rep.get("bucket_reuse_count", 0) / allocs * 100
                 if allocs else 0.0)
        lines.append(
            f"{key:<12}{rep.get('peak_live_bytes', 0) / 1e6:>13.2f}"
            f"{rep.get('peak_reserved_bytes', 0) / 1e6:>13.2f}"
            f"{rep.get('utilization', 0.0) * 100:>8.2f}"
            f"{rep.get('fragmentation', 0.0) * 100:>8.1f}"
            f"{allocs:>9}{reuse:>9.1f}{rep.get('oom_events', 0):>5}"
        )
    if reports:
        lines.append("-" * 77)
        peak = max(rep.get("peak_live_bytes", 0) for rep in reports.values())
        total_oom = sum(rep.get("oom_events", 0) for rep in reports.values())
        lines.append(f"{'max':<12}{peak / 1e6:>13.2f}"
                     f"{'':>13}{'':>8}{'':>8}{'':>9}{'':>9}{total_oom:>5}")
    return "\n".join(lines)


def format_timeline_summary(summary: Mapping) -> list[str]:
    """The span/idle/overlap and phase-occupancy lines of a timeline."""
    if not summary:
        return []
    lines = [f"   timeline: {summary['span_count']} spans,"
             f" {summary['idle_fraction'] * 100:.1f}% idle,"
             f" {summary['compute_transfer_overlap'] * 100:.1f}%"
             f" compute/transfer overlap"]
    phases = ", ".join(f"{name} {frac * 100:.1f}%"
                       for name, frac in summary["phase_occupancy"].items())
    if phases:
        lines.append(f"   phases:   {phases}")
    return lines


def format_memory_report(report: Mapping) -> str:
    """Render one ``measure_memory`` report: peaks, allocator counters,
    phase and epoch watermarks, and the largest allocation labels."""
    cap = report["capacity_bytes"]
    lines = [
        f"== {report['workload']} (scale={report['scale']},"
        f" epochs={report['epochs']}): simulated HBM",
        f"   peak live     {report['peak_live_bytes'] / 1e6:10.2f} MB",
        f"   peak reserved {report['peak_reserved_bytes'] / 1e6:10.2f} MB"
        f"  ({report['utilization'] * 100:.2f}% of"
        f" {cap / 2**30:.0f} GiB capacity)",
        f"   live at end   {report['live_bytes'] / 1e6:10.2f} MB"
        f"  (reserved {report['reserved_bytes'] / 1e6:.2f} MB,"
        f" fragmentation {report['fragmentation'] * 100:.1f}%)",
        f"   allocator     {report['alloc_count']} allocs /"
        f" {report['free_count']} frees,"
        f" {report['segment_allocs']} segment allocs,"
        f" {report['bucket_reuse_count']} bucket reuses,"
        f" internal frag {report['internal_fragmentation'] * 100:.1f}%",
    ]
    if report["oom_events"]:
        lines.append(f"   OOM           {report['oom_events']} capacity"
                     f" violation(s) — rerun with --strict to raise")
    lines.append("   phase watermarks (peak live MB):")
    for phase, peak in report["phase_watermarks"].items():
        lines.append(f"     {phase:<12}{peak / 1e6:10.2f}")
    epochs = ", ".join(f"{w / 1e6:.2f}" for w in report["epoch_watermarks"])
    lines.append(f"   epoch watermarks (MB): {epochs}")
    lines.append("   top allocation labels (MB requested, count):")
    for name, nbytes, count in report["top_labels"]:
        lines.append(f"     {name:<20}{nbytes / 1e6:10.2f}  x{count}")
    lines.append(f"   memory digest {report['memory_digest'][:16]}")
    return "\n".join(lines)


def format_trace(report: Mapping) -> str:
    """Render a traced run's timeline summary (``trace.trace_run``)."""
    gpus = ", ".join(
        f"gpu{pid} {dev['busy_s'] * 1e3:.2f} ms busy"
        f" ({(1 - dev['idle_fraction']) * 100:.1f}%)"
        for pid, dev in report["devices"].items()
    )
    return "\n".join([
        f"== {report['workload']} (scale={report['scale']},"
        f" epochs={report['epochs']}, gpus={report['gpus']}):"
        f" {report['wall_s'] * 1e3:.2f} ms wall",
        f"   {gpus}",
        *format_timeline_summary(report),
    ])


def _hbm_lines(report: Mapping, hint: str = "") -> list[str]:
    lines = [f"   HBM           peak live {report['peak_live_bytes'] / 1e6:.2f}"
             f" MB, peak reserved {report['peak_reserved_bytes'] / 1e6:.2f} MB"
             f" ({report['hbm_utilization'] * 100:.3f}% of capacity)"]
    if report["oom_events"]:
        lines.append(f"   OOM           {report['oom_events']} capacity"
                     f" violation(s){hint}")
    return lines


def format_serve(report: Mapping) -> str:
    """Render a serving report: latency quantiles, batching, HBM."""
    lines = [
        f"== {report['workload']} (scale={report['scale']},"
        f" arrival={report['arrival']}, qps={report['qps']:g},"
        f" batch_max={report['batch_max']},"
        f" max_wait={report['max_wait_us']:g} us)",
        f"   served        {report['completed']} requests in"
        f" {report['duration_s'] * 1e3:.2f} ms simulated"
        f"  ({report['throughput_rps']:.1f} req/s)",
        f"   {'':<10}{'p50':>10}{'p95':>10}{'p99':>10}{'max':>10}",
    ]
    for name in ("latency", "wait", "compute"):
        block = report[f"{name}_us"]
        lines.append(f"   {name:<10}{block['p50']:>10.1f}{block['p95']:>10.1f}"
                     f"{block['p99']:>10.1f}{block['max']:>10.1f}  us")
    hist = ", ".join(
        f"{size}x{count}"
        for size, count in sorted(report["batch_size_hist"].items(),
                                  key=lambda kv: int(kv[0]))
    )
    lines += [
        f"   batches       {report['batches']}"
        f" (mean size {report['mean_batch_size']:.2f}; {hist})",
        f"   fast path     {report['captured_plans']} captured plan(s),"
        f" {report['replayed_batches']} replayed batch(es)",
        *_hbm_lines(report),
        f"   serve digest  {report['serve_digest'][:16]}",
    ]
    return "\n".join(lines)


def format_sample(report: Mapping) -> str:
    """Render a mini-batch sampled-training report: sampler, loader
    stalls, prefetch-queue occupancy, throughput, HBM."""
    fanouts = "x".join(str(f) for f in report["fanouts"])
    return "\n".join([
        f"== {report['workload']} (scale={report['scale']},"
        f" fanouts={fanouts}, batch={report['batch_size']},"
        f" prefetch_depth={report['prefetch_depth']},"
        f" epochs={report['epochs']})",
        f"   graph         {report['graph_nodes']} nodes,"
        f" {report['graph_edges']} edges,"
        f" {report['train_seeds']} train seeds",
        f"   sampler       {report['batches']} batches"
        f" ({report['batches_per_epoch']}/epoch),"
        f" {report['edges_sampled']} edges drawn,"
        f" {report['sample_cost_s'] * 1e3:.2f} ms host sampling",
        f"   loader stall  {report['loader_stall_s'] * 1e3:.2f} ms"
        f" ({report['loader_stall_fraction'] * 100:.1f}% of"
        f" {report['sim_wall_s'] * 1e3:.2f} ms simulated wall)",
        f"   queue         occupancy mean"
        f" {report['queue_occupancy_mean']:.2f},"
        f" max {report['queue_occupancy_max']}",
        f"   throughput    {report['epochs_per_sim_s']:.2f} epochs per"
        f" simulated second ({report['kernels']} kernels,"
        f" {report['h2d_bytes'] / 1e6:.2f} MB H2D)",
        *_hbm_lines(report),
        f"   sample digest {report['sample_digest'][:16]}",
    ])


def format_shard(report: Mapping) -> str:
    """Render a sharded-training report: partition quality, halo
    exchange, staging traffic, throughput, HBM and losses."""
    part = report["partition"]
    lines = [
        f"== {report['name']} ({report['workload']},"
        f" mode={report['mode']}, parts={report['parts']},"
        f" gpus={report['gpus']},"
        f" offload={'yes' if report['offload'] else 'no'},"
        f" epochs={report['epochs']})",
        f"   graph         {report['graph_nodes']} nodes,"
        f" {report['graph_edges']} edges, feat_dim={report['feat_dim']},"
        f" {report['train_nodes']} train seeds",
        f"   partition     {part['method']}+lp{part['refine']}:"
        f" cut {part['edge_cut']} ({part['cut_fraction'] * 100:.1f}%),"
        f" balance {part['achieved_balance']:.3f},"
        f" replication {part['replication_factor']:.2f}x",
        f"   halo          {report['halo_exchanges']} exchange(s),"
        f" {report['halo_bytes'] / 1e6:.2f} MB moved,"
        f" {report['halo_time_s'] * 1e3:.3f} ms on the NVLink model",
        f"   staging       {report['h2d_bytes'] / 1e6:.2f} MB H2D,"
        f" {report['d2h_bytes'] / 1e6:.2f} MB D2H,"
        f" {report['allreduce_bytes'] / 1e6:.2f} MB allreduced",
        f"   throughput    {report['epochs_per_sim_s']:.2f} epochs per"
        f" simulated second ({report['kernels']} kernels,"
        f" {report['sim_wall_s'] * 1e3:.2f} ms wall)",
        *_hbm_lines(report, " — rerun with --strict to raise"),
    ]
    if report["losses"]:
        losses = ", ".join(f"{x:.6f}" for x in report["losses"])
        lines.append(f"   loss          {losses}")
    lines.append(f"   shard digest  {report['shard_digest'][:16]}"
                 f"  (halo trace {report['halo_trace_digest'][:12]})")
    return "\n".join(lines)


def format_insights(report: Mapping, top_sites: int = 12) -> str:
    """Render an insights report: manifest line, bound-class mix, roofline
    table of the hottest launch sites, and the per-stream busy time."""
    manifest = report.get("manifest", {})
    lines = [
        f"insights: {manifest.get('workload', '?')} "
        f"(scale={manifest.get('scale', '?')}, "
        f"epochs={manifest.get('epochs', '?')}, "
        f"seed={manifest.get('seed', '?')}, "
        f"gpus={manifest.get('gpus', '?')})",
        f"wall {report.get('wall_us', 0.0) / 1e3:.2f}ms, "
        f"attributed {report.get('attributed_us', 0.0) / 1e3:.2f}ms "
        f"stream-busy across {report.get('launches', 0)} launches, "
        f"digest {report.get('insights_digest', '')[:12]}",
        "",
        "bound-class mix:",
    ]
    for cls, row in report.get("bound_summary", {}).items():
        lines.append(f"  {cls:<18}{row['share'] * 100:>6.1f}%  "
                     f"{row['duration_us'] / 1e3:>9.2f}ms")
    lines.append("")
    lines.append(f"top launch sites (of {len(report.get('sites', []))}):")
    lines.append(f"{'site':<26}{'stream':<11}{'us':>9}{'class':>16}"
                 f"{'AI':>8}{'%roof':>7}{'top stall':>21}")
    lines.append("-" * 98)
    for site in report.get("sites", [])[:top_sites]:
        if "launches" in site:
            ai = f"{site['arithmetic_intensity']:>8.2f}"
            roof = f"{site['pct_of_roof'] * 100:>6.1f}%"
            stall = (f"{site['top_stall']:>15} "
                     f"{site['top_stall_share'] * 100:>4.0f}%")
        else:
            ai, roof = f"{'-':>8}", f"{'-':>7}"
            stall = f"{'-':>20}"
        lines.append(f"{site['site']:<26}{site['stream']:<11}"
                     f"{site['duration_us']:>9.1f}"
                     f"{site['bound_class']:>16}{ai}{roof} {stall}")
    lines.append("")
    lines.append("stream busy time:")
    for stream, dur in report.get("stream_summary", {}).items():
        lines.append(f"  {stream:<11}{dur / 1e3:>9.2f}ms")
    return "\n".join(lines)


def format_insights_diff(diff: Mapping, top: int = 8) -> str:
    """Render a ``diff_insights`` result: aggregate delta + top movers."""
    from .insights import render_diff_lines

    kind = diff.get("kind", "unknown")
    lines = [f"insights diff ({kind}):"]
    if kind == "insights":
        lines.append(
            f"attributed {diff.get('a_us', 0.0) / 1e3:.2f}ms -> "
            f"{diff.get('b_us', 0.0) / 1e3:.2f}ms "
            f"({diff.get('delta_us', 0.0) / 1e3:+.2f}ms)"
        )
        deltas = {s: d for s, d in diff.get("stream_deltas", {}).items() if d}
        if deltas:
            lines.append("stream deltas: " + ", ".join(
                f"{s} {d:+.1f}us" for s, d in deltas.items()))
    elif kind in ("hotpath", "sample"):
        lines.append(f"suite speedup {diff.get('a_speedup', 0.0):.2f}x -> "
                     f"{diff.get('b_speedup', 0.0):.2f}x")
    attribution = render_diff_lines(diff, top=top)
    if attribution:
        lines.extend(attribution)
    else:
        lines.append("no movers: reports are equivalent "
                     "(or the reference carries only aggregates)")
    return "\n".join(lines)


def format_scaling(
    times: Mapping[str, Mapping[int, float]],
    title: str = "Strong scaling (speedup over 1 GPU)",
) -> str:
    """Render per-workload time-per-epoch as speedups over the 1-GPU run."""
    gpu_counts = sorted({n for row in times.values() for n in row})
    lines = [title, f"{'workload':<14}" + "".join(f"{n} GPU{'s' if n > 1 else '':>2}".rjust(10) for n in gpu_counts)]
    lines.append("-" * (14 + 10 * len(gpu_counts)))
    for name, row in times.items():
        base = row.get(1)
        cells = []
        for n in gpu_counts:
            if n in row and base:
                cells.append(f"{base / row[n]:>9.2f}x")
            else:
                cells.append(f"{'-':>10}")
        lines.append(f"{name:<14}{''.join(cells)}")
    return "\n".join(lines)
