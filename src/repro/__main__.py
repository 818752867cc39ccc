"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro table1                 # the suite inventory
    python -m repro fig2 ... fig8          # one characterization figure
    python -m repro fig9                   # the strong-scaling study
    python -m repro all                    # everything
    python -m repro profile TLSTM          # one workload, nvprof-style
    python -m repro profile --jobs 4       # whole suite, 4 worker processes
    python -m repro memory                 # device-memory occupancy table
    python -m repro memstats DGCN          # HBM allocator report, one workload
    python -m repro memstats               # peak_mem table, whole suite
    python -m repro golden                 # diff kernel streams vs snapshots
    python -m repro golden --update        # regenerate tests/golden/*.json
    python -m repro golden --memory DGCN   # one family, one key
    python -m repro bench                  # cold/parallel/warm suite timings
    python -m repro bench --capture-replay # replay epochs from a captured plan
    python -m repro bench --workload ARGA  # one workload's hot path, isolated
    python -m repro trace dgcn             # Chrome-format kernel timeline
    python -m repro trace tlstm --gpus 4 -o trace.json
    python -m repro serve psage-mvl --qps 100     # serving-latency report
    python -m repro serve dgcn --arrival bursty --batch-max 16 -o serve.json
    python -m repro sample arga            # mini-batch sampled-training report
    python -m repro sample arga --nodes 1000000 --strict   # 10^6-node graph
    python -m repro sample psage-mvl --fanouts 10,5 --prefetch-depth 4
    python -m repro sample                 # prefetch-vs-sync BENCH_sample.json
    python -m repro shard arga-p4          # partition-parallel training report
    python -m repro shard arga --parts 4 --nodes 600000 --feat-dim 8192 --strict
    python -m repro shard arga --parts 4 --offload     # out-of-core staging
    python -m repro shard                  # capacity frontier BENCH_shard.json
    python -m repro insights dgcn          # roofline/bottleneck attribution
    python -m repro insights dgcn --gpus 2 -o insights.json
    python -m repro insights --diff old.json new.json  # differential diagnosis

Each command takes only the options it reads (``python -m repro CMD -h``).
The report commands are the :mod:`repro.core.kinds` rows with a renderer:
keys are case-insensitive, an option left out takes the row's default
(``shard``: the named config's), ``-o`` exports the run and ``--metrics`` /
``--metrics-output FILE`` dump the metrics registry.  An unknown key or a
contradictory option exits 2 with the reason on stderr.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import GNNMark
from .core import executor, kinds

FIGURES = {
    "fig2": "render_op_breakdown",
    "fig3": "render_instruction_mix",
    "fig4": "render_throughput",
    "fig5": "render_stalls",
    "fig6": "render_cache",
    "fig7": "render_sparsity",
    "fig8": "render_sparsity_timeline",
}


def _int_list(text: str) -> tuple:
    return tuple(int(f) for f in text.split(","))


# -- options ------------------------------------------------------------------
# Each option is declared once, keyed by its namespace destination, as
# ``(help, argparse keywords)``; its flag is ``--<dest>`` unless FLAGS says
# otherwise.  Run parameters (PARAMS) carry no default: left out of the argv
# they are absent from the namespace, and the command's row in
# repro.core.kinds (or the library function it calls) supplies the value.

INT, FLOAT, BOOL = dict(type=int), dict(type=float), dict(action="store_true")

PARAMS = {
    "scale": ("workload configs", dict(choices=["test", "profile",
                                                "scaling"])),
    "epochs": ("training epochs", INT),
    "seed": ("RNG seed", INT),
    "strict": ("fail fast: check GPU-model invariants on every record "
               "('profile'), raise when simulated HBM overflows", BOOL),
    "num_gpus": ("simulated devices (multi-GPU runs trace the DDP "
                 "allreduce)", dict(INT, metavar="GPUS")),
    "gpus": ("simulated devices", INT),
    "qps": ("mean request arrivals per simulated second", FLOAT),
    "arrival": ("arrival process (bursty: 2-state MMPP, same mean qps)",
                dict(choices=["poisson", "bursty"])),
    "batch_max": ("dynamic batcher size cap", INT),
    "max_wait_us": ("longest the batcher may hold the queue head "
                    "(simulated microseconds)", FLOAT),
    "requests": ("number of requests to generate", INT),
    "fanouts": ("comma-separated per-layer neighbor fanouts, outermost "
                "first", dict(type=_int_list)),
    "batch_size": ("seeds per mini-batch", INT),
    "prefetch_depth": ("bounded prefetch queue depth (0: synchronous)", INT),
    "nodes": ("synthesize a citation graph of this many nodes", INT),
    "parts": ("number of graph partitions", INT),
    "offload": ("stage partitions out-of-core through one device's HBM "
                "instead of one GPU per part", BOOL),
    "feat_dim": ("synthetic feature width", INT),
}

OPTIONS = {
    "jobs": ("worker processes (default: $REPRO_JOBS or serial)", INT),
    "no_cache": ("always recompute; skip the persistent profile cache",
                 BOOL),
    "metrics": ("dump the metrics registry (Prometheus text) afterwards",
                BOOL),
    "metrics_output": ("write the metrics snapshot as canonical JSON, plus "
                       "a sibling .prom dump", dict(metavar="FILE")),
    "output": ("output file", {}),
    "baseline": ("committed baseline JSON; exit 1 if the report regresses "
                 "against it", {}),
    "update": ("regenerate snapshots instead of diffing", BOOL),
    "diff": ("diagnose the delta between two saved reports (insights JSON "
             "or any bench payload/baseline) instead of running a workload",
             dict(nargs=2, metavar=("REFERENCE", "MEASURED"))),
    "quick": ("time the fast test-scale configs", BOOL),
    "capture_replay": ("capture each workload's steady-state epoch and "
                       "replay it instead of re-dispatching", BOOL),
    "fuse": ("with capture/replay, also merge adjacent elementwise launches "
             "(implies --capture-replay)", BOOL),
    "bench_workload": ("time one workload's hot path in isolation "
                       "(case-insensitive key; skips the suite timings)",
                       dict(metavar="WORKLOAD")),
    "hotpath_output": ("where to write the launch hot-path report",
                       dict(default="BENCH_hotpath.json")),
    **{row.flag: (f"operate on {row.name} snapshots "
                  f"(tests/golden/{row.prefix}*.json)", BOOL)
       for row in kinds.GOLDEN if row.flag},
}

FLAGS = {"num_gpus": ("--gpus",), "gpus": ("--gpus",),
         "output": ("-o", "--output"), "bench_workload": ("--workload",)}


def _add_option(sub, dest: str, row) -> None:
    flags = FLAGS.get(dest, (f"--{dest.replace('_', '-')}",))
    text, spec = PARAMS.get(dest) or OPTIONS[dest]
    if dest in PARAMS:
        spec = dict(spec, default=argparse.SUPPRESS)
        if row is not None and spec.get("action") != "store_true":
            default = row.params[dest]
            if isinstance(default, tuple):
                default = ",".join(map(str, default))
            text += (f" (default: the named config's, else {default})"
                     if row.params_hook else f" (default: {default})")
    sub.add_argument(*flags, dest=dest, help=text, **spec)


def _params(args, row=None) -> dict:
    """The run parameters given on the command line, over ``row``'s
    defaults."""
    given = {name: value for name, value in vars(args).items()
             if name in PARAMS}
    return {**row.params, **given} if row else given


def _cache(args) -> bool:
    return not args.no_cache


def _key(args, row, name: str) -> str:
    """``name`` as one of ``row``'s keys, or exit 2 listing them."""
    key = name.upper()
    if key not in row.universe():
        noun = ("workload" if row.key_field == "workload"
                else f"{row.name} config")
        args.parser.error(f"unknown {noun} {name!r}; "
                          f"have {sorted(row.universe())}")
    return key


def _call(args, fn, params: dict, reads=None, **fixed):
    """``fn(**params, **fixed)``; an option outside ``reads`` (default:
    ``fn``'s parameters) exits 2."""
    reads = inspect.signature(fn).parameters if reads is None else reads
    unread = [f"--{name.replace('_', '-')}" for name in params
              if name not in reads]
    if unread:
        args.parser.error(f"{', '.join(unread)}: only read with a key")
    return fn(**params, **fixed)


def _write_json(path: str, payload: dict, note: str = "") -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}{note}")


def _gate(args, report: dict, check, summary) -> int:
    """Gate a bench report against the committed ``--baseline``, if given:
    exit 1 listing every regression, else print ``summary(baseline)``."""
    if not args.baseline:
        return 0
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    failures = check(report, baseline)
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        return 1
    print(f"baseline check ok ({summary(baseline)})")
    return 0


def _dump_metrics(args, manifest: dict | None = None) -> int:
    """Dump the metrics registry if asked: Prometheus text to stdout, or
    canonical JSON (with the run's ``runManifest``, when known) to
    ``--metrics-output`` plus a sibling ``.prom`` dump.  The registry
    digest and the Prometheus dump stay manifest-free."""
    from .profiling import metrics

    if not (args.metrics or args.metrics_output):
        return 0
    reg = metrics.registry()
    if args.metrics_output is None:
        print(f"\n# metrics registry (digest {reg.digest()[:12]})")
        print(reg.to_prometheus(), end="")
        return 0
    path = Path(args.metrics_output)
    payload = reg.snapshot()
    if manifest is not None:
        payload = dict(payload, runManifest=manifest)
    path.write_text(reg.to_json(payload))
    prom = path.with_suffix(".prom")
    prom.write_text(reg.to_prometheus())
    print(f"wrote {path} and {prom} (metrics digest {reg.digest()[:12]})")
    return 0


# -- report commands ----------------------------------------------------------

def _manifest(row, report: dict) -> dict:
    """The :class:`RunManifest` a report's exports embed."""
    if "manifest" in report:  # insights reports carry their own
        return report["manifest"]
    from .profiling import insights

    return insights.build_manifest(
        report["workload"],
        # shard runs have no registry scale: the kind stands in for it
        scale=report.get("scale", row.name), epochs=report.get("epochs", 1),
        seed=report["seed"], gpus=report.get("gpus", 1),
        parts=report.get("parts", 1),
        capture_replay=bool(report.get("captured_plans"))).as_dict()


def _report(args) -> int:
    """Run one report kind for one key, render it and export it."""
    from .gpu.memory import OOMError
    from .profiling import trace

    row = kinds.get(args.command)
    spec = _spec(row)
    params = _params(args)
    if args.workload is None or getattr(args, "diff", None):
        return spec.keyless(args, params)
    output = getattr(args, "output", None)
    # named-config kinds validate keys (and list them) in their params hook
    key = (args.workload.upper() if row.params_hook
           else _key(args, row, args.workload))
    try:
        _, task = row.task(key, **params)
        if spec.traced_runner:
            report, timeline = kinds.resolve(spec.traced_runner)(
                traced=output is not None, **task)
        else:
            report, timeline = kinds.resolve(row.runner)(**task), None
    except ValueError as exc:  # contradictory options / unsupported key
        args.parser.error(str(exc))
    except OOMError as exc:
        print(f"OOM under --strict: {exc}")
        if spec.oom_hint:
            print(spec.oom_hint)
        return 1
    print(kinds.resolve(row.renderer)(report))
    manifest = _manifest(row, report)
    if timeline is not None:
        out = output or f"{report['workload']}_{row.name}.json"
        trace.validate_chrome(timeline.to_chrome(manifest=manifest))
        timeline.write(out, manifest=manifest)
        print(f"wrote {out}  (load in https://ui.perfetto.dev or "
              f"chrome://tracing)")
    elif output:
        digest = row.digest_field
        _write_json(output, report, f"  ({digest.replace('_', ' ')} "
                                    f"{report[digest][:12]})")
    return _dump_metrics(args, manifest)


def _memstats_suite(args, params: dict) -> int:
    from .profiling.report import format_memory_table

    print(format_memory_table(executor.suite(
        "memstats", jobs=args.jobs, cache=_cache(args), **params)))
    return _dump_metrics(args)


def _sample_bench(args, params: dict) -> int:
    # the prefetch-vs-synchronous comparison (BENCH_sample.json), gated like
    # the launch hot-path bench — but on simulated-clock numbers, so strictly
    report = _call(args, executor.benchmark_sample, params, jobs=args.jobs,
                   cache=_cache(args))
    print(f"mini-batch loader: prefetch_depth={report['prefetch_depth']} vs"
          f" synchronous ({report['epochs']} epoch(s),"
          f" scale={report['scale']},"
          f" fanouts={'x'.join(str(f) for f in report['fanouts'])},"
          f" batch={report['batch_size']}):")
    print(f"  {'workload':<12}{'sync ep/s':>12}{'prefetch ep/s':>15}"
          f"{'speedup':>9}{'stall sync':>12}{'stall pre':>11}")
    for key, row in report["workloads"].items():
        print(f"  {key:<12}{row['sync_epochs_per_s']:>12.2f}"
              f"{row['prefetch_epochs_per_s']:>15.2f}"
              f"{row['speedup']:>8.2f}x"
              f"{row['sync_stall_s'] * 1e3:>10.2f}ms"
              f"{row['prefetch_stall_s'] * 1e3:>9.2f}ms")
    print(f"  {'suite':<12}{'':>12}{'':>15}{report['speedup']:>8.2f}x")
    _write_json(args.output or "BENCH_sample.json", report)
    return (_gate(args, report, executor.check_sample_regression,
                  lambda base: f"committed speedup"
                               f" {base.get('speedup', 0.0):.3f}x, measured"
                               f" {report['speedup']:.3f}x")
            or _dump_metrics(args))


def _shard_bench(args, params: dict) -> int:
    # the capacity-frontier study (BENCH_shard.json): the largest trainable
    # node count per device configuration, gated exactly (simulated clock),
    # so its ladder, width and epochs stay those of the committed baseline
    report = _call(args, executor.benchmark_shard, params, reads=("seed",),
                   jobs=args.jobs, cache=_cache(args))
    print(f"capacity frontier (feat_dim={report['feat_dim']},"
          f" hidden={report['hidden']}, {report['epochs']} epoch(s),"
          f" ladder {report['ladder'][0]}..{report['ladder'][-1]} nodes):")
    print(f"  {'config':<10}{'parts':>6}{'offload':>9}{'frontier':>10}"
          f"{'peak GB':>9}")
    for label, cfg in report["configs"].items():
        frontier = cfg["frontier"]
        peak = (cfg["points"][str(frontier)]["peak_reserved_bytes"] / 2**30
                if frontier else 0.0)
        print(f"  {label:<10}{cfg['parts']:>6}"
              f"{'yes' if cfg['offload'] else 'no':>9}"
              f"{frontier:>10}{peak:>9.2f}")
    _write_json(args.output or "BENCH_shard.json", report)
    return (_gate(args, report, executor.check_shard_regression,
                  lambda base: f"frontiers {base.get('frontier', {})}"
                               f" reproduced exactly")
            or _dump_metrics(args))


def _insights_diff(args, params: dict) -> int:
    from .profiling import insights
    from .profiling.report import format_insights_diff

    if not args.diff:
        args.parser.error("the 'insights' command needs a workload key, e.g. "
                          "`python -m repro insights dgcn` "
                          "(or --diff REFERENCE.json MEASURED.json)")
    unread = [*(f"--{name.replace('_', '-')}" for name in params),
              *(["--metrics"] if args.metrics else []),
              *(["--metrics-output"] if args.metrics_output else []),
              *([args.workload] if args.workload else [])]
    if unread:
        args.parser.error(f"{', '.join(unread)}: not read with --diff")
    reference, measured = (json.loads(Path(path).read_text())
                           for path in args.diff)
    diff = insights.diff_insights(reference, measured)
    print(format_insights_diff(diff))
    if args.output:
        _write_json(args.output, diff)
    return 0


class Report(NamedTuple):
    """What a report command adds to its :mod:`repro.core.kinds` row:
    options beyond the row's parameters, the ``"module:function"`` returning
    ``(report, timeline)`` when its runs export a Chrome trace (else the
    row's runner runs), what it does without a key (``None``: the key is
    required) and what to print after an ``OOMError``.  A row with a
    renderer and no entry here gets the defaults."""

    help: str
    options: tuple = ()
    traced_runner: Optional[str] = None
    keyless: Optional[Callable] = None
    oom_hint: str = ""


REPORTS = {
    "memstats": Report("HBM allocator report for one workload; the suite's "
                       "peak_mem table without a key",
                       ("jobs", "no_cache"), keyless=_memstats_suite),
    "trace": Report("Chrome-format kernel timeline of one workload",
                    ("output",), "repro.profiling.trace:trace_run"),
    "serve": Report("serving-latency report for one workload", ("output",),
                    "repro.serve.server:serve_run"),
    "sample": Report("mini-batch sampled-training report; the "
                     "prefetch-vs-sync benchmark without a key",
                     ("output", "jobs", "no_cache", "baseline"),
                     "repro.train.loader:sample_run", _sample_bench),
    "shard": Report("partition-parallel training report; the capacity "
                    "frontier benchmark without a key",
                    ("output", "jobs", "no_cache", "baseline"),
                    "repro.train.sharded:shard_run", _shard_bench,
                    "shard the graph over more --parts, or stage it with "
                    "--offload"),
    "insights": Report("roofline/bottleneck attribution of one workload, or "
                       "--diff of two saved reports", ("output", "diff"),
                       keyless=_insights_diff),
}


def _spec(row) -> Report:
    return REPORTS.get(row.name) or Report(f"{row.name} report")


# -- the other commands -------------------------------------------------------

def _print_profile_stats(key: str, profile) -> None:
    from .profiling.report import format_timeline_summary

    print(f"== {key} ({len(profile.epoch_times)} epoch(s),"
          f" {profile.launch_count} kernels,"
          f" {profile.sim_time_s * 1e3:.2f} ms simulated)")
    hits, misses = profile.analysis_hits, profile.analysis_misses
    if hits + misses:
        print(f"   analysis cache: {hits}/{hits + misses} hits"
              f" ({hits / (hits + misses) * 100:.1f}%)")
    for line in format_timeline_summary(profile.timeline_summary):
        print(line)
    for stats in profile.kernels.top_kernels(10):
        share = stats.total_time_s / profile.kernels.total_time_s * 100
        print(f"  {stats.name:<28} {stats.op_class.value:<12}"
              f" x{stats.launches:<5} {stats.total_time_s * 1e6:9.1f} us"
              f" ({share:4.1f}%)")


def _profile(args) -> int:
    from .core import profile_workload

    row = kinds.get("profile")
    params = _params(args, row)
    if args.workload:
        key = _key(args, row, args.workload)
        _print_profile_stats(key, profile_workload(key, **params))
    else:
        suite = executor.run_suite(jobs=args.jobs, cache=_cache(args),
                                   **params)
        for key, profile in suite.profiles.items():
            _print_profile_stats(key, profile)
            print()
    return _dump_metrics(args)


def _table1(args) -> int:
    print(GNNMark().render_table1())
    return 0


def _memory(args) -> int:
    from .core import profile_workload

    params = _params(args, kinds.get("profile"))
    print(f"{'workload':<12}{'model MB':>10}{'data MB/epoch':>15}{'data %':>8}")
    print("-" * 45)
    for key in GNNMark().workloads():
        mem = profile_workload(key, scale=params["scale"], epochs=1,
                               seed=params["seed"]).memory_footprint()
        print(f"{key:<12}{mem['model_bytes'] / 1e6:>10.2f}"
              f"{mem['data_bytes_per_epoch'] / 1e6:>15.2f}"
              f"{mem['data_fraction'] * 100:>7.1f}%")
    return 0


def _figures(args) -> int:
    params = _params(args, kinds.get(
        "scaling" if args.command == "fig9" else "profile"))
    mark = GNNMark(scale=params["scale"], seed=params["seed"])
    if args.command != "fig9":
        suite = mark.characterize_suite(epochs=params["epochs"],
                                        jobs=args.jobs, cache=_cache(args))
        for fig in FIGURES if args.command == "all" else [args.command]:
            print(getattr(mark, FIGURES[fig])(suite))
            print()
    if args.command == "all":
        print(mark.render_table1())
        print()
    if args.command in ("fig9", "all"):
        print(mark.render_scaling(mark.scaling_study(
            epochs=params["epochs"], jobs=args.jobs, cache=_cache(args))))
    return 0


def _golden(args) -> int:
    from .testing import golden

    row = next((r for r in kinds.GOLDEN if r.flag and getattr(args, r.flag)),
               kinds.get("fingerprint"))
    keys = ([_key(args, row, args.workload)] if args.workload
            else list(row.keys()))
    if args.update:
        for path in golden.update(row.name, keys, jobs=args.jobs,
                                  cache=_cache(args)):
            print(f"wrote {path}")
        return 0
    failed = 0
    for key, diffs in golden.verify(row.name, keys, jobs=args.jobs,
                                    cache=_cache(args)).items():
        if not diffs:
            print(f"{key}: ok")
        elif len(diffs) == 1 and diffs[0].startswith("missing snapshot"):
            failed += 1
            print(f"{key}: MISSING ({diffs[0]})")
        else:
            failed += 1
            print(f"{key}: DIFFERS")
            for line in diffs:
                print(f"  {line}")
    if failed:
        print(f"{failed} workload(s) diverged; regenerate intentionally with "
              f"`{golden.update_command(row.name)}`")
    return 1 if failed else 0


def _bench(args) -> int:
    # the bench times the harness, not the workloads: every option left out
    # takes the benchmark function's default (test scale; --quick forces it)
    params = _params(args)
    if args.quick:
        params["scale"] = "test"
    keys = None
    if args.bench_workload:
        # single-workload mode: one workload's hot-path numbers in isolation
        # (skips the suite-level cold/parallel/warm timings)
        keys = [_key(args, kinds.get("profile"), args.bench_workload)]
    else:
        report = executor.benchmark_suite(jobs=args.jobs, **params)
        print(f"suite of {len(report['suite'])} workloads"
              f" (scale={report['scale']}, epochs={report['epochs']},"
              f" jobs={report['jobs']}):")
        print(f"  cold serial    {report['cold_serial_s']:8.2f} s")
        print(f"  cold parallel  {report['cold_parallel_s']:8.2f} s"
              f"  ({report['parallel_speedup']:.2f}x)")
        print(f"  warm cache     {report['warm_cache_s']:8.2f} s"
              f"  ({report['warm_speedup']:.1f}x,"
              f" {report['warm_cache_hits']} hits)")
        _write_json(args.output or "BENCH_suite.json", report)
    # steady-state launch-path microbench: warm (analysis cache on) vs cold
    # (REPRO_ANALYSIS_CACHE=0 semantics) epochs/sec per workload
    report = executor.benchmark_hotpath(keys=keys,
                                        capture_replay=args.capture_replay,
                                        fuse=args.fuse, **params)
    mode = ("capture-replay+fuse" if report["fuse"]
            else "capture-replay" if report["capture_replay"]
            else "dispatch")
    print(f"\nlaunch hot path (steady state, {report['epochs']} epoch(s)"
          f" after warm-up, scale={report['scale']}, mode={mode}):")
    print(f"  {'workload':<12}{'warm ep/s':>12}{'cold ep/s':>12}"
          f"{'speedup':>9}{'hit rate':>10}{'replayed':>10}")
    for key, row in report["workloads"].items():
        replayed = (str(row.get("replayed_epochs", 0))
                    if row["mode"] == "capture-replay" else "-")
        print(f"  {key:<12}{row['warm_epochs_per_s']:>12.2f}"
              f"{row['cold_epochs_per_s']:>12.2f}{row['speedup']:>8.2f}x"
              f"{row['hit_rate'] * 100:>9.1f}%{replayed:>10}")
    print(f"  {'suite':<12}{report['warm_epochs_per_s']:>12.2f}"
          f"{report['cold_epochs_per_s']:>12.2f}{report['speedup']:>8.2f}x")
    _write_json(args.hotpath_output, report)
    return _gate(args, report, executor.check_hotpath_regression,
                 lambda base: f"committed speedup"
                              f" {base.get('speedup', 0.0):.2f}x, measured"
                              f" {report['speedup']:.2f}x")


def _commands() -> dict:
    """``command -> (handler, row defaulting its parameters, options,
    help)``; ``"KEY"``/``"KEY?"`` is a required/optional key positional."""
    profile = kinds.get("profile")
    figure = ("scale", "epochs", "seed", "jobs", "no_cache")
    commands = {
        "table1": (_table1, None, (), "Table I: the suite inventory"),
        **{fig: (_figures, profile, figure, f"the paper's Figure {fig[3:]}")
           for fig in FIGURES},
        "fig9": (_figures, kinds.get("scaling"),
                 ("epochs", "seed", "jobs", "no_cache"),
                 "Figure 9: strong scaling over 1/2/4 GPUs"),
        "all": (_figures, profile, figure, "every table and figure"),
        "profile": (_profile, profile,
                    ("KEY?", "scale", "epochs", "seed", "strict", "jobs",
                     "no_cache", "metrics", "metrics_output"),
                    "nvprof-style kernel profile of one workload or the "
                    "suite"),
        "memory": (_memory, profile, ("scale", "seed"),
                   "model vs. data memory footprint per workload"),
        "golden": (_golden, None,
                   ("KEY?", "update", *(r.flag for r in kinds.GOLDEN
                                        if r.flag), "jobs", "no_cache"),
                   "diff fresh reports against tests/golden/ snapshots"),
        "bench": (_bench, None,
                  ("quick", "scale", "epochs", "seed", "jobs",
                   "capture_replay", "fuse", "bench_workload", "output",
                   "hotpath_output", "baseline"),
                  "suite timings and the launch hot-path microbench"),
    }
    for row in kinds.TABLE:
        if row.renderer:
            report = _spec(row)
            commands[row.name] = (
                _report, row,
                ("KEY?" if report.keyless else "KEY",
                 *(name for name in row.params if name in PARAMS),
                 *report.options, "metrics", "metrics_output"),
                report.help)
    return commands


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser: one subcommand per command, each
    with only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="GNNMark reproduction: regenerate the paper's artifacts",
    )
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")
    for name, (handler, row, options, text) in _commands().items():
        sub = commands.add_parser(name, help=text, description=text)
        sub.set_defaults(handler=handler, parser=sub)
        for dest in options:
            if dest.startswith("KEY"):
                named = row is not None and row.params_hook is not None
                sub.add_argument(
                    "workload", metavar="CONFIG" if named else "WORKLOAD",
                    nargs="?" if dest == "KEY?" else None,
                    help=("named config or " if named else "")
                    + "workload key (case-insensitive)")
            else:
                _add_option(sub, dest, row)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
