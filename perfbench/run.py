"""Host-time benchmark of the GNNMark simulator.

    python3 perfbench/run.py --workload launch-bound --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Runs one workload's units in a closed loop (one process, one caller) for
``--seconds`` and prints, as the last line of stdout, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced units
and reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCES = HERE / "references.json"
#: the seed the committed references were made with
REFERENCE_SEED = 0
#: set-ups per end-to-end run; setup_s is their median
SETUP_SAMPLES = 3
#: spans written to the Chrome trace file (set-up spans fill what is left
#: after the first traced units)
TRACE_FILE_SPANS = 100_000
WORKLOAD_NAMES = ("launch-bound", "numerics-bound", "characterize", "minibatch")

#: a hermetic, low-noise process: single-threaded BLAS, analysis cache on,
#: serial executor (set before numpy loads; children inherit it)
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_ANALYSIS_CACHE": "1",
    "REPRO_JOBS": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print {'setup_s': ...} and exit")
    ap.add_argument("--update-reference", action="store_true",
                    help=f"run one unit at seed {REFERENCE_SEED} and store "
                         "its simulated results in references.json")
    return ap.parse_args(argv)


def _child(args, *extra: str, timeout: float) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return lines


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_all(args) -> int:
    """Every workload in a fresh process of its own; one summary table."""
    rows = {}
    for name in WORKLOAD_NAMES:
        args.workload = name
        lines = _child(args, timeout=900)
        print("\n".join(lines[:-1]), flush=True)
        rows[name] = json.loads(lines[-1])
    metrics = list(next(iter(rows.values()))["metrics"])
    print("\nworkload        units  failed  " + "  ".join(metrics))
    for name, row in rows.items():
        cells = [f"{_fmt(row['metrics'][m]['value'])} {row['metrics'][m]['unit']}"
                 for m in metrics]
        print(f"{name:<15} {row['attempted']:>5}  {row['failed']:>6}  "
              + "  ".join(cells))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def _write_trace(path: Path, session, traced_ids: list[int], meta: dict) -> int:
    """Chrome trace-event JSON of the first traced units, then set-up."""
    from perfbench import spans

    rec = session.rec
    first = set(traced_ids[:2])
    chosen = [i for i in range(len(rec)) if rec.unit[i] in first]
    chosen += [i for i in range(len(rec)) if rec.unit[i] == spans.SETUP_UNIT]
    chosen = sorted(chosen[:TRACE_FILE_SPANS])
    t0 = min((rec.start[i] for i in chosen), default=0)
    events = [{
        "name": rec.names[rec.name[i]], "ph": "X", "pid": 1, "tid": 1,
        "ts": (rec.start[i] - t0) / 1e3, "dur": (rec.end[i] - rec.start[i]) / 1e3,
        "args": {"unit": rec.unit[i], "span": i, "parent": rec.parent[i]},
    } for i in chosen]
    path.write_text(json.dumps({"traceEvents": events, "metadata": meta}))
    return len(events)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED_ENV)
    if args.workload == "all":
        return run_all(args)
    if args.update_reference:
        args.seed = REFERENCE_SEED

    samples: list[float] = []
    if not (args.trace or args.setup_only or args.update_reference):
        # the other set-ups run first, in fresh processes, so none of them
        # shares this process's imports or caches
        for _ in range(SETUP_SAMPLES - 1):
            lines = _child(args, "--setup-only", timeout=170)
            samples.append(json.loads(lines[-1])["setup_s"])

    t0 = time.perf_counter()  # before numpy or repro load
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import harness, spans, workloads

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "repro-cache")
    workload = workloads.WORKLOADS[args.workload]()
    try:
        from repro.gpu import analysis_cache

        analysis_cache.set_enabled(True)
        session = harness.TraceSession() if args.trace else None
        if session is not None:
            session.begin(spans.SETUP_UNIT)
        try:
            workload.setup(args.seed, scratch)
        finally:
            if session is not None:
                session.end()
        samples.append(time.perf_counter() - t0)
        if args.setup_only:
            print(json.dumps({"setup_s": samples[-1]}))
            return 0
        if args.update_reference:
            first = harness.run_units(workload, 0.0, lambda result: None)
            return _update_reference(args.workload, first.records[0].result)

        refs = json.loads(REFERENCES.read_text())
        reference = (refs["workloads"].get(args.workload)
                     if args.seed == refs["seed"] else None)
        check = harness.make_check(reference)
        with harness.GcMeter() as meter:
            run = harness.run_units(workload, args.seconds, check,
                                    session=session, meter=meter,
                                    analysis_stats=analysis_cache.stats,
                                    probe=harness.CalibrationProbe())
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    correct = run.failed == 0
    times = [r.host_s for r in run.records]
    notes = []
    if args.trace:
        metrics = harness.per_layer(run, session)
        units = harness.PER_LAYER
        if not harness.sim_identical(run):
            correct = False
            notes.append("traced units' sim.* differ from untraced units'")
        if harness.layer_sum_error(metrics) > 1e-6:
            correct = False
            notes.append("layer self times do not add up to the unit time")
    else:
        metrics = harness.end_to_end(run, samples)
        units = harness.END_TO_END
    probe = harness.p50([r.probe for r in run.records])

    ref_note = (f"committed references for seed {args.seed}"
                if reference is not None else
                f"no references for seed {args.seed}; every unit checked "
                "against the first unit")
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("  env: " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items())
          + f" python={platform.python_version()} cpus={os.cpu_count()}")
    print(f"  correctness: {ref_note}")
    print(f"  units: {len(times)} attempted, {run.failed} failed "
          f"(closed loop, one caller, {run.wall_s:.2f} s)")
    for note in notes:
        print(f"  FAILED: {note}")
    if args.trace:
        traced = sum(1 for r in run.records if r.traced)
        print(f"  per-layer metrics over {traced} traced units "
              f"({len(times) - traced} untraced):")
        for name, value in metrics.items():
            print(f"    {name:<28} {_fmt(value)} {units[name]}")
    else:
        p90 = harness.p90(harness.scaled_times(run))
        print(f"  setup_s             {_fmt(metrics['setup_s'])} s  "
              f"host clock, median of {len(samples)} set-ups "
              f"[{', '.join(f'{s:.3f}' for s in samples)}]")
        print(f"  unit_s_p50          {_fmt(metrics['unit_s_p50'])} s  "
              f"scaled, {len(times)} units (host clock "
              f"{_fmt(harness.p50(times))} s)")
        print("  unit_s_p90          " + (
            f"{_fmt(p90)} s  scaled, {len(times)} units (host clock "
            f"{_fmt(harness.p90(times))} s)" if p90 is not None else
            f"n/a: {len(times)} units < {harness.P90_MIN_UNITS}"))
        print(f"  sim_launches_per_s  {_fmt(metrics['sim_launches_per_s'])} 1/s"
              "  launches per unit / unit_s_p50")
        print(f"  peak_rss_mb         {_fmt(metrics['peak_rss_mb'])} MiB")
    print(f"  calibration probe: median {_fmt(probe)} s before each unit; "
          f"unit times scaled to the reference {harness.REFERENCE_PROBE_S} s")

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": PINNED_ENV,
            "python": platform.python_version(), "cpus": os.cpu_count(),
            "probe_median_s": probe, "references": reference is not None,
            "setup_samples_s": samples, "unit_host_s": times,
            "unit_traced": [r.traced for r in run.records],
            "unit_probe_s": [r.probe for r in run.records],
            "metrics": metrics}
    if args.trace:
        path = OUT / f"{args.workload}.trace.json"
        written = _write_trace(path, session,
                               [r.trace_id for r in run.records if r.traced],
                               meta)
        print(f"  trace: {path.relative_to(ROOT)} ({written} of "
              f"{len(session.rec)} spans)")
    (OUT / f"{args.workload}.json").write_text(json.dumps(meta, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": len(times),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _update_reference(name: str, result: dict) -> int:
    refs = (json.loads(REFERENCES.read_text()) if REFERENCES.exists()
            else {"seed": REFERENCE_SEED, "workloads": {}})
    refs["workloads"][name] = result
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{name}: reference for seed {REFERENCE_SEED} written to "
          f"{REFERENCES.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
