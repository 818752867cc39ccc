"""The report-kind table: one row per executor task kind.

Every report the suite produces — a Table-I profile, a golden stream
fingerprint, a serving or sharded-training report — is a pure function of
``(kind, key, params)``.  A :class:`ReportKind` row says how to run one
(a lazily imported runner plus its parameter fields and defaults), which
keys a suite covers by default, and, for the eight golden kinds, how a
committed snapshot under ``tests/golden/`` is named, reduced and compared.

Everything else iterates this table instead of re-implementing it:
:func:`repro.core.executor.execute_task` and
:func:`repro.core.executor.suite`, the generic snapshot functions in
:mod:`repro.testing.golden`, ``python -m repro golden --<flag>``, and the
CLI's report commands (one per row with a ``renderer``, its flags the
row's parameters).  Adding a report kind is adding a row.

Kind names are the profile-cache ``kind`` field and the ``repro_task_*``
metric label, so they never change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Mapping, Optional, Union

#: the whole Table-I registry (the default key set of most kinds)
WORKLOADS = "repro.core.registry:WORKLOAD_KEYS"


def resolve(ref: str):
    """Import ``"package.module:attr"`` and return the attribute."""
    module, _, attr = ref.partition(":")
    return getattr(import_module(module), attr)


@dataclass(frozen=True)
class Block:
    """How one nested snapshot field compares, entry by entry.

    ``by`` says what names an entry: ``"name"`` (a dict's keys),
    ``"index"`` (a list's positions) or ``"first"`` (a list of rows keyed
    by their first element).  Entries compare exactly unless ``rtol`` or
    ``atol`` is set, then with ``numpy.isclose``.
    """

    by: str = "name"
    rtol: float = 0.0
    atol: float = 0.0


EXACT = Block()


@dataclass(frozen=True)
class ReportKind:
    """One task kind: how to run it and, if golden, how to snapshot it."""

    name: str
    #: ``"module:function"`` called as ``runner(key=..., **params)``
    runner: str
    #: parameter fields (besides ``key``) with their defaults; golden
    #: verification replays each field a snapshot records
    params: Mapping[str, object]
    #: default suite keys: a tuple, or a ``"module:CONSTANT"`` reference
    default_keys: Union[str, tuple] = WORKLOADS
    #: ``"module:function"`` mapping a suite key to ``(key, params)``;
    #: replaces the defaults (shard resolves named configurations)
    params_hook: Optional[str] = None
    # -- golden snapshots (``prefix is None``: not a golden kind) ---------
    #: snapshot file name prefix: ``tests/golden/<prefix><KEY>.json``
    prefix: Optional[str] = None
    #: ``python -m repro golden --<flag>`` (``None``: the default family)
    flag: Optional[str] = None
    #: report field holding the snapshot key
    key_field: str = "workload"
    #: ``"module:function"`` reducing a full report to its snapshot
    reducer: Optional[str] = None
    #: the canonical-JSON digest field, reported last on drift
    digest_field: Optional[str] = None
    #: nested fields compared entry by entry (everything else: exactly)
    blocks: Mapping[str, Block] = field(default_factory=dict)
    #: fields never compared (covered by another field)
    ignore: tuple = ()
    # -- CLI report commands (``None``: no ``python -m repro <name>``) ----
    #: ``"module:function"`` rendering one report as text
    renderer: Optional[str] = None

    @property
    def golden(self) -> bool:
        return self.prefix is not None

    def keys(self) -> tuple:
        """The default suite keys (the golden snapshot set)."""
        keys = self.default_keys
        return tuple(resolve(keys) if isinstance(keys, str) else keys)

    def universe(self) -> tuple:
        """Every key this kind accepts: registry workloads, or, for kinds
        keyed by configuration name, its own named configurations."""
        if self.key_field == "workload":
            return resolve(WORKLOADS)
        return self.keys()

    def task(self, key: str, **overrides) -> tuple:
        """The declarative ``(kind, params)`` task for one key."""
        unknown = sorted(set(overrides) - set(self.params))
        if unknown:
            raise TypeError(f"{self.name} tasks take no parameter(s) "
                            f"{unknown}; have {sorted(self.params)}")
        if self.params_hook:
            key, params = resolve(self.params_hook)(key)
        else:
            params = dict(self.params)
        for name, value in overrides.items():
            # JSON snapshots record tuples as lists; tasks carry tuples,
            # like the runners' own defaults
            params[name] = tuple(value) if isinstance(value, list) else value
        return self.name, dict(key=key, **params)

    def snapshot(self, report: dict) -> dict:
        """The part of a report a golden snapshot stores."""
        return resolve(self.reducer)(report) if self.reducer else report


TABLE = (
    ReportKind("profile", "repro.core.characterize:profile_workload",
               params=dict(scale="profile", epochs=1, seed=0, strict=False)),
    ReportKind(
        "fingerprint", "repro.testing.golden:fingerprint_workload",
        params=dict(scale="test", epochs=1, seed=0),
        prefix="", digest_field="stream_digest",
        blocks=dict(op_class_launches=EXACT, phase_launches=EXACT,
                    totals=Block(rtol=1e-9),
                    transfer_totals=Block(rtol=1e-9),
                    # training losses are compute results: fp32 slack
                    losses=Block("index", rtol=1e-4, atol=1e-6)),
    ),
    ReportKind("scaling", "repro.train.ddp:run_scaling_point",
               params=dict(num_gpus=1, scale="scaling", epochs=1, seed=0)),
    ReportKind(
        "trace", "repro.profiling.trace:trace_fingerprint",
        params=dict(scale="test", epochs=1, seed=0, num_gpus=1),
        prefix="trace_", flag="traces", digest_field="trace_digest",
        blocks=dict(span_counts=EXACT),
        renderer="repro.profiling.report:format_trace",
    ),
    ReportKind(
        "memstats", "repro.core.characterize:measure_memory",
        params=dict(scale="test", epochs=1, seed=0, strict=False),
        prefix="memory_", flag="memory", digest_field="memory_digest",
        blocks=dict(phase_watermarks=EXACT, top_labels=Block("first")),
        renderer="repro.profiling.report:format_memory_report",
    ),
    ReportKind(
        "capture_fingerprint", "repro.testing.golden:capture_fingerprint",
        params=dict(scale="test", epochs=5, seed=0, mode="capture",
                    analysis_cache_enabled=None),
    ),
    ReportKind(
        "fused_fingerprint", "repro.testing.golden:fused_fingerprint",
        params=dict(scale="test", epochs=5, seed=0),
        prefix="fused_", flag="fused", digest_field="fused_stream_digest",
        blocks=dict(fused_name_counts=EXACT, totals=Block(rtol=1e-9)),
    ),
    ReportKind(
        "serve", "repro.serve.server:serve_report",
        params=dict(scale="test", qps=100.0, arrival="poisson", batch_max=8,
                    max_wait_us=2000.0, requests=256, num_users=64, seed=0,
                    strict=False),
        default_keys="repro.serve.server:SERVEABLE",
        prefix="serve_", flag="serve", digest_field="serve_digest",
        blocks=dict.fromkeys(("latency_us", "wait_us", "compute_us",
                              "batch_size_hist", "plan_kernels"), EXACT),
        renderer="repro.profiling.report:format_serve",
    ),
    ReportKind(
        "sample", "repro.train.loader:sample_report",
        params=dict(scale="test", fanouts=(10, 5), batch_size=64,
                    prefetch_depth=2, epochs=2, nodes=None, seed=0,
                    strict=False),
        default_keys="repro.train.loader:SAMPLE_DEFAULT_KEYS",
        prefix="sample_", flag="sample", digest_field="sample_digest",
        blocks=dict(stall_breakdown=EXACT),
        renderer="repro.profiling.report:format_sample",
    ),
    ReportKind(
        "shard", "repro.train.sharded:shard_report",
        params=dict(parts=4, offload=False, nodes=4096, feat_dim=64,
                    hidden=32, epochs=2, seed=0, mode="auto", strict=False),
        default_keys="repro.train.sharded:SHARD_GOLDEN_KEYS",
        params_hook="repro.train.sharded:resolve_shard_config",
        prefix="shard_", flag="shard", key_field="name",
        digest_field="shard_digest",
        # fp64 losses sum across parts in a partition-dependent order
        blocks=dict(partition=EXACT, losses=Block("index", atol=1e-9)),
        ignore=("loss_final",),
        renderer="repro.profiling.report:format_shard",
    ),
    ReportKind(
        "insights", "repro.profiling.insights:insights_report",
        params=dict(scale="test", epochs=2, seed=0, gpus=1),
        # the paper's flagship 3D-GNN plus the memory-bound KG workload
        default_keys=("DGCN", "KGNNL"),
        prefix="insights_", flag="insights",
        reducer="repro.testing.golden:insights_fingerprint",
        digest_field="insights_digest",
        blocks=dict(bound_summary=EXACT, stream_summary=EXACT,
                    top_sites=Block("index")),
        renderer="repro.profiling.report:format_insights",
    ),
)

KINDS: dict[str, ReportKind] = {row.name: row for row in TABLE}

#: the golden kinds, in table order
GOLDEN: tuple[ReportKind, ...] = tuple(row for row in TABLE if row.golden)


def get(name: str) -> ReportKind:
    try:
        return KINDS[name]
    except KeyError:
        raise ValueError(f"unknown task kind {name!r}; have {sorted(KINDS)}") \
            from None
