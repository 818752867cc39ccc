"""The seams the traced run times, one row per public function or method.

Rows are ``(span name, module, qualname[, measure])``.  The span name is the
layer metric's prefix (``tensor.launch`` -> ``tensor.launch.calls``,
``tensor.launch.self_s``).  Several rows may share a name: every entry point
of one layer adds to the same span.
"""

from __future__ import annotations


def _transfer_bytes(args, result) -> dict:
    # SimulatedGPU.h2d/d2h(self, array, label)
    return {"gpu.transfer.bytes": float(getattr(args[1], "nbytes", 0))}


def _sampled_edges(args, result) -> dict:
    return {"graph.sample.edges": float(result.edge_dst.size)}


_WORKLOADS = [
    ("repro.models.arga", "ARGAWorkload"),
    ("repro.models.deepgcn", "DeepGCNWorkload"),
    ("repro.models.graphwriter", "GraphWriterWorkload"),
    ("repro.models.kgnn", "KGNNWorkload"),
    ("repro.models.pinsage", "PinSAGEWorkload"),
    ("repro.models.stgcn", "STGCNWorkload"),
    ("repro.models.treelstm", "TreeLSTMWorkload"),
]

_DATASETS = [
    ("repro.datasets.agenda", "load_agenda"),
    ("repro.datasets.citation", "load_citation"),
    ("repro.datasets.citation", "synthetic_citation"),
    ("repro.datasets.molecules", "load_molhiv"),
    ("repro.datasets.movielens", "load_movielens"),
    ("repro.datasets.movielens", "load_nowplaying"),
    ("repro.datasets.proteins", "load_proteins"),
    ("repro.datasets.sst", "load_sst"),
    ("repro.datasets.traffic", "load_metr_la"),
]

_FIGURE_ACCESSORS = [
    "op_breakdown", "instruction_mix", "throughput", "stalls", "cache",
    "transfer_sparsity", "memory_footprint", "sparsity_timeline",
]

SEAMS: list[tuple] = [
    # tensor: forward numerics + output Tensor, tape walk, op launch, optimizer
    ("tensor.apply", "repro.tensor.autograd", "Function.apply"),
    ("tensor.backward", "repro.tensor.autograd", "backward"),
    ("tensor.launch", "repro.tensor.ops.base", "launch"),
    ("tensor.launch", "repro.tensor.ops.base", "launch_elementwise"),
    ("tensor.launch", "repro.tensor.ops.base", "launch_reduction"),
    ("tensor.launch", "repro.tensor.ops.base", "launch_gemm"),
    ("tensor.optim", "repro.tensor.optim", "Optimizer.step"),
    # models: one training epoch (or one sampled batch) of workload glue
    *[("models.epoch", mod, f"{cls}.train_epoch") for mod, cls in _WORKLOADS],
    ("models.epoch", "repro.train.loader", "CitationSampleEngine.run_batch"),
    ("models.epoch", "repro.train.loader", "PinSAGESampleEngine.run_batch"),
    # gpu: memo replay, envelope launch, cold analysis, divergence, copies, HBM
    ("gpu.replay", "repro.gpu.device", "SimulatedGPU.replay"),
    ("gpu.launch", "repro.gpu.device", "SimulatedGPU.launch"),
    ("gpu.launch", "repro.gpu.device", "SimulatedGPU.launch_fast"),
    ("gpu.launch", "repro.gpu.device", "SimulatedGPU.launch_analyzed"),
    ("gpu.analysis", "repro.gpu.analysis_cache", "compute"),
    ("gpu.divergence", "repro.gpu.divergence", "measure"),
    ("gpu.transfer", "repro.gpu.device", "SimulatedGPU.h2d", _transfer_bytes),
    ("gpu.transfer", "repro.gpu.device", "SimulatedGPU.d2h", _transfer_bytes),
    ("gpu.memory", "repro.gpu.memory", "MemoryPool.alloc"),
    ("gpu.memory", "repro.gpu.memory", "MemoryPool.free"),
    ("gpu.memory", "repro.gpu.memory", "DeviceMemoryTracker.register"),
    ("gpu.memory", "repro.gpu.memory", "DeviceMemoryTracker._on_free"),
    # graph: neighbour sampling and graph generation
    ("graph.sample", "repro.graph.sampling", "uniform_neighbor_block",
     _sampled_edges),
    ("graph.build", "repro.graph.generators", "stochastic_block_model"),
    ("graph.build", "repro.graph.graph", "Graph.to_undirected"),
    # train: the mini-batch prefetch pipeline
    ("train.loader", "repro.train.loader", "PrefetchPipeline.run_epoch"),
    # datasets: synthetic dataset generation
    *[("datasets.load", mod, fn) for mod, fn in _DATASETS],
    # core: workload build, executor tasks, profile-cache I/O
    ("core.build", "repro.core.registry", "WorkloadSpec.build"),
    ("core.task", "repro.core.executor", "execute_task"),
    ("core.cache.load", "repro.core.cache", "ProfileCache.load"),
    ("core.cache.store", "repro.core.cache", "ProfileCache.store"),
    # profiling: launch/transfer listeners and post-run aggregation
    ("profiling.listener", "repro.profiling.nvprof", "KernelProfiler.on_launch"),
    ("profiling.listener", "repro.profiling.nvbit",
     "DivergenceInstrument.on_launch"),
    ("profiling.listener", "repro.profiling.sparsity",
     "SparsityTracker.on_transfer"),
    ("profiling.listener", "repro.profiling.trace", "Tracer.on_launch"),
    ("profiling.listener", "repro.profiling.trace", "Tracer.on_transfer"),
    *[("profiling.report", "repro.core.characterize", f"WorkloadProfile.{name}")
      for name in _FIGURE_ACCESSORS],
    ("profiling.report", "repro.profiling.trace", "Timeline.summary"),
    ("profiling.report", "repro.profiling.metrics", "collect_device"),
    ("profiling.report", "repro.profiling.metrics", "collect_profile"),
]

#: every span name, in table order
LAYERS: list[str] = list(dict.fromkeys(row[0] for row in SEAMS))
