"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` and then
runs one *unit* per :meth:`unit` call, returning the unit's simulated
results as a flat dict.  Simulated results are deterministic for a seed, so
the harness checks them for identity; only host time is measured.

Every dict carries ``kernels`` (simulated launches) and ``device_s``
(simulated device seconds) beside workload-specific outputs.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from pathlib import Path


class Mismatch(AssertionError):
    """A unit's simulated result differs from what it must equal."""


def compare(result: dict, expected: dict, what: str = "reference") -> None:
    """Raise :class:`Mismatch` unless ``result`` equals ``expected``.

    Integers and strings must match exactly.  Floats must match to a
    relative 1e-9: per-unit device seconds are differences of a running
    simulated clock, so their last bits depend on the clock's magnitude.
    """
    if set(result) != set(expected):
        raise Mismatch(f"{what}: fields {sorted(set(result) ^ set(expected))} "
                       "differ")
    for key in sorted(expected):
        got, want = result[key], expected[key]
        if isinstance(want, float) or isinstance(got, float):
            same = math.isclose(float(got), float(want), rel_tol=1e-9,
                                abs_tol=1e-15)
        else:
            same = got == want
        if not same:
            raise Mismatch(f"{what}: {key} = {got!r}, expected {want!r}")


class Workload:
    name = ""
    why = ""

    def setup(self, seed: int, scratch: Path) -> None:
        raise NotImplementedError

    def before_unit(self) -> None:
        """Untimed preparation of the next unit."""

    def unit(self) -> dict:
        raise NotImplementedError

    def after_unit(self) -> None:
        """Untimed clean-up after a unit."""

    def close(self) -> None:
        """Release what set-up made (temporary directories)."""


def _steady_trainer(key: str, seed: int):
    """A dispatch-mode trainer past its warm-up epoch.

    ``steady=True`` restores the parameters, optimizer state and RNGs
    before every later epoch, so each epoch repeats the same work and
    yields the same loss.
    """
    from repro.core import registry
    from repro.gpu import SimulatedGPU
    from repro.tensor import manual_seed
    from repro.train.trainer import Trainer

    manual_seed(seed)
    device = SimulatedGPU()
    workload = registry.get(key).build(device=device, scale="test")
    trainer = Trainer(workload=workload, device=device, steady=True)
    trainer.run(epochs=1, seed=seed)
    return trainer


def _epoch(trainer, seed: int) -> tuple[int, float, float]:
    result = trainer.run(epochs=1, seed=seed)[0]
    return result.kernels, result.sim_time_s, float(result.metrics["loss"])


class LaunchBound(Workload):
    name = "launch-bound"
    why = ("DGCN steady epochs: ~1.7k tiny launches per unit, mostly served "
           "by the launch-site memo, so per-launch Python dominates")

    def setup(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.trainer = _steady_trainer("DGCN", seed)

    def unit(self) -> dict:
        kernels, device_s, loss = _epoch(self.trainer, self.seed)
        return {"kernels": kernels, "device_s": device_s, "loss.DGCN": loss}


class NumericsBound(Workload):
    name = "numerics-bound"
    why = ("ARGA dense NxN BCE and STGCN conv einsum epochs: host numerics "
           "dominate and the launch path is a small share")
    keys = ("ARGA", "STGCN")

    def setup(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.trainers = [_steady_trainer(key, seed) for key in self.keys]

    def unit(self) -> dict:
        out = {"kernels": 0, "device_s": 0.0}
        for key, trainer in zip(self.keys, self.trainers):
            kernels, device_s, loss = _epoch(trainer, self.seed)
            out["kernels"] += kernels
            out["device_s"] += device_s
            out[f"loss.{key}"] = loss
        return out


def _render_figures(suite, seed: int) -> list[str]:
    """The paper's Fig 2-8 text views of one characterized suite."""
    from repro import GNNMark

    mark = GNNMark(scale="test", seed=seed)
    return [
        mark.render_op_breakdown(suite),
        mark.render_instruction_mix(suite),
        mark.render_throughput(suite),
        mark.render_stalls(suite),
        mark.render_cache(suite),
        mark.render_sparsity(suite),
        mark.render_sparsity_timeline(suite),
    ]


class Characterize(Workload):
    name = "characterize"
    why = ("the Fig 2-8 flow over all nine workloads from a cold analysis "
           "cache, computed into a fresh profile cache and then served from it")
    _root = None  # this unit's profile-cache directory

    def setup(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        # the first pass generates all nine datasets
        self.before_unit()
        try:
            self.unit()
        finally:
            self.after_unit()

    def before_unit(self) -> None:
        from repro.gpu import analysis_cache

        analysis_cache.clear()
        self._root = Path(tempfile.mkdtemp(prefix="profile-cache-",
                                           dir=self.scratch))

    def unit(self) -> dict:
        from repro.core import executor
        from repro.core.cache import ProfileCache

        cache = ProfileCache(root=self._root)
        passes = []
        for _ in range(2):  # computed, then served from the cache
            suite = executor.run_suite(scale="test", epochs=1, seed=self.seed,
                                       jobs=1, cache=cache)
            passes.append((suite, _render_figures(suite, self.seed)))
        (computed, figures), (served, served_figures) = passes
        out = {"kernels": 0, "device_s": 0.0,
               "cache.hits": cache.hits, "cache.misses": cache.misses}
        for key, profile in computed.profiles.items():
            losses = [m["loss"] for m in profile.train_metrics if "loss" in m]
            out[f"launches.{key}"] = profile.launch_count
            out[f"device_s.{key}"] = profile.sim_time_s
            out[f"loss.{key}"] = float(losses[-1])
            out["kernels"] += profile.launch_count
            out["device_s"] += profile.sim_time_s
        for key, profile in served.profiles.items():
            compare({"launches": profile.launch_count,
                     "device_s": profile.sim_time_s},
                    {"launches": out[f"launches.{key}"],
                     "device_s": out[f"device_s.{key}"]},
                    what=f"cache-served {key}")
        if served_figures != figures:
            raise Mismatch("cache-served figures differ from computed ones")
        return out

    def after_unit(self) -> None:
        if self._root is not None:
            shutil.rmtree(self._root, ignore_errors=True)
            self._root = None

    def close(self) -> None:
        self.after_unit()


class Minibatch(Workload):
    name = "minibatch"
    why = ("neighbour-sampled ARGA on a 200k-node SBM graph: the only load on "
           "graph sampling, the prefetch pipeline, the HBM allocator and h2d")
    nodes = 200_000

    def setup(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        # the first call generates (and the loader caches) the SBM graph
        self.unit()

    def unit(self) -> dict:
        from repro.train import loader

        report, _ = loader.sample_run("ARGA", nodes=self.nodes, epochs=1,
                                      seed=self.seed)
        return {
            "kernels": report["kernels"],
            "device_s": report["sim_wall_s"],
            "sample_digest": report["sample_digest"],
            "edges_sampled": report["edges_sampled"],
            "h2d_bytes": report["h2d_bytes"],
            "oom_events": report["oom_events"],
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (LaunchBound, NumericsBound, Characterize,
                              Minibatch)
}
