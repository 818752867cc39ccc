"""Host-time span recording around the simulator's layer seams.

A :class:`Recorder` keeps every span in memory as parallel integer arrays
(name id, start ns, end ns, parent index, unit id) and never touches the
program's own code: :class:`Seams` replaces each seam function with a
timing wrapper *from outside*, at every binding that holds it (a module
attribute, a name imported by value into another module, or a class
attribute), and puts the originals back on :meth:`Seams.uninstall`.

A call into a seam made while the innermost open span already carries the
same name is part of that span (``launch_elementwise`` calling ``launch``
is one ``tensor.launch`` span), so ``calls`` counts layer entries and self
times never double-count.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Optional, Sequence

#: unit id of spans recorded during set-up; units count up from 0
SETUP_UNIT = -1
#: unit id of spans recorded outside any traced unit (ignored by aggregation)
IDLE_UNIT = -2


class Recorder:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.unit = array("i")
        self.stack: list[int] = []
        self.stack_names: list[int] = []
        self.current_unit = IDLE_UNIT
        #: (unit id, counter name) -> summed value (bytes, edges, ...)
        self.counts: dict[tuple[int, str], float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str) -> int:
        """Open a span by hand (unit and set-up roots); returns its index."""
        idx = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.unit.append(self.current_unit)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(idx)
        self.stack_names.append(self.name[idx])
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        if not self.stack or self.stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self.stack.pop()
        self.stack_names.pop()

    def wrap(self, name: str, fn: Callable,
             measure: Optional[Callable] = None) -> Callable:
        """Return ``fn`` timed as a ``name`` span.

        ``measure(args, result) -> {counter: value}`` adds work counts
        (bytes moved, edges sampled) at the same boundary.
        """
        nid = self.name_id(name)
        clock = time.perf_counter_ns
        stack, stack_names = self.stack, self.stack_names
        names, starts, ends = self.name, self.start, self.end
        parents, units, counts = self.parent, self.unit, self.counts

        # open/close inlined: this runs on every call into a seam
        def wrapper(*args, **kwargs):
            if stack_names and stack_names[-1] == nid:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            units.append(self.current_unit)
            ends.append(0)
            stack.append(idx)
            stack_names.append(nid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                stack_names.pop()
            if measure is not None:
                unit = self.current_unit
                for key, value in measure(args, result).items():
                    counts[unit, key] += value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def self_times(start: Sequence[int], end: Sequence[int],
               parent: Sequence[int]) -> list[int]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest properly, so a span's direct
    children never overlap one another and their durations simply add.
    """
    n = len(start)
    child = [0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(n)]


def aggregate(rec: Recorder, units: Iterable[int]) -> dict[str, dict]:
    """Per span name: ``calls`` and ``self_ns`` over spans of ``units``."""
    wanted = set(units)
    selfs = self_times(rec.start, rec.end, rec.parent)
    out: dict[str, dict] = {}
    for i, nid in enumerate(rec.name):
        if rec.unit[i] not in wanted:
            continue
        slot = out.setdefault(rec.names[nid], {"calls": 0, "self_ns": 0})
        slot["calls"] += 1
        slot["self_ns"] += selfs[i]
    return out


def child_calls(rec: Recorder, child: str, parent: str,
                units: Iterable[int]) -> int:
    """Number of ``child`` spans whose direct parent is a ``parent`` span."""
    wanted = set(units)
    cid, pid = rec._ids.get(child), rec._ids.get(parent)
    if cid is None or pid is None:
        return 0
    return sum(
        1 for i, nid in enumerate(rec.name)
        if nid == cid and rec.unit[i] in wanted and rec.parent[i] >= 0
        and rec.name[rec.parent[i]] == pid
    )


def _resolve(module: str, qualname: str):
    """(owner, attribute, raw value) of ``module:qualname``."""
    owner = importlib.import_module(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Seams:
    """Installs and removes timing wrappers for a table of seams.

    ``table`` rows are ``(span name, module, qualname[, measure])``.  A
    module-level function is replaced at every ``repro`` module attribute
    that holds the same object, which covers names imported by value
    (``from .base import launch``).  A class attribute is replaced on the
    class that defines it; ``classmethod`` descriptors stay descriptors.
    """

    def __init__(self, rec: Recorder, table: Sequence[tuple]) -> None:
        self.rec = rec
        self.installed = False
        self._patches: list[tuple[object, str, object, object]] = []
        for row in table:
            importlib.import_module(row[1])
        bindings = self._module_bindings("repro")
        for row in table:
            name, module, qualname = row[:3]
            measure = row[3] if len(row) > 3 else None
            owner, attr, raw = _resolve(module, qualname)
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(rec.wrap(name, raw.__func__, measure))
                else:
                    wrapped = rec.wrap(name, raw, measure)
                self._patches.append((owner, attr, raw, wrapped))
                continue
            wrapped = rec.wrap(name, raw, measure)
            holders = bindings.get(id(raw), [])
            if not holders:
                raise LookupError(f"{module}.{qualname} is bound nowhere")
            for mod, mod_attr in holders:
                self._patches.append((mod, mod_attr, raw, wrapped))

    @staticmethod
    def _module_bindings(package: str) -> dict[int, list[tuple[object, str]]]:
        found: dict[int, list[tuple[object, str]]] = defaultdict(list)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package
                                   or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and not isinstance(value, type):
                    found[id(value)].append((mod, attr))
        return found

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        self.installed = True

    def uninstall(self) -> None:
        for owner, attr, raw, _ in self._patches:
            setattr(owner, attr, raw)
        self.installed = False
