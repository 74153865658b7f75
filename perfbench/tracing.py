"""In-memory spans around the calls that cross arborkit's layers.

No arborkit source is edited. The tracer re-binds the module-level names
through which one arborkit module calls a function of another (for example
``arborkit.generate.fractional_arboricity_at_most``), and swaps the two
classes whose methods carry the heavy work (``MaxFlow`` as seen from
``arboricity``, ``_ForestPartition`` as seen from ``decompose``) for
subclasses whose methods record spans. Calls inside one module are not
intercepted, so their time is the calling span's self time.

Spans are kept in parallel lists indexed by span number (``name``,
``parent``, ``start``, ``end``, ``note``, ``item``) rather than one object
per span, so a traced sweep's quarter of a million spans adds no objects
for the garbage collector to walk. ``parent`` is the enclosing span (-1 for
none), ``item`` the benchmark item that caused the span, and ``note`` keeps
what the aggregation needs from the call: the verdict of a threshold test,
the edge count of a union table, whether a decomposition search came back
exhausted.
"""

from __future__ import annotations

import gzip
import sys
import time
import types

# The layers that are measured; rationals, limits and cli are thin and are
# not layers here, so calls into them stay in the caller's self time.
LAYERS = (
    "generate",
    "arboricity",
    "flow",
    "matroid",
    "decompose",
    "domination",
    "prooftrace",
    "experiment",
    "graphs",
)

# Short span names for the functions the per-layer metrics are named after;
# any other function keeps its own name.
OP_NAMES = {
    "fractional_arboricity_at_most": "threshold",
    "fractional_arboricity": "frac",
    "partition_into_forests": "partition",
    "matroid_partition": "partition",
    "union_rank_table": "union_table",
    "_edge_domination_core": "core",
    "edge_domination": "edge",
    "two_path_domination": "two_path",
    "decompose_forests_matching": "matching",
    "decompose_forests_bounded": "bounded",
    "verify_decomposition": "verify",
    "run_prooftrace": "run",
    "run_experiment": "run",
}


def _note(name: str, args: tuple, result):
    if name == "arboricity.threshold":
        return result
    if name == "matroid.union_table":
        return args[0].edge_count
    if name in ("decompose.matching", "decompose.bounded"):
        return result is None
    return None


def layer_module(layer: str) -> types.ModuleType:
    # sys.modules, because the package attribute ``arborkit.generate`` is the
    # generate() function, which shadows the module of the same name
    return sys.modules[f"arborkit.{layer}"]


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.note: list = []
        self.item: list[int] = []
        self.current_item = -1
        self._stack: list[int] = [-1]
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, name: str, fn):
        names, parents, starts, ends, notes, items = (
            self.name, self.parent, self.start, self.end, self.note, self.item)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            items.append(tracer.current_item)
            ends.append(0.0)
            notes.append(None)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            notes[index] = _note(name, args, result)
            return result

        return traced

    def _traced_class(self, cls, layer: str, methods: tuple[str, ...]):
        body = {m: self.wrap(f"{layer}.{m}", getattr(cls, m)) for m in methods}
        return type(cls.__name__, (cls,), body)

    def install(self) -> None:
        """Re-bind every cross-layer name; uninstall() puts the originals back."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for caller in LAYERS:
            module = layer_module(caller)
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                callee = obj.__module__.rpartition(".")[2]
                if callee == caller or callee not in LAYERS or not obj.__module__.startswith("arborkit."):
                    continue
                name = f"{callee}.{OP_NAMES.get(obj.__name__, obj.__name__)}"
                self._rebind(module, attr, self.wrap(name, obj))
        arb = layer_module("arboricity")
        self._rebind(arb, "MaxFlow", self._traced_class(arb.MaxFlow, "flow", ("max_flow", "min_cut_source_side")))
        dec = layer_module("decompose")
        self._rebind(
            dec,
            "_ForestPartition",
            self._traced_class(dec._ForestPartition, "matroid", ("try_insert", "snapshot", "restore")),
        )

    def _rebind(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def rescale(self, to_ref) -> None:
        """Turn the perf_counter readings into reference seconds."""
        self.start = [to_ref(t) for t in self.start]
        self.end = [to_ref(t) for t in self.end]

    def write(self, path) -> None:
        """All spans as tab-separated lines: index, parent, item, name, start, end
        (reference seconds)."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("index\tparent\titem\tname\tstart_s\tend_s\n")
            for i in range(len(self)):
                out.write(f"{i}\t{self.parent[i]}\t{self.item[i]}\t{self.name[i]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")

    def summarize(self, first: int, last: int) -> tuple[dict, dict]:
        """Per-name (calls, seconds) and per-layer self seconds over spans
        first..last-1.

        Self time is a span's duration minus the durations of its direct
        children; spans nest because the benchmark is single-threaded.
        """
        child_time = [0.0] * (last - first)
        for i in range(first, last):
            if self.parent[i] >= first:
                child_time[self.parent[i] - first] += self.end[i] - self.start[i]
        by_name: dict[str, list] = {}
        layer_self: dict[str, float] = {}
        for i in range(first, last):
            duration = self.end[i] - self.start[i]
            entry = by_name.setdefault(self.name[i], [0, 0.0])
            entry[0] += 1
            entry[1] += duration
            layer = self.name[i].partition(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + duration - child_time[i - first]
        return by_name, layer_self
