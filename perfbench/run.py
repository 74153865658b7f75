"""arborkit benchmark: one workload, one process, one thread, a closed loop.

    python3 perfbench/run.py --workload sweep|prooftrace|solve --seed N
        --seconds S --trace 0|1 [--reference-seed R] [--record]

Run from the root of a checkout; arborkit is imported from ``src/`` of that
checkout and nowhere else. Items run one after another, each starting when
the previous one has finished. Passes over the workload's item list repeat
until ``--seconds`` have gone by.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes and reports the per-layer metrics from the traced ones (see
tracing.py); it also prints the end-to-end figures of its untraced passes.

Every output is re-checked by independent routines outside the timed region
on the first pass; every later pass must give the same SHA-256 digest over
its canonical outputs, and that digest must match reference.json when the
file has an entry for these seeds. --record writes that entry.

The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from refclock import RefClock
from tracing import LAYERS, OP_NAMES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
ENV_MAX_EDGES = "ARBORKIT_MAX_EDGES"
SETUP_REPEATS = 5

# Counts that fixed inputs determine exactly; they must repeat between runs
# of the same source.
EXACT_COUNTS = (
    "generate.attempts",
    "flow.max_flow.calls",
    "matroid.union_table.subsets",
    "decompose.matchings_tried",
    "domination.core.calls",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "prooftrace", "solve"))
    p.add_argument("--seed", required=True, type=int, help="workload seed: the inputs derive from it")
    p.add_argument("--seconds", required=True, type=float, help="how long the passes run")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--reference-seed", type=int, default=7,
                   help="root seed of the reference theorem5 sweep (default 7, the ROADMAP sweep); "
                        "a second seed to re-check a claim on inputs it was not tuned on")
    p.add_argument("--record", action="store_true",
                   help="store this run's output digest in reference.json")
    return p.parse_args(argv)


# ------------------------------------------------------------ environment

def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp(args) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC / "arborkit"),
        "bench_sha256": source_digest(HERE),
        "workload": args.workload,
        "seed": args.seed,
        "reference_seed": args.reference_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def reference_key(args) -> str:
    return f"{args.seed}/{args.reference_seed}" if args.workload == "sweep" else str(args.seed)


# ------------------------------------------------------------------ setup

def set_up(args):
    """Import arborkit and build the inputs, several times; the last stays.

    Each repeat drops arborkit and the workload module from sys.modules, so
    the module bodies run again; the first repeat also pays the standard
    library imports and any bytecode compilation.
    """
    if not (SRC / "arborkit" / "__init__.py").is_file():
        raise BenchError(f"no arborkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "arborkit" or m.startswith("arborkit.") or m == "workloads"]:
            del sys.modules[name]
        start = time.perf_counter()
        workloads = importlib.import_module("workloads")
        items = workloads.WORKLOADS[args.workload](args.seed, args.reference_seed)
        times.append((start, time.perf_counter()))
    loaded = Path(sys.modules["arborkit"].__file__).resolve()
    if loaded.parent != (SRC / "arborkit").resolve():
        raise BenchError(f"arborkit was imported from {loaded}, not from {SRC}")
    return items, times


# ----------------------------------------------------------------- passes

class Pass:
    """One pass over the items; times are perf_counter readings until
    finish() turns them into reference seconds."""

    def __init__(self):
        self.start = self.end = 0.0
        self.item_times: list[tuple[float, float]] = []
        self.outputs: list = []
        self.errors: list[str | None] = []
        self.digest = ""
        self.spans = (0, 0)

    def finish(self, clock) -> None:
        self.raw_wall = self.end - self.start
        self.wall = clock.span(self.start, self.end)
        self.latencies = [clock.span(a, b) for a, b in self.item_times]


def run_pass(items, tracer=None) -> Pass:
    result = Pass()
    if tracer is not None:
        tracer.install()
    try:
        calls = []
        for item in items:
            fn = item.resolve()
            if tracer is not None:
                fn = tracer.wrap(f"{item.layer}.{OP_NAMES.get(item.name, item.name)}", fn)
            calls.append(fn)
        first_span = len(tracer) if tracer is not None else 0
        clock = time.perf_counter
        result.start = clock()
        for index, (item, fn) in enumerate(zip(items, calls)):
            if tracer is not None:
                tracer.current_item = index
            error = None
            start = clock()
            try:
                raw = fn(*item.args)
            except Exception as exc:  # one failed item must not end the workload
                raw = None
                error = f"{type(exc).__name__}: {exc}"
            result.item_times.append((start, clock()))
            if error is not None:
                traceback.print_exc(file=sys.stderr)
            result.outputs.append(item.collect(raw))
            result.errors.append(error)
        result.end = clock()
        if tracer is not None:
            result.spans = (first_span, len(tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def digest(items, p: Pass) -> str:
    h = hashlib.sha256()
    for item, output, error in zip(items, p.outputs, p.errors):
        canon = {"error": error.partition(":")[0]} if error else item.canon(output)
        h.update(json.dumps([item.label, canon], sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_outputs(items, p: Pass) -> list[str | None]:
    problems = []
    for item, output, error in zip(items, p.outputs, p.errors):
        problem = None
        if error is None:
            try:
                problem = item.check(output)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            print(f"WRONG {item.label}: {problem}", file=sys.stderr)
        problems.append(problem)
    return problems


# ---------------------------------------------------------------- metrics

def pass_metrics(passes: list[Pass]) -> dict:
    walls = [p.wall for p in passes]
    p50 = [statistics.median(p.latencies) for p in passes]
    p90 = [statistics.quantiles(p.latencies, n=10)[8] for p in passes]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "item_p50_ms": (1000 * statistics.median(p50), "ms"),
        "item_p90_ms": (1000 * statistics.median(p90), "ms"),
    }


def layer_metrics(tracer, traced: list[Pass], untraced: list[Pass]) -> tuple[dict, dict]:
    names, parents, starts, ends, notes = tracer.name, tracer.parent, tracer.start, tracer.end, tracer.note
    per_pass = []
    for p in traced:
        first, last = p.spans
        by_name, self_s = tracer.summarize(first, last)

        def calls(name):
            return by_name.get(name, (0, 0.0))[0]

        def secs(name):
            return by_name.get(name, (0, 0.0))[1]

        attempts = accepted = under_threshold = under_frac = matchings = subsets = exhausted = 0
        reject_s = graphs_s = 0.0
        for i in range(first, last):
            name, note, duration = names[i], notes[i], ends[i] - starts[i]
            parent_name = names[parents[i]] if parents[i] >= 0 else None
            if name == "arboricity.threshold" and parent_name == "generate.generate":
                attempts += 1
                accepted += note is True
                if note is False:
                    reject_s += duration
            elif name == "flow.max_flow":
                under_threshold += parent_name == "arboricity.threshold"
                under_frac += parent_name == "arboricity.frac"
            elif name == "matroid.partition" and parent_name == "decompose.matching":
                matchings += 1
            elif name == "matroid.union_table":
                subsets += (1 << note) - 1
            elif name in ("decompose.matching", "decompose.bounded"):
                exhausted += note is True
            if name.startswith("graphs."):
                graphs_s += duration
        threshold_calls = calls("arboricity.threshold")
        frac_calls = calls("arboricity.frac")
        m = {
            "generate.attempts": (attempts, "count"),
            "generate.accepted": (accepted, "count"),
            "generate.accept_ratio": (accepted / attempts if attempts else 0.0, "ratio"),
            "generate.reject_s": (reject_s, "s"),
            "generate.s": (secs("generate.generate"), "s"),
            "arboricity.threshold.calls": (threshold_calls, "count"),
            "arboricity.threshold.s": (secs("arboricity.threshold"), "s"),
            "arboricity.frac.calls": (frac_calls, "count"),
            "arboricity.frac.s": (secs("arboricity.frac"), "s"),
            "arboricity.arboricity.s": (secs("arboricity.arboricity"), "s"),
            "arboricity.partition.s": (secs("arboricity.partition"), "s"),
            "flow.max_flow.calls": (calls("flow.max_flow"), "count"),
            "flow.max_flow.s": (secs("flow.max_flow"), "s"),
            "flow.per_threshold": (under_threshold / threshold_calls if threshold_calls else 0.0, "ratio"),
            "flow.per_frac": (under_frac / frac_calls if frac_calls else 0.0, "ratio"),
            "matroid.partition.calls": (calls("matroid.partition"), "count"),
            "matroid.partition.s": (secs("matroid.partition"), "s"),
            "matroid.union_table.calls": (calls("matroid.union_table"), "count"),
            "matroid.union_table.s": (secs("matroid.union_table"), "s"),
            "matroid.union_table.subsets": (subsets, "count"),
            "decompose.matching.s": (secs("decompose.matching"), "s"),
            "decompose.matchings_tried": (matchings, "count"),
            "decompose.bounded.s": (secs("decompose.bounded"), "s"),
            "decompose.exhausted": (exhausted, "count"),
            "decompose.verify.s": (secs("decompose.verify"), "s"),
            "domination.core.calls": (calls("domination.core"), "count"),
            "domination.core.s": (secs("domination.core"), "s"),
            "domination.edge.s": (secs("domination.edge"), "s"),
            "domination.two_path.s": (secs("domination.two_path"), "s"),
            "graphs.s": (graphs_s, "s"),
            "prooftrace.s": (secs("prooftrace.run"), "s"),
            "experiment.s": (secs("experiment.run"), "s"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
        m["trace.wall_s"] = (p.wall, "s")
        m["trace.unattributed_s"] = (p.wall - sum(self_s.values()), "s")
        m["trace.spans"] = (last - first, "count")
        per_pass.append(m)

    merged = {}
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        merged[name] = (values[0] if unit == "count" else statistics.median(values), unit)
    untraced_wall = statistics.median(p.wall for p in untraced)
    merged["trace.untraced_wall_s"] = (untraced_wall, "s")
    merged["trace.overhead"] = (merged["trace.wall_s"][0] / untraced_wall - 1, "ratio")
    exact = {name: [m[name][0] for m in per_pass] for name in EXACT_COUNTS}
    return merged, exact


# ------------------------------------------------------------------- main

def measure(args):
    """Set up, then passes until --seconds have gone by; all times are
    returned in reference seconds (see refclock.py)."""
    clock = RefClock()
    clock.start()
    try:
        items, setup_marks = set_up(args)
        tracer = Tracer() if args.trace else None
        untraced: list[Pass] = []
        traced: list[Pass] = []
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(items))
            if tracer is not None:
                traced.append(run_pass(items, tracer))
            # only the first pass's outputs are kept for the checks; later
            # passes are held to its digest, and memory stays that of one pass
            for p in untraced[-1:] + traced[-1:]:
                p.digest = digest(items, p)
                if p is not untraced[0]:
                    p.outputs = None
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        clock.stop()
    for p in untraced + traced:
        p.finish(clock)
    if tracer is not None:
        tracer.rescale(clock.ref)
    setup_times = [clock.span(a, b) for a, b in setup_marks]
    return items, setup_times, tracer, untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if ENV_MAX_EDGES in os.environ:
        print(f"refusing to run: {ENV_MAX_EDGES} is set, which moves every size gate", file=sys.stderr)
        return 2
    env = stamp(args)
    try:
        items, setup_times, tracer, untraced, traced = measure(args)
    except BenchError as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    except ImportError:
        traceback.print_exc(file=sys.stderr)
        print(f"cannot run: arborkit does not import from {SRC}", file=sys.stderr)
        return 2
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = untraced + traced
    problems = check_outputs(items, passes[0])
    digests = {p.digest for p in passes}
    correct = not any(problems) and len(digests) == 1
    if len(digests) != 1:
        print(f"WRONG outputs differ between passes: {sorted(digests)}", file=sys.stderr)
    run_digest = passes[0].digest
    key = reference_key(args)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    expected = reference.get(args.workload, {}).get(key)
    if expected is None:
        print(f"note: reference.json has no digest for {args.workload} {key}", file=sys.stderr)
    elif expected != run_digest:
        print(f"WRONG digest {run_digest} differs from the reference {expected}", file=sys.stderr)
        correct = False
    if args.record:
        reference.setdefault(args.workload, {})[key] = run_digest
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    attempted = len(items) * len(passes)
    failed = sum(e is not None or bool(q) for p in passes for e, q in zip(p.errors, problems))
    starved_per_pass = sum(item.starved(o) for item, o, e in zip(items, passes[0].outputs, passes[0].errors)
                           if e is None)

    end_to_end = {"setup_s": (statistics.median(setup_times), "s")}
    end_to_end.update(pass_metrics(untraced))
    end_to_end["peak_rss_mib"] = (peak_rss_mib, "MiB")

    print("stamp " + json.dumps(env, sort_keys=True))
    print(f"digest {run_digest} passes={len(untraced)} untraced, {len(traced)} traced; "
          f"items per pass={len(items)}; unscaled median pass "
          f"{statistics.median(p.raw_wall for p in untraced):.6f} s", flush=True)
    if tracer is None:
        metrics = end_to_end
    else:
        metrics, exact = layer_metrics(tracer, traced, untraced)
        metrics["items.attempted"] = (attempted, "count")
        starved = starved_per_pass * len(passes)
        metrics["items.failed"] = (failed + starved, "count")
        metrics["items.starved"] = (starved, "count")
        metrics["fail_ratio"] = ((failed + starved) / attempted, "ratio")
        for name, values in exact.items():
            if len(set(values)) != 1:
                print(f"WRONG {name} differs between traced passes: {values}", file=sys.stderr)
                correct = False
        correct &= counts_repeat(args, env, {name: values[0] for name, values in exact.items()})
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{key.replace('/', '-')}.tsv.gz")
        for name, (value, unit) in end_to_end.items():
            print(f"{name:32s} {value:14.6f} {unit}  (untraced passes of this traced run)")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def counts_repeat(args, env: dict, counts: dict) -> bool:
    """Compare the exact counts with the last traced run of the same
    library and benchmark source."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"counts-{args.workload}-{reference_key(args).replace('/', '-')}.json"
    source = [env["src_sha256"], env["bench_sha256"]]
    record = {"source": source, "counts": counts}
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier.get("source") == source and earlier["counts"] != counts:
            print(f"WRONG exact counts {counts} differ from an earlier run {earlier['counts']}", file=sys.stderr)
            return False
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    return True


if __name__ == "__main__":
    sys.exit(main())
