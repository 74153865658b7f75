"""Command line front end.

Exit codes: 0 for success or a verified/PASS result, 1 for negative
verdicts (exhausted searches, INCONCLUSIVE or FAIL reports, failed
verification, generator exhaustion), 2 for usage, input, and size-gate
errors, for an ARBORKIT_MAX_EDGES that is no integer (whatever the
command), and for input too large to fit in memory. Rationals always print
as "p/q", never as decimals.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .arboricity import arboricity, fractional_arboricity, partition_into_forests
from .decompose import (
    REMAINDER_KINDS,
    Decomposition,
    check_remainder,
    decompose_forests_bounded,
    decompose_forests_matching,
    remainder_witness,
    verify_decomposition,
)
from .domination import edge_domination, two_path_domination
from .experiment import SELECTORS, ExperimentConfig, emit_report, run_experiment
from .generate import GenSpec, GenerationError, generate
from .graphs import Graph, parse_graph, serialize_graph
from .limits import _max_edges
from .prooftrace import VERDICT_PASS, run_prooftrace
from .rationals import format_value, parse_fraction


def _load_graph(path: str) -> Graph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _parse_range(text: str) -> tuple[int, ...]:
    """Comma list of integers and lo:hi spans, e.g. "1,2" or "4:8"."""
    out: list[int] = []
    for token in text.split(","):
        token = token.strip()
        lo_text, colon, hi_text = token.partition(":")
        try:
            lo, hi = int(lo_text), int(hi_text if colon else lo_text)
        except ValueError:
            raise ValueError(f"not an integer or lo:hi span: {token!r}") from None
        if hi < lo:
            raise ValueError(f"bad span {token!r}: upper end below lower")
        out.extend(range(lo, hi + 1))
    return tuple(out)


def _ids(edges) -> str:
    return " ".join(map(str, sorted(edges)))


def _emit(args, doc: dict, lines: list[str], indent: int | None = None) -> None:
    """Print a command's result: its JSON document under --json, else its
    text lines, one print each (no lines print nothing)."""
    if args.json:
        print(json.dumps(doc, indent=indent))
    else:
        for line in lines:
            print(line)


def cmd_value(args) -> int:
    # arboricity and frac; the parser sets the solver and the JSON key
    res = args.solver(_load_graph(args.file))
    value = format_value(res.value)
    _emit(args, {args.key: value, "witness_vertices": sorted(res.witness_vertices)}, [value])
    return 0


def cmd_partition(args) -> int:
    res = partition_into_forests(_load_graph(args.file), args.k)
    if res.ok:
        doc = {"status": "ok", "k": args.k, "forests": [sorted(f) for f in res.forests]}
        lines = [f"forest {i}: {_ids(f)}" for i, f in enumerate(res.forests)]
    else:
        doc = {"status": "violation", "k": args.k, "violating_edges": sorted(res.violation)}
        lines = [f"violating edges: {_ids(res.violation)}"]
    _emit(args, doc, lines)
    return 0 if res.ok else 1


def cmd_decompose(args) -> int:
    graph = _load_graph(args.file)
    if args.remainder == "matching":
        # the library lets a matching ignore d; the command refuses it
        if args.d is not None:
            raise ValueError("--d applies to forest and graph remainders only")
        dec = decompose_forests_matching(graph, args.k)
    else:
        dec = decompose_forests_bounded(graph, args.k, args.d, args.remainder)
    if dec is None:
        # the vertex set that proves the answer by counting, or null when
        # only the search decided; the text names the status alone
        witness = remainder_witness(graph, args.k, args.remainder, args.d)
        doc = {"status": "exhausted", "k": args.k, "kind": args.remainder, "d": args.d}
        doc["witness"] = None if witness is None else sorted(witness)
        _emit(args, doc, ["status: exhausted"])
        return 1
    lines = [f"forest {i}: {_ids(f)}" for i, f in enumerate(dec.forests)]
    lines += [f"remainder ({dec.kind}): {_ids(dec.remainder)}", "status: ok"]
    doc = {
        "status": "ok",
        "k": args.k,
        "kind": dec.kind,
        "d": dec.degree_bound,
        "forests": [sorted(f) for f in dec.forests],
        "remainder": sorted(dec.remainder),
    }
    _emit(args, doc, lines, indent=2)
    return 0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(e) for e in x)


def _check_decomposition_doc(doc) -> None:
    """Schema check for verify: a malformed document is a usage error."""
    if not isinstance(doc, dict) or "forests" not in doc:
        raise ValueError("decomposition document needs a 'forests' array")
    forests = doc["forests"]
    if not isinstance(forests, list) or not all(_is_int_list(f) for f in forests):
        raise ValueError("decomposition 'forests' must be a list of lists of edge ids")
    remainder = doc.get("remainder")
    if remainder is not None and not _is_int_list(remainder):
        raise ValueError("decomposition 'remainder' must be a list of edge ids or null")
    d = doc.get("d")
    if d is not None and not _is_int(d):
        raise ValueError("decomposition 'd' must be an integer or null")


def cmd_verify(args) -> int:
    if args.k < 0:
        raise ValueError("k must be nonnegative")
    graph = _load_graph(args.file)
    doc = json.loads(Path(args.decomposition).read_text(encoding="utf-8"))
    _check_decomposition_doc(doc)
    kind = doc.get("kind", "matching")
    d = args.d if args.d is not None else doc.get("d")
    check_remainder(kind, d)
    # the parts become sets below, so a repeat inside one is refused here
    named = [(f"forest {i}", f) for i, f in enumerate(doc["forests"])]
    named.append(("remainder", doc.get("remainder") or []))
    for name, ids in named:
        twice = [e for e, count in Counter(ids).items() if count > 1]
        if twice:
            print(f"invalid: {name} lists edge {twice[0]} twice")
            return 1
    forests = tuple(frozenset(f) for f in doc["forests"])
    if doc.get("remainder") is not None:
        remainder = frozenset(doc["remainder"])
    else:
        remainder = graph.full_edge_set().difference(*forests)
    dec = Decomposition(forests=forests, remainder=remainder, kind=kind, degree_bound=d)
    ok, reason = verify_decomposition(graph, dec, args.k, d)
    if ok:
        print("verified")
        return 0
    print(f"invalid: {reason}")
    return 1


def cmd_domination(args) -> int:
    graph = _load_graph(args.file)
    if args.kind == "edge":
        res = edge_domination(graph)
    else:
        res = two_path_domination(graph)
    value = format_value(res.value)
    # json writes the witness tuples as arrays
    doc = {"kind": args.kind, "value": value, "witness": res.witness}
    if args.kind == "two-path":
        doc["witness_pairs"] = res.witness_pairs
    _emit(args, doc, [value])
    return 0


def cmd_prooftrace(args) -> int:
    report = run_prooftrace(_load_graph(args.file), args.k)
    mindeg = all(r.mindeg_ok for r in report.records)
    inters = all(r.inters_status == "pass" for r in report.records)
    lines = [
        f"flats: {report.flat_count}",
        f"link: {'ok' if report.link_ok else 'FAIL'}",
        f"basic sets: {'ok' if report.basic_obs_ok else 'FAIL'}",
        f"flat min degree: {'ok' if mindeg else 'FAIL'}",
        f"domination condition: {'ok' if inters else 'inconclusive'}",
        f"hypothesis: {'ok' if report.hypothesis_ok else 'not satisfied'}",
        report.verdict,
    ]
    _emit(args, report.to_json(), lines, indent=2)
    return 0 if report.verdict == VERDICT_PASS else 1


def cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n,
        target_bound=parse_fraction(args.bound),
        allow_parallel=args.parallel_edges,
        seed=args.seed,
        max_rejections=args.max_rejections,
    )
    graph = generate(spec)
    text = serialize_graph(graph)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output} (n={graph.vertex_count}, m={graph.edge_count})")
    return 0


def cmd_experiment(args) -> int:
    config = ExperimentConfig(
        selector=args.selector,
        k_values=_parse_range(args.k_range),
        n_values=_parse_range(args.n_range),
        trials=args.trials,
        seed=args.seed,
        d=args.d,
        custom_bound=None if args.bound is None else parse_fraction(args.bound),
        remainder=args.remainder,
        allow_parallel=args.parallel_edges,
        max_rejections=args.max_rejections,
    )
    rows = run_experiment(config, jobs=args.jobs)
    text, payload = emit_report(config, rows)
    sys.stdout.write(text)
    if args.json is not None:
        blob = json.dumps(payload, indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(blob)
        else:
            Path(args.json).write_text(blob, encoding="utf-8")
    return 0 if all(r.clean for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arborkit",
        description="exact arboricity, forest decompositions, and domination checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the positional that every graph command reads first
    file_arg = argparse.ArgumentParser(add_help=False)
    file_arg.add_argument("file", help="graph file, or - for stdin")
    on_graph = [file_arg]

    p = sub.add_parser("arboricity", parents=on_graph, help="minimum number of covering forests")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_value, solver=arboricity, key="arboricity")

    p = sub.add_parser("frac", parents=on_graph, help="fractional arboricity as an exact rational")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_value, solver=fractional_arboricity, key="fractional_arboricity")

    p = sub.add_parser("partition", parents=on_graph, help="split the edges into k forests")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("decompose", parents=on_graph, help="k forests plus a small remainder")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--remainder", choices=REMAINDER_KINDS, default="matching")
    p.add_argument("--d", type=int, help="remainder degree bound (forest/graph kinds)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", parents=on_graph, help="re-check a decomposition document")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--decomposition", required=True, help="JSON from decompose --json")
    p.add_argument("--d", type=int, help="override the document's degree bound")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("domination", parents=on_graph, help="edge or 2-path domination number")
    p.add_argument("--kind", choices=("edge", "two-path"), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_domination)

    p = sub.add_parser("prooftrace", parents=on_graph, help="desk-scale structural check battery")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_prooftrace)

    p = sub.add_parser("gen", help="seeded random graph below a density bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", required=True, help="rational p/q")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--parallel-edges", action="store_true")
    p.add_argument("--max-rejections", type=int, default=GenSpec.max_rejections)
    p.add_argument("-o", "--output", required=True, help="file path, or - for stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("experiment", help="generate/decompose/verify sweep")
    p.add_argument("--selector", choices=SELECTORS, required=True)
    p.add_argument("--k-range", default="1", help="e.g. 1,2 or 1:3")
    p.add_argument("--n-range", required=True, help="e.g. 6:10")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--bound", help="rational p/q (selector custom)")
    p.add_argument("--remainder", choices=REMAINDER_KINDS, default="matching")
    p.add_argument("--parallel-edges", action="store_true")
    p.add_argument("--max-rejections", type=int, default=GenSpec.max_rejections)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", help="write the JSON report here, - for stdout")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _max_edges()  # refused up front, not only at a gated search
        return args.func(args)
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # the size gates count edges; a huge declared vertex count with few
        # edges passes them and can still exhaust memory
        print("error: out of memory: the graph is too large", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
