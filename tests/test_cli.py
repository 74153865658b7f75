import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from arborkit import Decomposition, Graph, serialize_graph, verify_decomposition
from arborkit.cli import _parse_range, main
from helpers import complete_graph, cycle, doubled_cycle, path


@pytest.fixture
def graph_file(tmp_path):
    def write(name, graph):
        p = tmp_path / name
        p.write_text(serialize_graph(graph), encoding="utf-8")
        return str(p)

    return write


def test_parse_range():
    assert _parse_range("1,3") == (1, 3)
    assert _parse_range("4:6") == (4, 5, 6)
    assert _parse_range("1,4:5,9") == (1, 4, 5, 9)
    with pytest.raises(ValueError, match="bad span '5:2'"):
        _parse_range("5:2")
    # a token that is neither an integer nor a span is named in the message
    for text, token in (("1:x", "1:x"), ("", ""), ("1,,2", ""), ("3:", "3:"), ("x", "x")):
        with pytest.raises(ValueError) as err:
            _parse_range(text)
        assert str(err.value) == f"not an integer or lo:hi span: {token!r}"


def test_frac_text(graph_file, capsys):
    f = graph_file("tri.txt", cycle(3))
    assert main(["frac", f]) == 0
    assert capsys.readouterr().out == "3/2\n"


def test_frac_json_and_modes(graph_file, capsys):
    f = graph_file("c6.txt", cycle(6))
    assert main(["frac", f, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fractional_arboricity"] == "6/5"
    assert sorted(doc["witness_vertices"]) == [0, 1, 2, 3, 4, 5]


def test_frac_mode_flag_is_gone(graph_file, capsys):
    f = graph_file("c6.txt", cycle(6))
    with pytest.raises(SystemExit) as exc:
        main(["frac", f, "--mode", "brute"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_frac_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(serialize_graph(cycle(3))))
    assert main(["frac", "-"]) == 0
    assert capsys.readouterr().out == "3/2\n"


def test_arboricity_text(graph_file, capsys):
    f = graph_file("k5.txt", complete_graph(5))
    assert main(["arboricity", f]) == 0
    assert capsys.readouterr().out == "3\n"


def test_arboricity_infinite(graph_file, capsys):
    f = graph_file("loop.txt", Graph(1, ((0, 0),)))
    assert main(["arboricity", f]) == 0
    assert capsys.readouterr().out == "INFINITE\n"


def test_partition_ok(graph_file, capsys):
    f = graph_file("c6.txt", cycle(6))
    assert main(["partition", f, "--k", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].startswith("forest 0:")


def test_partition_violation(graph_file, capsys):
    f = graph_file("k4.txt", complete_graph(4))
    assert main(["partition", f, "--k", "1", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "violation"
    assert doc["violating_edges"]


_FOUND_FOREST_DOC = """\
{
  "status": "ok",
  "k": 1,
  "kind": "forest",
  "d": 2,
  "forests": [
    [
      0,
      1,
      4
    ]
  ],
  "remainder": [
    2,
    3,
    5
  ]
}
"""

_PROOFTRACE_DOC = """\
{
  "graph": {
    "vertices": 2,
    "edges": 2
  },
  "k": 1,
  "hypothesis_ok": false,
  "flats_of_dual": 2,
  "records": [
    {
      "complement": [],
      "min_degree": null,
      "mindeg_ok": true,
      "gamma_p": "0",
      "required": 0,
      "inters": "pass"
    },
    {
      "complement": [
        1
      ],
      "min_degree": 2,
      "mindeg_ok": true,
      "gamma_p": "INFINITE",
      "required": 1,
      "inters": "pass"
    }
  ],
  "link_ok": true,
  "basic_obs_ok": true,
  "verdict": "PASS"
}
"""

_EDGE_AND_LOOP = Graph(2, ((0, 1), (1, 1)))


@pytest.mark.parametrize("graph,argv,code,out", [
    (complete_graph(4), ["frac", "--json"], 0,
     '{"fractional_arboricity": "2", "witness_vertices": [0, 1, 2, 3]}\n'),
    (complete_graph(4), ["partition", "--k", "2"], 0,
     "forest 0: 0 1 5\nforest 1: 2 3 4\n"),
    (Graph(3, ()), ["partition", "--k", "0"], 0, ""),
    (Graph(3, ()), ["partition", "--k", "1"], 0, "forest 0: \n"),
    (complete_graph(4), ["partition", "--k", "1"], 1, "violating edges: 1 2 5\n"),
    (complete_graph(4), ["partition", "--k", "1", "--json"], 1,
     '{"status": "violation", "k": 1, "violating_edges": [1, 2, 5]}\n'),
    (complete_graph(4), ["decompose", "--k", "1", "--remainder", "forest", "--d", "2"], 0,
     "forest 0: 0 1 4\nremainder (forest): 2 3 5\nstatus: ok\n"),
    (complete_graph(4), ["decompose", "--k", "1", "--remainder", "forest", "--d", "2", "--json"],
     0, _FOUND_FOREST_DOC),
    (complete_graph(4), ["decompose", "--k", "1"], 1, "status: exhausted\n"),
    (complete_graph(4), ["decompose", "--k", "1", "--json"], 1,
     '{"status": "exhausted", "k": 1, "kind": "matching", "d": null, "witness": [0, 1, 2, 3]}\n'),
    (path(3), ["domination", "--kind", "edge", "--json"], 0,
     '{"kind": "edge", "value": "1", "witness": [0]}\n'),
    (complete_graph(4), ["domination", "--kind", "two-path", "--json"], 0,
     '{"kind": "two-path", "value": "1", "witness": [[1, 0, 2]], "witness_pairs": [[0, 1]]}\n'),
    (_EDGE_AND_LOOP, ["prooftrace", "--k", "1"], 0,
     "flats: 2\nlink: ok\nbasic sets: ok\nflat min degree: ok\n"
     "domination condition: ok\nhypothesis: not satisfied\nPASS\n"),
    (_EDGE_AND_LOOP, ["prooftrace", "--k", "1", "--json"], 0, _PROOFTRACE_DOC),
])
def test_printed_bytes(graph_file, capsys, graph, argv, code, out):
    # exact layouts: a found decomposition and prooftrace indent their JSON,
    # every other document is one line, and no lines print nothing at all
    f = graph_file("g.txt", graph)
    assert main([argv[0], f, *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == ""


def test_decompose_exhausted(graph_file, capsys):
    f = graph_file("k4.txt", complete_graph(4))
    assert main(["decompose", f, "--k", "1"]) == 1
    assert capsys.readouterr().out == "status: exhausted\n"
    assert main(["decompose", f, "--k", "1", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    # six edges on four vertices: one forest holds 3 and a matching 2
    assert doc == {
        "status": "exhausted", "k": 1, "kind": "matching", "d": None, "witness": [0, 1, 2, 3],
    }


def test_decompose_and_verify_roundtrip(graph_file, tmp_path, capsys):
    f = graph_file("c6.txt", cycle(6))
    assert main(["decompose", f, "--k", "1", "--json"]) == 0
    doc_text = capsys.readouterr().out
    doc = json.loads(doc_text)
    assert doc["status"] == "ok"
    assert doc["kind"] == "matching"
    assert len(doc["forests"]) == 1

    dec_path = tmp_path / "dec.json"
    dec_path.write_text(doc_text, encoding="utf-8")
    assert main(["verify", f, "--k", "1", "--decomposition", str(dec_path)]) == 0
    assert capsys.readouterr().out == "verified\n"


def test_verify_infers_remainder(graph_file, tmp_path, capsys):
    f = graph_file("p4.txt", path(4))
    doc = {"forests": [[0, 2]]}
    dec_path = tmp_path / "dec.json"
    dec_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", f, "--k", "1", "--decomposition", str(dec_path)]) == 0
    assert capsys.readouterr().out == "verified\n"


def test_verify_rejects_bad_document(graph_file, tmp_path, capsys):
    f = graph_file("tri.txt", cycle(3))
    dec_path = tmp_path / "dec.json"
    dec_path.write_text(json.dumps({"forests": [[0, 1, 2]], "remainder": []}), encoding="utf-8")
    assert main(["verify", f, "--k", "1", "--decomposition", str(dec_path)]) == 1
    assert capsys.readouterr().out == "invalid: forest 0 contains a cycle\n"

    dec_path.write_text(json.dumps({"wrong": True}), encoding="utf-8")
    assert main(["verify", f, "--k", "1", "--decomposition", str(dec_path)]) == 2


@pytest.mark.parametrize("doc,reason", [
    ({"forests": [[0, 0, 1]], "remainder": [2, 2], "kind": "matching"}, "forest 0 lists edge 0 twice"),
    ({"forests": [[0, 1]], "remainder": [2, 2], "kind": "matching"}, "remainder lists edge 2 twice"),
    ({"forests": [[0, 1, 1]]}, "forest 0 lists edge 1 twice"),
])
def test_verify_refuses_an_edge_listed_twice_in_one_part(graph_file, tmp_path, capsys, doc, reason):
    # each part is read into a set, where a repeat would vanish unseen
    f = graph_file("tri.txt", cycle(3))
    dec_path = tmp_path / "dup.json"
    dec_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", f, "--k", "1", "--decomposition", str(dec_path)]) == 1
    assert capsys.readouterr().out == f"invalid: {reason}\n"


@pytest.mark.parametrize("doc", [
    {"forests": 5},
    {"forests": [[0]], "d": "x", "kind": "forest"},
    {"forests": [0, 1]},
    {"forests": [["0"]]},
    {"forests": [[0]], "remainder": 3},
    {"forests": [[0]], "remainder": [1.5]},
    {"forests": [[True]]},
    {"forests": [[0]], "kind": 7},
    {"forests": [[0]], "kind": "tree"},
])
def test_verify_malformed_document_is_usage_error(graph_file, tmp_path, capsys, doc):
    f = graph_file("tri.txt", cycle(3))
    dec_path = tmp_path / "dec.json"
    dec_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", f, "--k", "1", "--decomposition", str(dec_path)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("doc,flags", [
    ({"forests": [[0, 1]], "remainder": [2]}, ["--k", "-1"]),
    ({"forests": [[0, 1]], "remainder": [2], "kind": "forest", "d": 1}, ["--k", "1", "--d", "-3"]),
    ({"forests": [[0, 1]], "remainder": [2], "kind": "graph", "d": 2}, ["--k", "1", "--d", "0"]),
    ({"forests": [[0, 1]], "remainder": [2], "kind": "forest", "d": 0}, ["--k", "1"]),
    ({"forests": [[0, 1]], "remainder": [2], "kind": "graph", "d": -1}, ["--k", "1"]),
    ({"forests": [[0, 1]], "remainder": [2], "kind": "forest"}, ["--k", "1"]),
])
def test_verify_bad_k_or_d_is_usage_error(graph_file, tmp_path, capsys, doc, flags):
    f = graph_file("tri.txt", cycle(3))
    dec_path = tmp_path / "dec.json"
    dec_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", f, "--decomposition", str(dec_path)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_decompose_bounded_flags(graph_file, capsys):
    f = graph_file("c6.txt", cycle(6))
    assert main(["decompose", f, "--k", "1", "--remainder", "forest", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "remainder (forest):" in out
    assert out.endswith("status: ok\n")
    # flag misuse is a usage error
    assert main(["decompose", f, "--k", "1", "--d", "2"]) == 2
    capsys.readouterr()
    assert main(["decompose", f, "--k", "1", "--remainder", "forest"]) == 2


def test_decompose_graph_remainder_gate_exit(graph_file, capsys, monkeypatch):
    monkeypatch.delenv("ARBORKIT_MAX_EDGES", raising=False)
    f = graph_file("long.txt", path(24))
    assert main(["decompose", f, "--k", "1", "--remainder", "graph", "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "desk-scale limit" in captured.err


def test_decompose_witness_answers_past_the_gate(graph_file, capsys, monkeypatch):
    # 28 edges, past the gate, but the counting witness settles the answer
    monkeypatch.delenv("ARBORKIT_MAX_EDGES", raising=False)
    f = graph_file("k8.txt", complete_graph(8))
    assert main(["decompose", f, "--k", "1", "--remainder", "graph", "--d", "1", "--json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["witness"] == [0, 1, 2, 3, 4, 5, 6, 7]
    assert captured.err == ""


def test_decompose_deep_path_answers(graph_file, capsys, monkeypatch):
    # past a raised gate the bounded search answers; no search recurses
    monkeypatch.setenv("ARBORKIT_MAX_EDGES", "1500")
    f = graph_file("deep.txt", path(1501))
    assert main(["decompose", f, "--k", "1", "--remainder", "graph", "--d", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("status: ok\n")
    assert captured.err == ""


def test_domination_values(graph_file, capsys):
    f = graph_file("c6.txt", cycle(6))
    assert main(["domination", f, "--kind", "edge"]) == 0
    assert capsys.readouterr().out == "2\n"
    assert main(["domination", f, "--kind", "two-path", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "2"
    assert len(doc["witness"]) == 2
    assert len(doc["witness_pairs"]) == 2


def test_domination_infinite(graph_file, capsys):
    f = graph_file("k2.txt", Graph(2, ((0, 1),)))
    assert main(["domination", f, "--kind", "two-path", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "INFINITE"
    assert doc["witness"] is None


def test_prooftrace_pass(graph_file, capsys):
    f = graph_file("tri.txt", cycle(3))
    assert main(["prooftrace", f, "--k", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "flats: 2"
    assert "hypothesis: not satisfied" in out
    assert out[-1] == "PASS"


def test_prooftrace_inconclusive(graph_file, capsys):
    f = graph_file("dt.txt", doubled_cycle(3))
    assert main(["prooftrace", f, "--k", "1", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "INCONCLUSIVE"


def test_prooftrace_gate_exit(graph_file, capsys, monkeypatch):
    monkeypatch.delenv("ARBORKIT_MAX_EDGES", raising=False)
    f = graph_file("long.txt", path(16))
    assert main(["prooftrace", f, "--k", "1"]) == 2
    assert "desk-scale limit" in capsys.readouterr().err


def test_max_edges_flag_is_gone(graph_file, capsys):
    f = graph_file("c6.txt", cycle(6))
    with pytest.raises(SystemExit) as exc:
        main(["prooftrace", f, "--k", "1", "--max-edges", "20"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_env_gate_override(graph_file, capsys, monkeypatch):
    monkeypatch.setenv("ARBORKIT_MAX_EDGES", "4")
    f = graph_file("c6.txt", cycle(6))
    assert main(["domination", f, "--kind", "edge"]) == 2
    assert "ARBORKIT_MAX_EDGES" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["domination", "{f}", "--kind", "edge"],  # runs a gated search
    ["frac", "{f}"],  # reaches no gate
    ["experiment", "--selector", "theorem5", "--n-range", "6", "--trials", "1", "--seed", "1"],
], ids=["gated", "ungated", "experiment"])
def test_a_malformed_env_gate_is_refused_by_every_command(argv, graph_file, capsys, monkeypatch):
    monkeypatch.setenv("ARBORKIT_MAX_EDGES", "x")
    f = graph_file("c6.txt", cycle(6))
    assert main([a.format(f=f) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ARBORKIT_MAX_EDGES must be an integer, got 'x'\n"


def test_gen_writes_file(tmp_path, capsys):
    out_path = tmp_path / "g.txt"
    assert main(["gen", "--n", "6", "--bound", "6/5", "--seed", "42", "-o", str(out_path)]) == 0
    msg = capsys.readouterr().out
    assert msg == f"wrote {out_path} (n=6, m=6)\n"
    first = out_path.read_text(encoding="utf-8")
    assert main(["gen", "--n", "6", "--bound", "6/5", "--seed", "42", "-o", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8") == first
    assert first.splitlines()[0] == "6 6"


def test_gen_to_stdout_parses_back(capsys):
    assert main(["gen", "--n", "5", "--bound", "1", "--seed", "3", "-o", "-"]) == 0
    from arborkit import parse_graph

    g = parse_graph(capsys.readouterr().out)
    assert g.vertex_count == 5 and g.edge_count == 4


def test_gen_errors(capsys):
    # more edges than a simple graph holds: usage error
    assert main(["gen", "--n", "2", "--bound", "3", "--seed", "0", "-o", "-"]) == 2
    assert "error:" in capsys.readouterr().err
    # a decimal bound is not a rational literal: usage error
    assert main(["gen", "--n", "5", "--bound", "1.5", "--seed", "0", "-o", "-"]) == 2
    assert "not a rational literal: '1.5'" in capsys.readouterr().err
    # exhausted rejection budget: negative result
    rc = main(
        ["gen", "--n", "6", "--bound", "6/5", "--seed", "0", "--max-rejections", "1", "-o", "-"]
    )
    assert rc == 1
    assert "no graph with fractional arboricity" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n", encoding="utf-8")
    assert main(["frac", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["frac", "/nonexistent/graph.txt"]) == 2


def test_out_of_memory_is_exit_2(graph_file, capsys, monkeypatch):
    # a header such as "2000000000 0" passes the edge-count gates and then
    # runs out of memory in per-vertex lists; that is bad input, not a crash
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("arborkit.cli.edge_domination", exhausted)
    assert main(["domination", graph_file("g.txt", cycle(3)), "--kind", "edge"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_deep_matching_search_answers(graph_file, capsys):
    # the maximal-matching search keeps its branch points on a stack of its
    # own, so a 3000-vertex path (a forest) gets a decomposition, not a
    # stack overflow
    assert main(["decompose", graph_file("p3000.txt", path(3000)), "--k", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    dec = Decomposition(
        forests=tuple(frozenset(x) for x in doc["forests"]),
        remainder=frozenset(doc["remainder"]),
        kind=doc["kind"],
    )
    assert verify_decomposition(path(3000), dec, 1) == (True, None)


def test_experiment_cli(capsys):
    rc = main(
        [
            "experiment",
            "--selector",
            "theorem5",
            "--n-range",
            "5:6",
            "--trials",
            "2",
            "--seed",
            "11",
            "--json",
            "-",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    table, _, blob = out.partition("{")
    lines = table.splitlines()
    assert lines[0].split()[0:3] == ["k", "n", "bound"]
    assert len(lines) == 3
    payload = json.loads("{" + blob)
    assert payload["schema"] == 1
    assert len(payload["rows"]) == 2


def test_experiment_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--selector", "theorem5", "--n-range", "5"])
    assert err.value.code == 2
    for jobs in ("0", "-3"):
        argv = ["experiment", "--selector", "theorem5", "--n-range", "5", "--trials", "1",
                "--seed", "0", "--jobs", jobs]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "jobs must be positive" in captured.err
    argv = ["experiment", "--selector", "theorem5", "--n-range=-1", "--trials", "1", "--seed", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n must be nonnegative" in captured.err
    argv = ["experiment", "--selector", "theorem5", "--n-range", "6", "--k-range", "1:x",
            "--trials", "1", "--seed", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: not an integer or lo:hi span: '1:x'\n"


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "arborkit", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


# ------------------------------------------------------------ exit-code fuzz
#
# Each example is either tame (every value in range, every file well formed,
# so the commands run to a verdict) or wild (values out of range, malformed
# graph files and decomposition documents, unknown choices).

def _int_arg(lo, hi, wild):
    if not wild:
        return st.integers(lo, hi).map(str)
    return st.one_of(st.integers(lo - 2, hi + 2).map(str), st.sampled_from(["x", "1.5", ""]))


def _choice(tame, wild_extra, wild):
    return st.sampled_from(tame + wild_extra if wild else tame)


@st.composite
def _graph_text(draw, wild):
    """Graph files on at most 6 vertices and 8 edges: simple graphs, parallel
    edges, loops, and malformed lines built from the same small tokens."""
    shape = draw(_choice(["simple", "parallel", "loops"], ["malformed"], wild))
    if shape == "malformed":
        token = st.sampled_from(["0", "1", "2", "3", "6", "7", "-1", "x", "1.5", "#"])
        lines = draw(st.lists(st.lists(token, max_size=3).map(" ".join), max_size=6))
        return "\n".join(lines) + "\n"
    n = draw(st.integers(0, 6))
    if n == 0:
        return "0 0\n"
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if shape == "simple":
        pairs = draw(st.sets(pair.filter(lambda p: p[0] < p[1]), max_size=8))
    elif shape == "parallel":
        pairs = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=8))
    else:
        pairs = draw(st.lists(pair, max_size=8))
    return serialize_graph(Graph(n, tuple(sorted(pairs))))


def _decomposition_doc(wild):
    doc = st.fixed_dictionaries(
        {"forests": st.lists(st.lists(st.integers(0, 7), max_size=4), max_size=3)},
        optional={
            "remainder": st.one_of(st.none(), st.lists(st.integers(0, 7), max_size=4)),
            "kind": st.sampled_from(["matching", "forest", "graph"]),
            "d": st.one_of(st.none(), st.integers(1, 3)),
        },
    ).map(json.dumps)
    if not wild:
        return doc
    return st.one_of(doc, st.sampled_from(
        ["[]", "3", "{}", '{"forests": 1}', '{"forests": [["a"]]}', '{"forests": [[-1]]}',
         '{"forests": [], "kind": "bogus"}', '{"forests": [], "d": "x"}', "{", ""]))


@st.composite
def _cli_argv(draw, tmp):
    wild = draw(st.booleans())
    command = draw(st.sampled_from(
        ["arboricity", "frac", "partition", "decompose", "verify", "domination",
         "prooftrace", "gen", "experiment"]))

    def flag(name):
        return [name] if draw(st.booleans()) else []

    def option(name, values):
        return [name, draw(values)] if draw(st.booleans()) else []

    if command in ("gen", "experiment"):
        argv = [command, "--seed", draw(_int_arg(0, 5, wild))]
        argv += ["--max-rejections", draw(_int_arg(1, 5, wild))] + flag("--parallel-edges")
    else:
        graph_path = tmp / "g.txt"
        graph_path.write_text(draw(_graph_text(wild)), encoding="utf-8")
        argv = [command, str(graph_path)]
    if command in ("arboricity", "frac"):
        argv += flag("--json")
    elif command in ("partition", "prooftrace"):
        argv += ["--k", draw(_int_arg(1, 3, wild))] + flag("--json")
    elif command == "decompose":
        argv += ["--k", draw(_int_arg(0, 3, wild))] + flag("--json")
        argv += option("--remainder", _choice(["matching", "forest", "graph"], ["bogus"], wild))
        argv += option("--d", _int_arg(1, 3, wild))
    elif command == "verify":
        doc_path = tmp / "dec.json"
        doc_path.write_text(draw(_decomposition_doc(wild)), encoding="utf-8")
        argv += ["--k", draw(_int_arg(0, 3, wild)), "--decomposition", str(doc_path)]
        argv += option("--d", _int_arg(1, 3, wild))
    elif command == "domination":
        argv += ["--kind", draw(_choice(["edge", "two-path"], ["bogus"], wild))] + flag("--json")
    elif command == "gen":
        argv += ["--n", draw(_int_arg(0, 8, wild))]
        argv += ["--bound", draw(_choice(["1", "6/5", "3/2", "5/2"],
                                         ["0", "1/0", "-1", "1.2", "x"], wild))]
        argv += ["-o", draw(_choice(["-", str(tmp / "out.txt")],
                                    [str(tmp / "missing" / "out.txt")], wild))]
    elif command == "experiment":
        argv += ["--selector", draw(_choice(
            ["theorem5", "theorem2i", "theorem2ii", "conjecture", "custom"], ["bogus"], wild))]
        argv += ["--k-range", draw(_choice(["1", "1,2", "2"], ["0", "-1", "2:1", "x"], wild))]
        argv += ["--n-range", draw(_choice(["0", "1:3", "5", "5:6"], ["-1", "3:2", "x"], wild))]
        argv += ["--trials", draw(_int_arg(1, 2, wild))]
        argv += option("--d", _int_arg(1, 2, wild))
        argv += option("--bound", _choice(["3/2", "2"], ["0", "x"], wild))
        argv += option("--remainder", _choice(["matching", "forest", "graph"], [], wild))
        # one worker at most: a process pool per example would make the test slow
        argv += ["--jobs", draw(_int_arg(1, 1, wild))]
        argv += option("--json", _choice(["-", str(tmp / "r.json")], [], wild))
    return argv


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exit_codes_under_fuzz(tmp_path, monkeypatch, capsys, data):
    env = data.draw(st.sampled_from([None, "2", "30", "x"]))
    if env is None:
        monkeypatch.delenv("ARBORKIT_MAX_EDGES", raising=False)
    else:
        monkeypatch.setenv("ARBORKIT_MAX_EDGES", env)
    argv = data.draw(_cli_argv(tmp_path))
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    capsys.readouterr()
    assert rc in (0, 1, 2), argv
