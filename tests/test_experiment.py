import concurrent.futures
from fractions import Fraction

import pytest

from arborkit import CellResult, ExperimentConfig, emit_report, run_experiment
import arborkit.experiment as experiment
from arborkit.cli import main


def small_config(**overrides):
    base = dict(
        selector="theorem5",
        k_values=(1,),
        n_values=(6,),
        trials=3,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_selector_validation():
    with pytest.raises(ValueError):
        small_config(selector="theorem9")
    with pytest.raises(ValueError):
        small_config(selector="theorem2i", k_values=(1, 2))
    with pytest.raises(ValueError):
        small_config(selector="conjecture")
    with pytest.raises(ValueError):
        small_config(selector="custom")
    with pytest.raises(ValueError):
        small_config(selector="custom", custom_bound=Fraction(3, 2), remainder="tree", d=1)
    with pytest.raises(ValueError):
        small_config(selector="custom", custom_bound=Fraction(3, 2), remainder="forest")
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(k_values=(0,))


def test_empty_sweep_is_refused():
    # no k or no n would run no cell, and with no k no GenSpec would check n
    for k_values, n_values in (((), (6,)), ((1,), ()), ((), (-1,))):
        with pytest.raises(ValueError, match="at least one k value and one n value"):
            small_config(k_values=k_values, n_values=n_values)


def test_custom_bound_below_one_is_refused_before_any_cell():
    # the n = 1 cell would run before the generator refused n = 5
    with pytest.raises(ValueError, match="target_bound must be at least 1 when n > 1"):
        small_config(selector="custom", custom_bound=Fraction(1, 2), n_values=(1, 5), trials=1)
    assert small_config(selector="custom", custom_bound=Fraction(1, 2), n_values=(0, 1)).n_values == (0, 1)


def test_cell_bounds_per_selector():
    assert small_config().cell_bound(1) == Fraction(6, 5)
    assert small_config().cell_bound(2) == Fraction(17, 8)
    assert small_config(selector="theorem2i").cell_bound(1) == Fraction(4, 3)
    two_ii = small_config(selector="theorem2ii")
    assert two_ii.cell_bound(1) == Fraction(3, 2)
    assert two_ii.cell_remainder() == ("forest", 2)
    conj = small_config(selector="conjecture", d=1)
    assert conj.cell_bound(1) == Fraction(4, 3)
    assert conj.cell_bound(2) == Fraction(9, 4)
    assert conj.cell_remainder() == ("forest", 1)
    cust = small_config(selector="custom", custom_bound=Fraction(7, 5), remainder="graph", d=3)
    assert cust.cell_bound(1) == Fraction(7, 5)
    assert cust.cell_remainder() == ("graph", 3)
    assert small_config().cell_remainder() == ("matching", None)


def test_run_experiment_is_deterministic():
    config = small_config(n_values=(5, 6), trials=4)
    first = run_experiment(config)
    second = run_experiment(config)
    strip = lambda rows: [(r.k, r.n, r.generated, r.decomposed, r.verified,
                           r.exhausted, r.gen_failed) for r in rows]
    assert strip(first) == strip(second)
    assert [(r.k, r.n) for r in first] == [(1, 5), (1, 6)]


def test_run_experiment_all_verified_at_theorem_bound():
    rows = run_experiment(small_config(n_values=(6, 8), trials=5))
    for row in rows:
        assert row.clean
        assert row.attempted == 5
        assert row.verified == 5


def test_parallel_jobs_give_identical_counts():
    config = small_config(n_values=(5, 7), trials=3)
    strip = lambda rows: [(r.k, r.n, r.generated, r.decomposed, r.verified,
                           r.exhausted, r.gen_failed) for r in rows]
    assert strip(run_experiment(config, jobs=2)) == strip(run_experiment(config, jobs=1))


def test_jobs_start_at_most_one_worker_per_cell(monkeypatch):
    # a stand-in pool that records its size and maps in this process, so
    # no worker is ever started
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    config = small_config(n_values=(5, 6), trials=1)
    rows = run_experiment(config, jobs=10**6)
    assert sizes == [2]
    assert [(r.k, r.n) for r in rows] == [(1, 5), (1, 6)]


def test_gen_failures_are_counted_not_fatal():
    config = small_config(trials=2, max_rejections=1, seed=0)
    rows = run_experiment(config)
    assert rows[0].gen_failed >= 1
    assert rows[0].attempted == 2
    assert not rows[0].clean


def test_cell_result_clean():
    good = CellResult(1, 6, Fraction(6, 5), "matching", None, 5, 5, 5, 5, 0, 0, 0.1)
    assert good.clean
    bad = CellResult(1, 6, Fraction(6, 5), "matching", None, 5, 5, 4, 4, 1, 0, 0.1)
    assert not bad.clean


def test_emit_report_shapes():
    config = small_config(trials=2)
    rows = run_experiment(config)
    text, payload = emit_report(config, rows)
    lines = text.splitlines()
    assert lines[0].split() == [
        "k", "n", "bound", "remainder", "d", "generated", "decomposed",
        "verified", "exhausted", "gen_failed", "success", "seconds",
    ]
    assert len(lines) == 1 + len(rows)
    assert payload["schema"] == 1
    assert payload["config"]["selector"] == "theorem5"
    assert payload["rows"][0]["bound"] == "6/5"
    assert payload["rows"][0]["success"] == f"{rows[0].verified}/{rows[0].attempted}"


def test_emit_report_with_no_rows():
    config = small_config()
    text, payload = emit_report(config, [])
    assert text.splitlines()[0].startswith("k")
    assert len(text.splitlines()) == 1
    assert payload["rows"] == []


def test_cell_result_json_and_table_line_are_pinned():
    row = CellResult(2, 9, Fraction(17, 8), "matching", None, 4, 3, 3, 2, 0, 1, 0.25)
    assert list(row.to_json().items()) == [
        ("k", 2), ("n", 9), ("bound", "17/8"), ("remainder", "matching"), ("d", None),
        ("attempted", 4), ("generated", 3), ("decomposed", 3), ("verified", 2),
        ("exhausted", 0), ("gen_failed", 1), ("success", "2/4"), ("seconds", 0.25),
    ]
    text, _ = emit_report(small_config(k_values=(2,), n_values=(9,)), [row])
    assert text.splitlines()[1] == "2  9  17/8   matching   -  3          3           2         0          1           2/4      0.25"


def test_config_json_is_pinned():
    config = small_config(selector="custom", custom_bound=Fraction(7, 5), remainder="graph", d=3,
                          k_values=(1, 2), n_values=(5, 6), allow_parallel=True, max_rejections=7)
    assert list(config.to_json().items()) == [
        ("selector", "custom"), ("k_values", [1, 2]), ("n_values", [5, 6]), ("trials", 3),
        ("seed", 11), ("d", 3), ("custom_bound", "7/5"), ("remainder", "graph"),
        ("allow_parallel", True), ("max_rejections", 7),
    ]
    assert list(small_config().to_json().items()) == [
        ("selector", "theorem5"), ("k_values", [1]), ("n_values", [6]), ("trials", 3),
        ("seed", 11), ("d", None), ("custom_bound", None), ("remainder", "matching"),
        ("allow_parallel", False), ("max_rejections", 10000),
    ]


@pytest.mark.parametrize("selector,needs", [
    ("theorem5", {}),
    ("theorem2i", {}),
    ("theorem2ii", {}),
    ("conjecture", {"d": 2}),
    ("custom", {"custom_bound": Fraction(3, 2)}),
    ("custom", {"custom_bound": Fraction(3, 2), "remainder": "forest", "d": 2}),
])
def test_config_records_the_remainder_every_row_reads(selector, needs):
    config = small_config(selector=selector, n_values=(5, 6), trials=1, **needs)
    _, payload = emit_report(config, run_experiment(config))
    recorded = (payload["config"]["remainder"], payload["config"]["d"])
    assert [(row["remainder"], row["d"]) for row in payload["rows"]] == [recorded] * 2


# (selector, the settings it needs, one setting it does not read)
UNREAD = [
    (selector, {}, unread)
    for selector in ("theorem5", "theorem2i", "theorem2ii")
    for unread in ({"d": 1}, {"custom_bound": Fraction(3, 2)}, {"remainder": "forest"})
] + [
    ("conjecture", {"d": 1}, {"custom_bound": Fraction(3, 2)}),
    ("conjecture", {"d": 1}, {"remainder": "graph"}),
    ("custom", {"custom_bound": Fraction(3, 2)}, {"d": 1}),
    ("custom", {"custom_bound": Fraction(3, 2), "remainder": "matching"}, {"d": 2}),
]
FLAGS = {"d": "--d", "custom_bound": "--bound", "remainder": "--remainder"}


@pytest.mark.parametrize("selector,needs,unread", UNREAD,
                         ids=[f"{s}-{next(iter(u))}" for s, _, u in UNREAD])
def test_a_setting_the_selector_does_not_read_is_refused(selector, needs, unread, capsys):
    (name, value), = unread.items()
    with pytest.raises(ValueError, match=f"does not read {name}"):
        small_config(selector=selector, **needs, **unread)
    argv = ["experiment", "--selector", selector, "--n-range", "5", "--seed", "0", "--trials", "1"]
    for key, val in {**needs, **unread}.items():
        argv += [FLAGS[key], str(val)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"does not read {name}" in err


def test_every_cell_is_checked_before_any_draw(monkeypatch, capsys):
    # theorem5 at k = 2 asks for 2 edges on 2 vertices; the k = 1 cells
    # must not run first
    draws = []
    monkeypatch.setattr(experiment, "generate", lambda spec: draws.append(spec))
    with pytest.raises(ValueError, match="2 edges do not fit in a simple graph on 2 vertices"):
        small_config(k_values=(1, 2), n_values=(2,))
    argv = ["experiment", "--selector", "theorem5", "--k-range", "1:2", "--n-range", "2:10",
            "--trials", "1", "--seed", "0"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "2 edges do not fit" in err
    assert draws == []
