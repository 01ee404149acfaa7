"""Batch harness and CLI tests: seeding, grids, CSV emission, audit replay."""

import concurrent.futures
import io
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rendezsim.cli as cli
import rendezsim.engine as engine
import rendezsim.experiments as experiments
from rendezsim.cli import main
from rendezsim.engine import DEFAULT_MAX_SLOTS, IncompleteRun, RunConfig, RunSummary
from rendezsim.experiments import (
    AGGREGATE_COLUMNS,
    RUN_COLUMNS,
    GridResult,
    ScenarioGrid,
    aggregate_csv,
    aggregate_row,
    derive_seed,
    paper_grid,
    parse_grid_config,
    read_run_row,
    run_grid,
    run_row,
    runs_csv,
)
from rendezsim.hopping import PROTOCOLS
from rendezsim.metrics import aggregate
from rendezsim.pr_activity import PrParams
from rendezsim.topology import DeploymentError

SMALL_GRID = ScenarioGrid(
    name="small", protocols=("mrdmca", "mdmca"), terminations=("controlled",),
    n_values=(3,), c_values=(10,), m_values=(5,), pr_levels=("off",),
    runs=4, master_seed=7,
)
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each ProcessPoolExecutor made; the pools start nothing."""
    sizes = []

    class RecordingPool:
        """ProcessPoolExecutor stand-in that records its size and runs in process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def _text(write_csv, result):
    """What write_csv (runs_csv or aggregate_csv) writes for result, as one string."""
    out = io.StringIO()
    write_csv(result, out)
    return out.getvalue()


def _runs(result):
    """(grid name, run_index, RunConfig, RunSummary or None) of each row of result."""
    for (g, cell_index), cell_cfg, summaries in result.runs:
        grid = result.grids[g]
        for run_index, summary in enumerate(summaries):
            seeds = experiments._run_seeds(grid, cell_index, cell_cfg, run_index)
            yield grid.name, run_index, experiments._seeded(cell_cfg, seeds), summary


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed(1, "a", 2) != derive_seed(2, "a", 2)
    assert 0 <= derive_seed(0) < 2 ** 63


def test_grid_cells_enumerate_the_product():
    grid = ScenarioGrid(name="g", protocols=("rcs", "mca"),
                        terminations=("baseline",), n_values=(3, 10),
                        c_values=(10,), m_values=(2, 5),
                        pr_levels=("off", "high"), runs=1)
    cells = list(grid.cells())
    assert len(cells) == 2 * 2 * 2 * 2
    assert [i for i, _ in cells] == list(range(16))
    protos = {cfg.protocol for _, cfg in cells}
    assert protos == {"rcs", "mca"}


def test_worker_count_does_not_change_results():
    serial = run_grid(SMALL_GRID, workers=1)
    parallel = run_grid(SMALL_GRID, workers=3)
    assert _text(aggregate_csv, serial) == _text(aggregate_csv, parallel)
    assert _text(runs_csv, serial) == _text(runs_csv, parallel)


def test_worker_pool_never_outnumbers_the_runs(pool_sizes):
    grid = SMALL_GRID._replace(runs=1)              # two cells, one run each
    result = run_grid(grid, workers=16)
    assert pool_sizes == [2]
    assert _text(runs_csv, result) == _text(runs_csv, run_grid(grid))
    run_grid(grid, workers=16, trace=io.StringIO())  # one run left: no pool
    assert pool_sizes == [2]


def test_a_two_grid_sweep_on_two_workers_leaves_no_worker_behind():
    b = SMALL_GRID._replace(protocols=("rcs",))
    result = run_grid(SMALL_GRID, b, workers=2)
    assert multiprocessing.active_children() == []
    assert _text(runs_csv, result) == _text(runs_csv, run_grid(SMALL_GRID, b))


class _Boom(Exception):
    pass


def _raise_boom(*args, **kwargs):
    raise _Boom


@pytest.mark.parametrize("failing", ["traced run capped", "work list", "worker run"])
def test_a_sweep_that_raises_leaves_no_worker_behind(failing, monkeypatch):
    if failing == "traced run capped":  # a real cap: no N=3 run finishes in one slot
        with pytest.raises(IncompleteRun):
            run_grid(SMALL_GRID._replace(max_slots=1), workers=2, trace=io.StringIO())
    else:  # the forked workers inherit a patched run_once
        monkeypatch.setattr(experiments, "_units" if failing == "work list"
                            else "run_once", _raise_boom)
        with pytest.raises(_Boom):
            run_grid(SMALL_GRID, workers=2)
    assert multiprocessing.active_children() == []


def test_runs_csv_hands_the_file_one_row_per_write():
    class Recording:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    result = run_grid(SMALL_GRID)
    out = Recording()
    runs_csv(result, out)
    header, *rows = out.writes
    assert header.endswith(",".join(RUN_COLUMNS) + "\n") and header.count("\n") == 6
    assert rows == [",".join(run_row(*run)) + "\n" for run in _runs(result)]
    assert "".join(out.writes) == _text(runs_csv, result)


def test_one_sweep_over_sub_grids_gives_the_rows_of_each_run_alone():
    a = SMALL_GRID
    b = SMALL_GRID._replace(protocols=("rcs",), terminations=("baseline", "run_to_full"),
                            runs=3, fix_topology=True)
    alone = [run_grid(a), run_grid(b)]
    for both in (run_grid(a, b), run_grid(a, b, workers=2)):
        for csv in (runs_csv, aggregate_csv):
            assert _rows(_text(csv, both)) == (_rows(_text(csv, alone[0]))
                                               + _rows(_text(csv, alone[1])))
        for text in (_text(runs_csv, both), _text(aggregate_csv, both)):
            assert f"# grid small hash={a.grid_hash()}+{b.grid_hash()} master_seed=7\n" in text


def test_a_sweep_result_holds_numbers(monkeypatch):
    real = experiments.run_once

    def capped(cfg, trace=None):  # every mca run and the odd seeds hit the cap
        if cfg.protocol == "mca" or cfg.seed % 2:
            raise IncompleteRun("safety cap reached")
        return real(cfg, trace=trace)

    monkeypatch.setattr(experiments, "run_once", capped)
    a = SMALL_GRID._replace(protocols=("rcs", "mca", "mrdmca"))
    b = SMALL_GRID._replace(protocols=("mdmca",), terminations=("baseline", "run_to_full"),
                            fix_topology=True)
    result = run_grid(a, b)
    assert GridResult._fields == ("grids", "runs", "cells", "incomplete")
    assert result.grids == (a, b)
    assert [key for key, *_ in result.runs] == [
        (g, cell) for g, grid in enumerate((a, b)) for cell in range(len(list(grid.cells())))]
    assert [len(summaries) for *_, summaries in result.runs] == [4] * len(result.runs)
    assert [cfg for _, cfg, _ in result.runs] == [cfg for grid in (a, b) for _, cfg in grid.cells()]
    every = [s for *_, summaries in result.runs for s in summaries]
    assert all(isinstance(s, RunSummary) or s is None for s in every)
    assert result.incomplete == every.count(None)
    by_cell = {key: (cfg, summaries) for key, cfg, summaries in result.runs}
    assert 0 < result.incomplete < len(every) and len(result.cells) < len(by_cell)
    assert result.cells == [
        (g, cfg, aggregate([s for s in summaries if s is not None]))
        for (g, _), (cfg, summaries) in by_cell.items() if any(s is not None for s in summaries)]
    for csv, columns, rows in (
            (runs_csv, RUN_COLUMNS, [run_row(*run) for run in _runs(result)]),
            (aggregate_csv, AGGREGATE_COLUMNS, [aggregate_row(result.grids[g].name, cfg, agg)
                                                for g, cfg, agg in result.cells])):
        lines = _text(csv, result).splitlines()
        at = lines.index(",".join(columns))
        assert lines[at + 1:] == [",".join(row) for row in rows]
    # each row's seeds are the ones its run ran with
    ran = []
    monkeypatch.setattr(experiments, "run_once", lambda cfg: ran.append(cfg) or real(cfg))
    run_grid(a, b)
    assert len(ran) == len(every) and set(ran) == {cfg for _, _, cfg, _ in _runs(result)}


def test_paper_baseline_runs_both_sub_grids_in_one_pool(tmp_path, pool_sizes):
    assert main(["paper", "baseline", "--runs", "1", "--workers", "2",
                 "--out", str(tmp_path / "agg.csv")]) == 0
    assert pool_sizes == [2]


def test_worker_count_does_not_change_results_under_fixed_topology():
    # fix_topology reorders the work items, and each worker result is paired
    # with its item by position only
    grid = ScenarioGrid(name="pool", protocols=("rcs", "mrdmca"),
                        terminations=("baseline", "controlled"), n_values=(3, 5),
                        c_values=(10,), m_values=(5,), pr_levels=("off",),
                        runs=5, master_seed=2, fix_topology=True)
    serial = run_grid(grid, workers=1)
    parallel = run_grid(grid, workers=2)
    assert _text(runs_csv, parallel) == _text(runs_csv, serial)
    assert _text(aggregate_csv, parallel) == _text(aggregate_csv, serial)


def _loaded_by_importing_the_cli(*modules):
    """Which of modules a fresh interpreter holds after `import rendezsim.cli`."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rendezsim.cli; "
         f"print(sorted(m for m in {modules!r} if m in sys.modules))"],
        capture_output=True, text=True, check=True)
    return proc.stdout


def test_importing_the_cli_loads_no_process_pool():
    assert _loaded_by_importing_the_cli("concurrent.futures", "multiprocessing") == "[]\n"


def test_importing_the_cli_loads_no_dataclasses():
    # dataclasses imports inspect, ast and dis: about 1 MB in every process
    assert _loaded_by_importing_the_cli("dataclasses", "inspect") == "[]\n"


def test_sweep_workers_never_derive_seeds(monkeypatch):
    parent, real = os.getpid(), experiments.derive_seed

    def in_the_parent_only(*args):
        if os.getpid() != parent:
            raise AssertionError("a sweep worker derived a seed")
        return real(*args)

    fixed = ScenarioGrid(name="fixed", protocols=("rcs", "mrdmca"),
                         terminations=("baseline", "controlled"), n_values=(3, 5),
                         c_values=(10,), m_values=(5,), pr_levels=("off",),
                         runs=5, master_seed=2, fix_topology=True)
    for grid in (SMALL_GRID, fixed):
        serial = run_grid(grid)
        with monkeypatch.context() as patched:
            patched.setattr(experiments, "derive_seed", in_the_parent_only)
            parallel = run_grid(grid, workers=2)
        for csv in (runs_csv, aggregate_csv):
            assert _text(csv, parallel) == _text(csv, serial)


@pytest.mark.parametrize("termination", ["baseline", "controlled", "run_to_full"])
def test_run_summaries_give_the_rows_and_aggregates_of_their_records(termination):
    cfgs = [RunConfig(protocol="mdmca", termination=termination, n_nodes=5, pool_size=10,
                      similarity=2, pr=PrParams.off(), seed=seed) for seed in range(6)]
    summaries = [engine.run_once(cfg).summary() for cfg in cfgs]
    assert (aggregate(summaries).attr_policy is None) == (termination == "run_to_full")


def test_a_worker_result_does_not_grow_with_the_network():
    sizes = []
    for n, c in ((3, 10), (20, 20)):
        cfgs = [RunConfig(protocol="mdmca", termination="controlled", n_nodes=n, pool_size=c,
                          similarity=2, pr=PrParams.off(), seed=seed) for seed in range(16)]
        unit = ((0, (0,), 0), (cfgs[0],), [(cfg.seed, None, None) for cfg in cfgs])
        key, results = experiments._execute(unit)
        assert key == (0, (0,), 0)
        assert None not in results and not hasattr(results[0], "final_dnl")
        assert results[0] == engine.run_once(cfgs[0]).summary()
        # a worker sends back a unit's results, up to 16, in one list, which
        # names the RunSummary class once; pickled alone, each summary names it
        sizes.append(len(pickle.dumps(results)) / len(results))
    assert abs(sizes[0] - sizes[1]) <= 4
    assert max(sizes) <= 64                      # a few dozen bytes per run


def test_fixed_topology_shares_deployments_across_cells():
    grid = ScenarioGrid(name="fix", protocols=("rcs", "mrdmca"),
                        terminations=("controlled",), n_values=(3,),
                        c_values=(10,), m_values=(5,), pr_levels=("off",),
                        runs=3, master_seed=1, fix_topology=True)
    result = run_grid(grid)
    # each run's config carries the deployment/channel seeds; run k of the rcs
    # cell must reuse run k's seeds from the mrdmca cell
    cfgs = [cfg for _, _, cfg, _ in _runs(result)]
    for k in range(3):
        for field in ("topo_seed", "chan_seed"):
            assert getattr(cfgs[k], field) == getattr(cfgs[3 + k], field)
            assert getattr(cfgs[k], field) is not None


def test_fixed_topology_deploys_once_per_network_size_and_run(monkeypatch):
    grid = ScenarioGrid(name="once", protocols=PROTOCOLS,
                        terminations=("controlled",), n_values=(3, 10),
                        c_values=(10,), m_values=(5,), pr_levels=("off",),
                        runs=3, master_seed=5, fix_topology=True)
    calls = []
    real = engine.deploy

    def counting(*args):
        calls.append(args)
        return real(*args)

    engine._deployment.cache_clear()
    monkeypatch.setattr(engine, "deploy", counting)
    result = run_grid(grid)
    assert len(calls) == 2 * 3                  # not once per cell (30)
    assert len(set(calls)) == 6
    # the same runs as running the items in (cell, run) order, each freshly
    # deployed
    unordered = []
    for cell_index, cfg in grid.cells():
        summaries = []
        for run_index in range(grid.runs):
            engine._deployment.cache_clear()
            seeds = experiments._run_seeds(grid, cell_index, cfg, run_index)
            summaries.append(engine.run_once(experiments._seeded(cfg, seeds)).summary())
        unordered.append(((0, cell_index), cfg, summaries))
    assert result.runs == unordered
    assert len(calls) == 6 + 30

    calls.clear()
    run_grid(grid._replace(fix_topology=False))
    assert len(calls) == 30                     # every run deploys its own


def test_csv_shape_and_metadata():
    text = _text(aggregate_csv, run_grid(SMALL_GRID))
    lines = text.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert any("master_seed=7" in l for l in meta)
    assert body[0].startswith("scenario,protocol,termination,N,C,m,pr,runs,")
    assert len(body) == 1 + 2  # header + one row per cell


def test_paper_grids_are_wired():
    baseline = paper_grid("baseline", runs=2)
    assert len(baseline) == 2
    assert baseline[0].protocols == ("rcs", "mca", "emca", "mdmca")
    assert baseline[1].protocols == ("mrdmca",)
    assert baseline[1].terminations == ("controlled",)
    (scale,) = paper_grid("scale", runs=2)
    assert scale.n_values == (20,) and scale.c_values == (20,)
    with pytest.raises(ValueError):
        paper_grid("imaginary")
    # every field of every grid, as each was once spelled out in full
    hashes = {name: [g.grid_hash() for g in paper_grid(name, runs=None, master_seed=0)]
              for name in ("baseline", "controlled", "scale")}
    assert hashes == {"baseline": ["2492f8253a0dd764", "04e426ed4e2da716"],
                      "controlled": ["8912a093483302ed"], "scale": ["c374d35823ac24ce"]}


def test_parse_grid_config_roundtrip():
    text = """
    # comment
    name = demo
    protocols = rcs, mrdmca
    terminations = controlled
    nodes = 3, 10
    channels = 10
    similarity = 2, 5
    pr = off, high
    runs = 7
    seed = 3
    fix_topology = true
    """
    grid = parse_grid_config(text)
    assert grid.name == "demo"
    assert grid.protocols == ("rcs", "mrdmca")
    assert grid.n_values == (3, 10)
    assert grid.runs == 7 and grid.master_seed == 3
    assert grid.fix_topology


GRID_TEXT = ("protocols = mrdmca\nterminations = controlled\nnodes = 3\n"
             "channels = 10\nsimilarity = 5\npr = off\nruns = 1\n")


def test_parse_grid_config_errors():
    with pytest.raises(ValueError):
        parse_grid_config("protocols = rcs")  # missing keys
    with pytest.raises(ValueError):
        parse_grid_config("nonsense line")
    with pytest.raises(ValueError):
        parse_grid_config("colour = blue")
    # the range is a fixed 100 m, not a grid setting
    with pytest.raises(ValueError, match="unknown key 'range'"):
        parse_grid_config("range = 150")
    # a misspelt flag used to read as false, and a repeated key kept the last
    with pytest.raises(ValueError, match=r"line 8: fix_topology: expected 1/true/yes"):
        parse_grid_config(GRID_TEXT + "fix_topology = ture\n")
    with pytest.raises(ValueError, match="line 8: repeated key 'runs'"):
        parse_grid_config(GRID_TEXT + "runs = 5\n")
    with pytest.raises(ValueError, match="line 7: runs: invalid literal"):
        parse_grid_config(GRID_TEXT.replace("runs = 1", "runs = many"))
    # the name is the first cell of every per-run row
    for name in ("x,y", "#x"):
        with pytest.raises(ValueError, match="line 8: name: must not contain a comma"):
            parse_grid_config(GRID_TEXT + f"name = {name}\n")
    for word, flag in (("YES", True), ("1", True), ("No", False), ("false", False)):
        assert parse_grid_config(GRID_TEXT + f"fix_topology = {word}\n").fix_topology is flag


def test_config_keys_name_every_grid_field_once():
    named = [field for field, *_ in experiments._CONFIG_KEYS.values()]
    assert sorted(named) == sorted(ScenarioGrid._fields)
    # the seven required keys alone take every other value from ScenarioGrid
    assert parse_grid_config(GRID_TEXT) == ScenarioGrid(
        name="sweep", protocols=("mrdmca",), terminations=("controlled",),
        n_values=(3,), c_values=(10,), m_values=(5,), pr_levels=("off",), runs=1)
    with pytest.raises(ValueError, match=r"^missing keys: \['channels', 'nodes', 'pr', "
                                         r"'runs', 'similarity', 'terminations'\]$"):
        parse_grid_config("protocols = rcs")


def test_a_cell_without_a_completed_run_gets_no_aggregate_row(monkeypatch):
    real = experiments.run_once

    def capped(cfg, trace=None):
        if cfg.protocol == "mca":
            raise IncompleteRun("safety cap reached")
        return real(cfg, trace=trace)

    monkeypatch.setattr(experiments, "run_once", capped)
    result = run_grid(SMALL_GRID._replace(protocols=("rcs", "mca", "mrdmca"), runs=3))
    assert [cfg.protocol for _, cfg, _ in result.cells] == ["rcs", "mrdmca"]
    aggregate_rows, run_rows = _rows(_text(aggregate_csv, result)), _rows(_text(runs_csv, result))
    assert [row.split(",")[1] for row in aggregate_rows] == ["rcs", "mrdmca"]
    assert [(row.split(",")[1], row.split(",")[-1]) for row in run_rows] == (
        [("rcs", "yes")] * 3 + [("mca", "incomplete")] * 3 + [("mrdmca", "yes")] * 3)
    assert result.incomplete == 3


# --- CLI end to end ---------------------------------------------------------

RUN_ARGS = ["run", "--protocol", "mrdmca", "--termination", "controlled",
            "--nodes", "3", "--channels", "10", "--similarity", "5",
            "--pr", "off", "--runs", "5", "--seed", "11"]


def test_cli_run_writes_aggregate_and_run_csvs(tmp_path):
    out = tmp_path / "agg.csv"
    runs_out = tmp_path / "runs.csv"
    rc = main(RUN_ARGS + ["--out", str(out), "--runs-out", str(runs_out)])
    assert rc == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = body[0].split(",")
    row = dict(zip(header, body[1].split(",")))
    assert row["protocol"] == "mrdmca" and row["runs"] == "5"
    assert row["atm"] == "100.0000"
    run_body = [l for l in runs_out.read_text().splitlines()
                if not l.startswith("#")]
    assert len(run_body) == 1 + 5


def test_cli_output_is_byte_identical_across_invocations_and_workers(tmp_path):
    # the last invocation is traced on two workers, which start after the
    # traced unit has run in the sweep process
    trace = tmp_path / "trace.txt"
    extra = [[], [], ["--workers", "3"], ["--workers", "2", "--trace", str(trace)]]
    outs, runs = [], []
    for i, args in enumerate(extra):
        outs.append(tmp_path / f"out{i}.csv")
        runs.append(tmp_path / f"runs{i}.csv")
        main(RUN_ARGS + args + ["--out", str(outs[-1]), "--runs-out", str(runs[-1])])
    assert len({p.read_bytes() for p in outs}) == 1
    assert len({p.read_bytes() for p in runs}) == 1
    assert " select " in trace.read_text()


def test_cli_audit_accepts_its_own_runs(tmp_path, capsys):
    runs_out = tmp_path / "runs.csv"
    main(RUN_ARGS + ["--runs-out", str(runs_out), "--out", str(tmp_path / "a.csv")])
    rc = main(["audit", str(runs_out)])
    assert rc == 0
    assert "0 mismatch(es)" in capsys.readouterr().out


def test_cli_audit_detects_tampering(tmp_path, capsys):
    runs_out = tmp_path / "runs.csv"
    main(RUN_ARGS + ["--runs-out", str(runs_out), "--out", str(tmp_path / "a.csv")])
    lines = runs_out.read_text().splitlines()
    # corrupt the ctm field of the first data row
    header_at = next(i for i, l in enumerate(lines) if l.startswith("scenario"))
    row = lines[header_at + 1].split(",")
    row[-2] = "3.1415"
    lines[header_at + 1] = ",".join(row)
    runs_out.write_text("\n".join(lines) + "\n")
    assert main(["audit", str(runs_out)]) == 1


def test_cli_sweep_matches_config(tmp_path):
    cfg = tmp_path / "grid.txt"
    cfg.write_text(
        "protocols = mrdmca\nterminations = controlled\nnodes = 3\n"
        "channels = 10\nsimilarity = 5\npr = off\nruns = 3\nseed = 5\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(cfg), "--workers", "2",
                 "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_paper_smoke_grid(tmp_path):
    out = tmp_path / "paper.csv"
    rc = main(["paper", "baseline", "--runs", "2", "--out", str(out)])
    assert rc == 0
    body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    # 4 baseline protocols + mrdmca, over N x m x pr = 8 cells each
    assert len(body) == 1 + 5 * 8


def test_cli_paper_counts_capped_runs_of_both_sub_grids(tmp_path, monkeypatch):
    real = experiments.run_once

    def capped(cfg, trace=None):
        # one cell of each sub-grid: rcs under baseline stop, mrdmca controlled
        if (cfg.protocol in ("rcs", "mrdmca") and cfg.n_nodes == 3
                and cfg.similarity == 2 and cfg.pr.name == "off"):
            raise IncompleteRun("safety cap reached")
        return real(cfg, trace=trace)

    monkeypatch.setattr(experiments, "run_once", capped)
    out, runs_out = tmp_path / "paper.csv", tmp_path / "runs.csv"
    assert main(["paper", "baseline", "--runs", "1", "--out", str(out),
                 "--runs-out", str(runs_out)]) == 0
    for path in (out, runs_out):
        assert "# incomplete_runs=2 (" in path.read_text()
    flagged = [l for l in runs_out.read_text().splitlines() if l.endswith(",incomplete")]
    assert [l.split(",")[1] for l in flagged] == ["rcs", "mrdmca"]


def test_paper_baseline_header_names_the_hash_of_both_sub_grids(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "run_once", _raise(IncompleteRun("safety cap reached")))
    out, runs_out = tmp_path / "paper.csv", tmp_path / "runs.csv"
    assert main(["paper", "baseline", "--runs", "1", "--out", str(out),
                 "--runs-out", str(runs_out)]) == 0
    first, second = (g.grid_hash() for g in paper_grid("baseline", runs=1))
    for path in (out, runs_out):
        assert f"# grid baseline hash={first}+{second} master_seed=0\n" in path.read_text()


def test_cli_rejects_bad_input(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path / "missing.txt")])
    assert rc == 2
    assert "rendezsim:" in capsys.readouterr().err


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_cli_reports_an_infeasible_deployment_in_one_line(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "grid.txt"
    cfg.write_text(
        "protocols = mrdmca\nterminations = controlled\nnodes = 80\n"
        "channels = 10\nsimilarity = 5\npr = off\nruns = 1\n")
    monkeypatch.setattr(cli, "run_grid", _raise(DeploymentError("no connected placement")))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert _one_error_line(capsys) == "rendezsim: no connected placement\n"


def test_cli_reports_a_capped_traced_run_in_one_line(tmp_path, monkeypatch, capsys):
    real = experiments.run_once

    def capped_when_traced(cfg, trace=None):
        if trace is not None:
            raise IncompleteRun("safety cap reached")
        return real(cfg)

    monkeypatch.setattr(experiments, "run_once", capped_when_traced)
    assert main(RUN_ARGS + ["--trace", str(tmp_path / "trace.txt")]) == 2
    assert _one_error_line(capsys) == "rendezsim: safety cap reached\n"


def test_cli_traces_the_first_replication_inside_the_written_run(tmp_path, monkeypatch):
    calls = []
    real = experiments.run_once

    def counting(cfg, trace=None):
        calls.append((cfg.seed, trace is not None))
        return real(cfg, trace=trace)

    monkeypatch.setattr(experiments, "run_once", counting)
    trace = tmp_path / "t.txt"
    runs_out = tmp_path / "runs.csv"
    assert main(_with(RUN_ARGS, "--runs", "2") + [
        "--trace", str(trace), "--runs-out", str(runs_out),
        "--out", str(tmp_path / "agg.csv")]) == 0
    assert len(calls) == 2
    body = [l.split(",") for l in runs_out.read_text().splitlines()
            if not l.startswith("#")]
    seeds = dict(zip((row[7] for row in body[1:]), (int(row[8]) for row in body[1:])))
    assert calls[0] == (seeds["0"], True)   # run 0 is the traced one
    assert calls[1] == (seeds["1"], False)
    assert " select " in trace.read_text()


def test_cli_leaves_the_trace_path_as_it_was_when_it_fails_before_any_run(
        tmp_path, monkeypatch, capsys):
    kept, new = tmp_path / "kept.txt", tmp_path / "new.txt"
    kept.write_text("an earlier trace\n")

    def fails(args):
        for trace in (kept, new):
            assert main(args + ["--trace", str(trace)]) == 2
            _one_error_line(capsys)

    fails(RUN_ARGS + ["--workers", "0"])
    fails(RUN_ARGS + ["--out", str(tmp_path / "no" / "agg.csv")])
    fails(_with(RUN_ARGS, "--similarity", "11"))
    # the traced replication itself fails before writing its first line
    monkeypatch.setattr(engine, "_deployment", _raise(DeploymentError("no placement")))
    fails(RUN_ARGS)
    assert kept.read_text() == "an earlier trace\n"
    assert not new.exists()


def _with(args, flag, value):
    args = list(args)
    args[args.index(flag) + 1] = value
    return args


def test_cli_rejects_non_finite_pr_rates_in_one_line(tmp_path, capsys):
    out = tmp_path / "agg.csv"
    for level in ("nan:1", "inf:1", "1e308:1e308", "1001:1"):
        assert main(_with(RUN_ARGS, "--pr", level) + ["--out", str(out)]) == 2
        assert "PR rates must be finite" in _one_error_line(capsys)
    assert not out.exists()


def test_cli_refuses_a_pr_level_at_which_no_run_can_finish(tmp_path, capsys):
    # C·2·max_slots·(1 - u)·exp(-lambda_x / 2) idle (channel, half-slot)
    # options are expected before the cap: 2.2e-38 at 200:300 and 3.6e-212 at
    # 1000:1000 for C=10 over 50 000 slots, where every run would burn the cap
    out = tmp_path / "agg.csv"
    for level in ("200:300", "1000:1000"):
        assert main(_with(RUN_ARGS, "--pr", level) + ["--out", str(out)]) == 2
        err = _one_error_line(capsys)
        assert err.startswith(f"rendezsim: cell mrdmca controlled N=3 C=10 m=5 pr={level}: ")
        assert err.endswith(" no run can finish\n")
    assert not out.exists()
    assert main(_with(RUN_ARGS, "--pr", "0.5:300") + ["--out", str(out)]) == 0


def test_cli_refuses_one_channel_cells_of_three_or_more_nodes(tmp_path, capsys):
    # with C=1 every node always sits on channel 1, and every edge of a
    # connected graph of 3 or more nodes has an end with a second neighbour:
    # every meeting pair collides, under any protocol, termination or PR
    out = tmp_path / "agg.csv"
    one_channel = _with(_with(RUN_ARGS, "--channels", "1"), "--similarity", "1")
    for protocol, nodes, level in (("mrdmca", "3", "off"), ("rcs", "10", "high")):
        args = _with(_with(_with(one_channel, "--protocol", protocol), "--nodes", nodes),
                     "--pr", level)
        assert main(args + ["--out", str(out)]) == 2
        err = _one_error_line(capsys)
        assert err.startswith(f"rendezsim: cell {protocol} controlled N={nodes} C=1 m=1 "
                              f"pr={level}: ")
        assert err.endswith(" no run can finish\n")
    assert not out.exists()
    # a lone pair on one channel meets every half-slot and handshakes at once
    assert main(_with(one_channel, "--nodes", "2") + ["--out", str(out)]) == 0
    assert out.exists()


def test_cli_rejects_malformed_pr_rates_and_grid_lines_in_one_line(tmp_path, capsys):
    out = tmp_path / "agg.csv"
    for level in ("1:2:3", ":", "a:b"):
        assert main(_with(RUN_ARGS, "--pr", level) + ["--out", str(out)]) == 2
        assert "lambda_x:lambda_y" in _one_error_line(capsys)
    cfg = tmp_path / "grid.txt"
    for extra, error in (("fix_topology = ture", "line 8: fix_topology: expected"),
                         ("runs = 5", "line 8: repeated key 'runs'"),
                         ("name = x,y", "line 8: name: must not contain a comma")):
        cfg.write_text(GRID_TEXT + extra + "\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert _one_error_line(capsys).startswith(f"rendezsim: {error}")
    assert not out.exists()


def test_cli_rejects_workers_below_one_in_one_line(tmp_path, capsys):
    out = tmp_path / "agg.csv"
    for command in (RUN_ARGS, ["paper", "scale", "--runs", "1"]):
        for workers in ("0", "-2"):
            assert main(command + ["--workers", workers, "--out", str(out)]) == 2
            assert _one_error_line(capsys) == (
                f"rendezsim: workers must be at least 1, got {workers}\n")
    assert not out.exists()


def test_cli_rejects_runs_below_one_in_one_line(tmp_path, capsys):
    out = tmp_path / "agg.csv"
    for runs in ("0", "-2"):
        assert main(_with(RUN_ARGS, "--runs", runs) + ["--out", str(out)]) == 2
        assert _one_error_line(capsys) == f"rendezsim: runs must be at least 1, got {runs}\n"
    cfg = tmp_path / "grid.txt"
    cfg.write_text(
        "protocols = mrdmca\nterminations = controlled\nnodes = 3\n"
        "channels = 10\nsimilarity = 5\npr = off\nruns = 0\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "rendezsim: runs must be at least 1, got 0\n"
    assert not out.exists()


def test_cli_rejects_fewer_than_two_nodes_in_one_line(tmp_path, capsys):
    out = tmp_path / "agg.csv"
    for nodes in ("1", "-3"):
        assert main(_with(RUN_ARGS, "--nodes", nodes) + ["--out", str(out)]) == 2
        assert _one_error_line(capsys) == f"rendezsim: need at least 2 nodes, got {nodes}\n"
    cfg = tmp_path / "grid.txt"
    cfg.write_text(
        "protocols = mrdmca\nterminations = controlled\nnodes = -3\n"
        "channels = 10\nsimilarity = 5\npr = off\nruns = 2\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "rendezsim: need at least 2 nodes, got -3\n"
    assert not out.exists()


def test_cli_rejects_a_bad_similarity_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "run_once", _raise(AssertionError("a replication ran")))
    out = tmp_path / "agg.csv"
    cfg = tmp_path / "grid.txt"
    cfg.write_text(
        "protocols = mrdmca\nterminations = controlled\nnodes = 3\n"
        "channels = 10\nsimilarity = 2, 11\npr = off\nruns = 2\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "rendezsim: similarity must be in [1, 10], got 11\n"
    assert not out.exists()


def test_cli_rejects_an_unwritable_output_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "run_once", _raise(AssertionError("a replication ran")))
    cfg = tmp_path / "grid.txt"
    cfg.write_text(GRID_TEXT)
    out, missing = tmp_path / "agg.csv", tmp_path / "no" / "such.csv"
    for command in (RUN_ARGS, ["sweep", "--config", str(cfg)], ["paper", "scale", "--runs", "1"]):
        assert main(command + ["--out", str(missing)]) == 2
        assert _one_error_line(capsys) == (
            f"rendezsim: [Errno 2] No such file or directory: '{missing}'\n")
        assert main(command + ["--out", str(out), "--runs-out", str(tmp_path)]) == 2
        assert _one_error_line(capsys) == f"rendezsim: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert not out.exists()


def test_cli_rejects_two_flags_naming_one_file_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "run_once", _raise(AssertionError("a replication ran")))
    monkeypatch.chdir(tmp_path)
    files = {"grid.txt": GRID_TEXT, "dup.csv": "an earlier aggregate\n", "t.csv": "a trace\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "link.csv").symlink_to("dup.csv")
    for args, flags, path in (
            (RUN_ARGS + ["--out", "./dup.csv", "--runs-out", "dup.csv"], "--out and --runs-out",
             "dup.csv"),
            (RUN_ARGS + ["--out", str(tmp_path / "dup.csv"), "--runs-out", "link.csv"],
             "--out and --runs-out", "link.csv"),
            (RUN_ARGS + ["--trace", "t.csv", "--out", "t.csv"], "--trace and --out", "t.csv"),
            (["sweep", "--config", "grid.txt", "--out", "grid.txt"], "--config and --out",
             "grid.txt")):
        assert main(args) == 2
        assert _one_error_line(capsys) == f"rendezsim: {flags} name one file: {path}\n"
    # no file was made, and each kept its text (the link reads dup.csv's)
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
        **files, "link.csv": files["dup.csv"]}


def test_cli_rejects_fewer_than_one_channel_in_one_line(tmp_path, capsys):
    out = tmp_path / "agg.csv"
    for channels in ("0", "-4"):
        args = _with(_with(RUN_ARGS, "--channels", channels), "--similarity", "1")
        assert main(args + ["--out", str(out)]) == 2
        assert _one_error_line(capsys) == f"rendezsim: need at least 1 channel, got {channels}\n"
    cfg = tmp_path / "grid.txt"
    cfg.write_text(
        "protocols = mrdmca\nterminations = controlled\nnodes = 3\n"
        "channels = 0\nsimilarity = 1\npr = off\nruns = 2\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert _one_error_line(capsys) == "rendezsim: need at least 1 channel, got 0\n"
    assert not out.exists()


def test_cli_audit_counts_a_capped_replay_as_a_mismatch(tmp_path, monkeypatch, capsys):
    runs_out = tmp_path / "runs.csv"
    main(RUN_ARGS + ["--runs-out", str(runs_out), "--out", str(tmp_path / "a.csv")])
    capsys.readouterr()
    monkeypatch.setattr(cli, "run_once", _raise(IncompleteRun("safety cap reached")))
    assert main(["audit", str(runs_out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "audit: 5 runs replayed, 5 mismatch(es)\n"
    assert captured.err.count("safety cap reached") == 5
    assert "Traceback" not in captured.err


def test_cli_audit_rejects_a_file_without_header(tmp_path, capsys):
    for text in ("", "# comment only\n"):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        assert main(["audit", str(path)]) == 1
        assert "has no header row" in _one_error_line(capsys)


def test_cli_audit_rejects_a_short_row(tmp_path, capsys):
    runs_out = tmp_path / "runs.csv"
    main(RUN_ARGS + ["--runs-out", str(runs_out), "--out", str(tmp_path / "a.csv")])
    capsys.readouterr()
    text = runs_out.read_text()
    last = text.splitlines()[-1]
    for bad_row, error in (("run,rcs", "does not have 16 columns"),
                           (last.rsplit(",", 1)[0] + ",maybe",
                            "is neither completed (yes) nor incomplete")):
        runs_out.write_text(text + bad_row + "\n")
        assert main(["audit", str(runs_out)]) == 2
        assert error in _one_error_line(capsys)


def test_cli_audit_names_the_row_of_a_malformed_cell(tmp_path, capsys):
    runs_out = tmp_path / "runs.csv"
    main(RUN_ARGS + ["--runs-out", str(runs_out), "--out", str(tmp_path / "a.csv")])
    capsys.readouterr()
    text = runs_out.read_text()
    for column, cell, error in (
            ("topo_seed", "x", "invalid literal for int() with base 10: 'x'"),
            ("ttr_policy", "inf", "cannot convert float infinity to integer"),
            ("ttr_policy", "nan", "cannot convert float NaN to integer"),
            ("ttr_policy", "-1.0000", "max_slots must be positive, got -2")):
        cells = text.splitlines()[-1].split(",")
        cells[RUN_COLUMNS.index(column)] = cell
        bad_row = ",".join(cells)
        runs_out.write_text(text + bad_row + "\n")
        assert main(["audit", str(runs_out)]) == 2
        assert _one_error_line(capsys) == f"rendezsim: {runs_out}: row {bad_row!r}: {error}\n"


def _rows(text):
    """The data lines of a CSV's text: no metadata, no header."""
    return [l for l in text.splitlines() if not l.startswith("#")][1:]


def _body(path):
    return [l.split(",") for l in _rows(path.read_text())]


@pytest.mark.parametrize("runs_file", ["runs.csv", "runs20.csv"])
def test_read_run_row_reads_back_the_cells_run_row_wrote(runs_file):
    rows = _body(GOLDEN / runs_file)
    parsed = [read_run_row(cells) for cells in rows]
    assert [p is None for p in parsed] == [cells[-1] == "incomplete" for cells in rows]
    for cells, found in zip(rows, parsed):
        if found is not None:
            # scenario, the six scenario cells, run_index and the three seeds
            assert run_row(*found, None)[:11] == cells[:11]


def test_cli_audit_replays_each_row_at_the_cap_its_stop_mean_allows(
        tmp_path, monkeypatch, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text(GRID_TEXT.replace("terminations = controlled",
                                      "terminations = baseline, run_to_full")
                    + "max_slots = 1000000\n")
    runs_out = tmp_path / "runs.csv"
    assert main(["sweep", "--config", str(grid), "--out", str(tmp_path / "a.csv"),
                 "--runs-out", str(runs_out)]) == 0
    caps = []
    real = cli.run_once

    def spy(cfg):
        caps.append((cfg.seed, cfg.max_slots))
        return real(cfg)

    monkeypatch.setattr(cli, "run_once", spy)
    assert main(["audit", str(runs_out)]) == 0
    rows = [dict(zip(RUN_COLUMNS, cells)) for cells in _body(runs_out)]
    assert [row["ttr_policy"] == "" for row in rows] == [False, True]   # run_to_full
    assert caps == [(int(row["seed"]), math.ceil(3 * float(row["ttr_policy"] or row["ttr_full"])) + 1)
                    for row in rows]
    assert max(cap for _, cap in caps) < DEFAULT_MAX_SLOTS


def test_cli_audit_reports_a_forged_short_stop_as_a_capped_replay(tmp_path, capsys):
    runs_out = tmp_path / "runs.csv"
    main(RUN_ARGS + ["--runs-out", str(runs_out), "--out", str(tmp_path / "a.csv")])
    capsys.readouterr()
    lines = runs_out.read_text().splitlines()
    header_at = lines.index(",".join(RUN_COLUMNS))
    at = RUN_COLUMNS.index("ttr_policy")
    slowest = max(lines[header_at + 1:], key=lambda l: float(l.split(",")[at]))
    cells = slowest.split(",")
    assert float(cells[at]) > 3          # the run needed more than ceil(3 x 0.5) + 1 slots
    cells[at] = "0.5000"
    runs_out.write_text("\n".join(lines[:header_at + 1] + [",".join(cells)]) + "\n")
    assert main(["audit", str(runs_out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "audit: 1 runs replayed, 1 mismatch(es)\n"
    assert captured.err == (f"audit: run {cells[7]}: recorded as completed, replay stopped: "
                            f"safety cap of 3 slots reached with 3 node(s) unfinished "
                            f"(seed {cells[8]})\n")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rendezsim.cli"] + RUN_ARGS,
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "atm" in proc.stdout or "100.0000" in proc.stdout
