"""Scenario grids, deterministic batch replication, and the two CSVs, written and read back."""

import hashlib
import math
from collections import namedtuple
from contextlib import ExitStack
from itertools import chain, cycle, product
from operator import attrgetter

from .engine import RunConfig, run_once, IncompleteRun, DEFAULT_MAX_SLOTS, DEFAULT_RANGE_M
from .hopping import PROTOCOLS
from .metrics import AggregateMetrics, aggregate
from .pr_activity import PrParams

# the six scenario columns of both CSVs: column -> (RunConfig field, cell parser, writer)
_SCENARIO_COLUMNS = {
    "protocol": ("protocol", str, str), "termination": ("termination", str, str),
    "N": ("n_nodes", int, str), "C": ("pool_size", int, str), "m": ("similarity", int, str),
    "pr": ("pr", PrParams.from_name, attrgetter("name")),
}
RUN_COLUMNS = [
    "scenario", *_SCENARIO_COLUMNS, "run_index", "seed", "topo_seed", "chan_seed",
    "ttr_policy", "ttr_n1", "ttr_full", "ctm", "completed",
]
# the metrics are AggregateMetrics' fields, in order; floats with 4 decimal places
AGGREGATE_COLUMNS = ["scenario", *_SCENARIO_COLUMNS, *AggregateMetrics._fields]


def derive_seed(master_seed, *parts):
    """Stable 63-bit seed from the master seed and any identifying parts."""
    text = "|".join([str(master_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class ScenarioGrid(namedtuple(
        "ScenarioGrid", "name protocols terminations n_values c_values m_values pr_levels "
        "runs master_seed max_slots fix_topology", defaults=(0, DEFAULT_MAX_SLOTS, False))):
    """Cartesian scenario grid; cells are enumerated deterministically.

    The lists are tuples, pr_levels of names: "off", "high" or "lx:ly".
    runs is checked on construction; _replace skips the check.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")
        return self

    def cells(self):
        for idx, (protocol, termination, n, c, m, pr) in enumerate(product(
                self.protocols, self.terminations, self.n_values,
                self.c_values, self.m_values, self.pr_levels)):
            yield idx, RunConfig(
                protocol=protocol, termination=termination, n_nodes=n,
                pool_size=c, similarity=m, pr=PrParams.from_name(pr),
                max_slots=self.max_slots,
            )

    def grid_hash(self):
        return hashlib.sha256(repr(self._asdict()).encode()).hexdigest()[:16]


# runs per work unit: enough units that every worker stays busy to the end
_UNIT_RUNS = 16


def _run_seeds(grid, cell_index, cfg, run_index):
    """(seed, topo_seed, chan_seed) of run run_index of the grid's cell cell_index, cfg.

    Seeds derive from (master_seed, cell_index, run_index). With fix_topology
    the deployment and channel seeds depend only on fields shared across
    protocols and PR levels, so run k sees identical inputs in every cell;
    without, they are None (derived from seed). DEFAULT_RANGE_M stays among
    the topology seed's parts, which keeps every seed unchanged.
    """
    seed = derive_seed(grid.master_seed, "cell", cell_index, "run", run_index)
    if not grid.fix_topology:
        return seed, None, None
    return (seed, derive_seed(grid.master_seed, "topo", cfg.n_nodes, DEFAULT_RANGE_M, run_index),
            derive_seed(grid.master_seed, "chan", cfg.n_nodes, cfg.pool_size,
                        cfg.similarity, run_index))


def _seeded(cfg, seeds):
    """The RunConfig of a run: its cell's cfg with the run's _run_seeds."""
    seed, topo_seed, chan_seed = seeds
    return cfg._replace(seed=seed, topo_seed=topo_seed, chan_seed=chan_seed)


def _units(g, grid):
    """The work units of grid, grids[g] of a sweep: ((g, cell_indexes, start), cfgs, seeds).

    A unit is the runs start, start + 1, ... of the cells cell_indexes of
    grid, whose configs are cfgs; seeds holds their _run_seeds, run-major.
    Without fix_topology a unit is one cell's run range. With it, a unit is
    one run range over the cells of one N, whose run k shares one
    deployment (engine._deployment): run-major, each process builds it once.
    """
    groups = {}
    for cell_index, cfg in grid.cells():
        key = cfg.n_nodes if grid.fix_topology else cell_index
        groups.setdefault(key, []).append((cell_index, cfg))
    for group in groups.values():
        span = max(1, _UNIT_RUNS // len(group))
        cell_indexes, cfgs = zip(*group)
        for start in range(0, grid.runs, span):
            seeds = [_run_seeds(grid, cell_index, cfg, run_index)
                     for run_index in range(start, min(start + span, grid.runs))
                     for cell_index, cfg in group]
            yield (g, cell_indexes, start), cfgs, seeds


def _execute(unit, trace=None):
    """unit's key and the RunSummary of each of its runs, in order; None for a run
    that hit the safety cap. trace, when given, receives the first run's event
    trace, and that run's IncompleteRun propagates."""
    key, cfgs, seeds = unit
    runs = [_seeded(cfg, run_seeds) for cfg, run_seeds in zip(cycle(cfgs), seeds)]
    summaries = []
    if trace is not None:
        summaries.append(run_once(runs[0], trace=trace).summary())
    for cfg in runs[len(summaries):]:
        try:
            summaries.append(run_once(cfg).summary())
        except IncompleteRun:
            summaries.append(None)
    return key, summaries


def fmt(value):
    """Float cell with 4 decimal places; empty string for missing values."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _scenario_cells(cfg):
    return [write(getattr(cfg, field)) for field, _, write in _SCENARIO_COLUMNS.values()]


def run_row(scenario, run_index, cfg, summary):
    """One per-run CSV row (list of strings) in RUN_COLUMNS order.

    summary is None for a run that hit the safety cap; its row is flagged
    `incomplete` and leaves the timing and accuracy cells empty.
    """
    row = [scenario, *_scenario_cells(cfg), str(run_index), str(cfg.seed),
           fmt(cfg.topo_seed), fmt(cfg.chan_seed)]
    if summary is None:
        return row + ["", "", "", "", "incomplete"]
    return row + [fmt(summary.policy), fmt(summary.n1), fmt(summary.full),
                  fmt(summary.ctm), "yes"]


def read_run_row(cells):
    """(scenario, run_index, cfg) of a per-run row's cells; None if it is `incomplete`.

    run_row(scenario, run_index, cfg, run_once(cfg).summary()) writes the row
    again. cfg.max_slots is N x the recorded stop mean (ttr_policy, or ttr_full
    under run_to_full), rounded up, plus one: every mark is at least 0.5, so
    the last, in whose slot the run ends, is at most N x their mean, and the
    extra slot covers the mean's 4-decimal rounding up to N = 20 000. A row of
    the wrong length or form raises ValueError naming the row.
    """
    line = ",".join(cells)
    if len(cells) != len(RUN_COLUMNS):
        raise ValueError(f"row {line!r} does not have {len(RUN_COLUMNS)} columns")
    row = dict(zip(RUN_COLUMNS, cells))
    if row["completed"] == "incomplete":
        return None
    if row["completed"] != "yes":
        raise ValueError(f"row {line!r} is neither completed (yes) nor incomplete")
    try:
        cell = {field: parse(row[column])
                for column, (field, parse, _) in _SCENARIO_COLUMNS.items()}
        stop_mean = float(row["ttr_policy"] or row["ttr_full"])
        cfg = RunConfig(**cell, seed=int(row["seed"]),
                        **{col: int(row[col]) for col in ("topo_seed", "chan_seed") if row[col]},
                        max_slots=math.ceil(cell["n_nodes"] * stop_mean) + 1)
        return row["scenario"], int(row["run_index"]), cfg
    except (ValueError, OverflowError) as exc:  # ceil of an infinite mean overflows
        raise ValueError(f"row {line!r}: {exc}") from None


def aggregate_row(scenario, cfg, agg):
    """One aggregate CSV row (list of strings) in AGGREGATE_COLUMNS order."""
    return [scenario, *_scenario_cells(cfg), *map(fmt, agg)]


GridResult = namedtuple("GridResult", "grids runs cells incomplete")
GridResult.__doc__ = """One sweep over grids, as numbers: runs, the ((grid, cell), cfg, summaries)
of each cell in order, where summaries holds the RunSummary of each run by index (None if
capped) and cfg is the cell's config without seeds; cells, (grid, cfg, AggregateMetrics) of each
cell with a completed run; grid indexes grids, and incomplete counts the capped runs."""


def run_grid(*grids, workers=1, trace=None):
    """Execute every cell x run of the grids as one sweep; identical results
    for any worker count. The grids are sub-grids of one CSV, such as `paper
    baseline`'s two, so they share a name and master seed: its header names
    one of each, with every grid's hash.

    The work goes out in units (_units) that carry their runs' seeds, derived
    here, so a worker only builds each RunConfig and sends back the units'
    RunSummary values (None if capped); of each cell only those are kept,
    by run index, and runs_csv derives the seeds again as it writes. The
    worker count comes from the grids' cells, which are built (and so
    checked) first. The pool's map submits every unit when it is called, so
    this process holds them all until they have run; serially each is built
    as it runs.

    trace, when given, is a writable text stream that receives the event
    trace of replication 0 of the first cell (see engine.run_once). That
    replication runs first, in this process, as the one whose row is written;
    if it hits the safety cap, IncompleteRun propagates instead of flagging
    the row, so a trace that was asked for never ends silently. workers below
    1 raise ValueError, and no more processes start than there are runs left.
    Every exit, by return or by raise, shuts the pool down and joins its workers.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    runs = [((g, cell_index), cfg, [None] * grid.runs) for g, grid in enumerate(grids)
            for cell_index, cfg in grid.cells()]
    workers = min(workers, sum(len(summaries) for *_, summaries in runs) - (trace is not None))
    with ExitStack() as stack:
        pool = None
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
        # serially each unit is built as it runs; pool.map submits them all at once
        units = (unit for g, grid in enumerate(grids) for unit in _units(g, grid))
        # with a trace, the first unit, whose first run is replication 0 of
        # the first cell, runs here first
        traced = [_execute(next(units), trace)] if trace is not None else []
        results = chain(traced, map(_execute, units) if pool is None else pool.map(_execute, units))
        by_cell = {key: summaries for key, _, summaries in runs}
        for (g, cell_indexes, start), summaries in results:
            for k, summary in enumerate(summaries):  # run-major over cell_indexes
                row, cell = divmod(k, len(cell_indexes))
                by_cell[g, cell_indexes[cell]][start + row] = summary
    cells = [(g, cfg, aggregate(completed)) for (g, _), cfg, summaries in runs
             if (completed := [s for s in summaries if s is not None])]
    return GridResult(grids, runs, cells,
                      incomplete=sum(summaries.count(None) for *_, summaries in runs))


def _write_csv(out, columns, rows, result):
    """Write the header block in one write, then each row in one write of its own."""
    from . import __version__
    grid = result.grids[0]  # sub-grids share the name and master seed
    hashes = "+".join(g.grid_hash() for g in result.grids)
    out.write(
        f"# rendezsim {__version__}\n"
        f"# grid {grid.name} hash={hashes} master_seed={grid.master_seed}\n"
        f"# incomplete_runs={result.incomplete} (flagged rows excluded from means)\n"
        "# time unit: slots at half-slot resolution; ttr_full uses first "
        "half-slot with N-1 and DNL equal to ground truth\n"
        "# rate reseed cadence: dual clocks every |m_i| slots, modular clocks "
        "every 2p steps (2p half-slots for emca, 2p slots for mca)\n"
        f"{','.join(columns)}\n")
    write = out.write
    for row in rows:
        write(",".join(row) + "\n")


def aggregate_csv(result, out):
    """Write the aggregate CSV to the text stream out, one row per write."""
    _write_csv(out, AGGREGATE_COLUMNS, (aggregate_row(result.grids[g].name, cfg, agg)
                                        for g, cfg, agg in result.cells), result)


def runs_csv(result, out):
    """Write the per-run CSV to the text stream out, one row per write: each
    row's seeds are derived again (_run_seeds) and run_row forms the row just
    before it is written, so the CSV's text is never held whole."""
    _write_csv(out, RUN_COLUMNS, (
        run_row(result.grids[g].name, run_index,
                _seeded(cfg, _run_seeds(result.grids[g], cell_index, cfg, run_index)), summary)
        for (g, cell_index), cfg, summaries in result.runs
        for run_index, summary in enumerate(summaries)), result)


BASELINE_PROTOCOLS = ("rcs", "mca", "emca", "mdmca")
PAPER_GRIDS = ("baseline", "controlled", "scale")


def paper_grid(name, runs=None, master_seed=0):
    """Built-in grids mirroring the two evaluation scenarios and the scalability
    study, by PAPER_GRIDS name; runs defaults to 1000 replications per cell."""
    if name not in PAPER_GRIDS:
        raise ValueError(f"unknown paper grid {name!r}; use one of {', '.join(PAPER_GRIDS)}")
    grid = ScenarioGrid(name=name, protocols=PROTOCOLS, terminations=("controlled",),
                        n_values=(3, 10), c_values=(10,), m_values=(2, 5),
                        pr_levels=("off", "high"), runs=1000 if runs is None else runs,
                        master_seed=master_seed, fix_topology=True)
    if name == "baseline":
        # conventional protocols stop at N-1; mrdmca uses controlled stop,
        # measured as two sub-grids of one run_grid sweep
        return (grid._replace(protocols=BASELINE_PROTOCOLS, terminations=("baseline",)),
                grid._replace(protocols=("mrdmca",)))
    if name == "scale":
        return (grid._replace(n_values=(20,), c_values=(20,)),)
    return (grid,)


def _flag(text):
    for value, words in ((True, ("1", "true", "yes")), (False, ("0", "false", "no"))):
        if text.lower() in words:
            return value
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")


def _grid_name(text):
    # the name is the first cell of every per-run row, so a comma shifts
    # the row's columns and a leading # turns the row into a comment
    if "," in text or text.startswith("#"):
        raise ValueError(f"must not contain a comma or start with #, got {text!r}")
    return text


# config key: (ScenarioGrid field, value parser, comma-separated list?)
_CONFIG_KEYS = {
    "name": ("name", _grid_name, False), "runs": ("runs", int, False),
    "seed": ("master_seed", int, False), "max_slots": ("max_slots", int, False),
    "fix_topology": ("fix_topology", _flag, False),
    "protocols": ("protocols", str, True), "terminations": ("terminations", str, True),
    "nodes": ("n_values", int, True), "channels": ("c_values", int, True),
    "similarity": ("m_values", int, True), "pr": ("pr_levels", str, True),
}


def parse_grid_config(text):
    """Line-oriented `key = value` grid config with comma-separated lists.

    Keys: name, protocols, terminations, nodes, channels, similarity, pr,
    runs, seed, max_slots, fix_topology (1/true/yes or 0/false/no, any
    case); a key left out takes ScenarioGrid's default, and name "sweep".
    Lines starting with # are comments. A malformed line, an unknown or
    repeated key, or a value of the wrong form raises a line-numbered
    ValueError; a value the scenario rejects, such as a similarity above C,
    raises one without, here or before run_grid starts any replication.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected `key = value`")
        key, _, val = line.partition("=")
        key, val = key.strip().lower(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        field, conv, is_list = _CONFIG_KEYS[key]
        if field in values:
            raise ValueError(f"line {lineno}: repeated key {key!r}")
        try:
            values[field] = (tuple(conv(v.strip()) for v in val.split(","))
                             if is_list else conv(val))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    values.setdefault("name", "sweep")
    required = ScenarioGrid._fields[:-len(ScenarioGrid._field_defaults)]
    missing = sorted(key for key, (field, *_) in _CONFIG_KEYS.items()
                     if field in required and field not in values)
    if missing:
        raise ValueError(f"missing keys: {missing}")
    return ScenarioGrid(**values)
