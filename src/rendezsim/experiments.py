"""Scenario grids, deterministic batch replication, and the two CSVs, written and read back."""

import hashlib
import math
from collections import namedtuple
from contextlib import ExitStack
from dataclasses import MISSING, dataclass, asdict, astuple, fields, replace
from itertools import groupby, product
from operator import attrgetter, itemgetter

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
AGGREGATE_COLUMNS = ["scenario", *_SCENARIO_COLUMNS, *(f.name for f in fields(AggregateMetrics))]


def derive_seed(master_seed, *parts):
    """Stable 63-bit seed from the master seed and any identifying parts."""
    text = "|".join([str(master_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ScenarioGrid:
    """Cartesian scenario grid; cells are enumerated deterministically."""

    name: str
    protocols: tuple
    terminations: tuple
    n_values: tuple
    c_values: tuple
    m_values: tuple
    pr_levels: tuple       # names: "off", "high" or "lx:ly"
    runs: int
    master_seed: int = 0
    max_slots: int = DEFAULT_MAX_SLOTS
    fix_topology: bool = False

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")

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
        return hashlib.sha256(repr(asdict(self)).encode()).hexdigest()[:16]


def _run_configs(grid):
    """All (cell_index, run_index, cfg) work items in deterministic order.

    Seeds derive from (master_seed, cell_index, run_index). With fix_topology
    the deployment and channel seeds depend only on fields shared across
    protocols and PR levels, so run k sees identical inputs in every cell;
    the items are then ordered by engine._deployment's key (n_nodes,
    topo_seed), cells in order within each key. DEFAULT_RANGE_M stays among
    the topology seed's parts, which keeps every seed unchanged.
    """
    items = []
    for cell_index, cfg in grid.cells():
        for run_index in range(grid.runs):
            seed = derive_seed(grid.master_seed, "cell", cell_index, "run", run_index)
            kwargs = {"seed": seed}
            if grid.fix_topology:
                kwargs["topo_seed"] = derive_seed(
                    grid.master_seed, "topo", cfg.n_nodes, DEFAULT_RANGE_M, run_index)
                kwargs["chan_seed"] = derive_seed(
                    grid.master_seed, "chan", cfg.n_nodes, cfg.pool_size,
                    cfg.similarity, run_index)
            items.append((cell_index, run_index, replace(cfg, **kwargs)))
    if grid.fix_topology:
        items.sort(key=lambda item: (item[2].n_nodes, item[2].topo_seed))
    return items


def _execute(item):
    """The RunSummary of item's run, or None for a run that hit the safety cap."""
    try:
        return run_once(item[2]).summary()
    except IncompleteRun:
        return None


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
    return [scenario, *_scenario_cells(cfg), *map(fmt, astuple(agg))]


GridResult = namedtuple("GridResult", "grids runs cells incomplete")
GridResult.__doc__ = """One sweep over grids, as numbers: runs, the sorted ((grid, cell), run_index,
cfg, RunSummary or None if capped) of each run; cells, (grid, cfg, AggregateMetrics) of each cell
with a completed run; grid indexes grids, and incomplete counts the capped runs."""


def run_grid(*grids, workers=1, trace=None):
    """Execute every cell x run of the grids as one sweep; identical results
    for any worker count. The grids are sub-grids of one CSV, such as `paper
    baseline`'s two, so they share a name and master seed: its header names
    one of each, with every grid's hash.

    Of each run only its RunSummary (None if capped) is kept, which a worker
    sends back alone, paired with its work item by position; no row is formed.
    The worker count comes from the grids' cells, which are built (and so
    checked) first; the pool then starts before the work list exists, so a
    forked worker holds no copy of it and receives its chunks through the pool.

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
    n_runs = sum(grid.runs * sum(1 for _ in grid.cells()) for grid in grids)
    workers = min(workers, n_runs - (trace is not None))
    with ExitStack() as stack:
        pool = None
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            # Under fork, the first submit forks every worker. A no-op submitted
            # before the work list below exists keeps the list out of their memory.
            pool.submit(int)
        items = [((g, cell_index), run_index, cfg) for g, grid in enumerate(grids)
                 for cell_index, run_index, cfg in _run_configs(grid)]
        summaries = []
        if trace is not None:  # replication 0 of the first cell moves to the front
            items.sort(key=lambda item: item[:2] != ((0, 0), 0))
            summaries.append(run_once(items[0][2], trace=trace).summary())
        rest = items[len(summaries):]
        summaries += (map(_execute, rest) if pool is None
                      else pool.map(_execute, rest, chunksize=16))
    runs = sorted((item + (s,) for item, s in zip(items, summaries)), key=itemgetter(0, 1))
    cells = []
    for (g, _), cell in groupby(runs, itemgetter(0)):
        cell = list(cell)
        completed = [summary for *_, summary in cell if summary is not None]
        if completed:
            cells.append((g, cell[0][2], aggregate(completed)))
    return GridResult(grids, runs, cells, incomplete=summaries.count(None))


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
    """Write the per-run CSV to the text stream out, one row per write: run_row
    forms each row just before it is written, so the CSV's text is never held whole."""
    _write_csv(out, RUN_COLUMNS, (run_row(result.grids[g].name, run_index, cfg, summary)
                                  for (g, _), run_index, cfg, summary in result.runs), result)


BASELINE_PROTOCOLS = ("rcs", "mca", "emca", "mdmca")


def paper_grid(name, runs=None, master_seed=0):
    """Built-in grids mirroring the two evaluation scenarios and the
    scalability study; runs defaults to 1000 replications per cell."""
    grid = ScenarioGrid(name=name, protocols=PROTOCOLS, terminations=("controlled",),
                        n_values=(3, 10), c_values=(10,), m_values=(2, 5),
                        pr_levels=("off", "high"), runs=1000 if runs is None else runs,
                        master_seed=master_seed, fix_topology=True)
    if name == "baseline":
        # conventional protocols stop at N-1; mrdmca uses controlled stop,
        # measured as two sub-grids of one run_grid sweep
        return (replace(grid, protocols=BASELINE_PROTOCOLS, terminations=("baseline",)),
                replace(grid, protocols=("mrdmca",)))
    if name == "controlled":
        return (grid,)
    if name == "scale":
        return (replace(grid, n_values=(20,), c_values=(20,)),)
    raise ValueError(f"unknown paper grid {name!r}; use baseline, controlled or scale")


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
    required = {f.name for f in fields(ScenarioGrid) if f.default is MISSING}
    missing = sorted(key for key, (field, *_) in _CONFIG_KEYS.items()
                     if field in required and field not in values)
    if missing:
        raise ValueError(f"missing keys: {missing}")
    return ScenarioGrid(**values)
