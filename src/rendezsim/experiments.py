"""Scenario grids, deterministic batch replication, and CSV emission."""

import hashlib
from dataclasses import MISSING, dataclass, asdict, fields, replace
from itertools import groupby, product
from operator import itemgetter

from .engine import RunConfig, run_once, IncompleteRun, DEFAULT_MAX_SLOTS, DEFAULT_RANGE_M
from .hopping import PROTOCOLS
from .metrics import aggregate, aggregate_row, AGGREGATE_COLUMNS, fmt
from .pr_activity import PrParams

RUN_COLUMNS = [
    "scenario", "protocol", "termination", "N", "C", "m", "pr",
    "run_index", "seed", "topo_seed", "chan_seed",
    "ttr_policy", "ttr_n1", "ttr_full", "ctm", "completed",
]


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


def run_row(scenario, run_index, cfg, summary):
    """One per-run CSV row (list of strings) in RUN_COLUMNS order.

    summary is None for a run that hit the safety cap; its row is flagged
    `incomplete` and leaves the timing and accuracy cells empty.
    """
    row = [scenario, *cfg.scenario_key(), str(run_index), str(cfg.seed),
           fmt(cfg.topo_seed), fmt(cfg.chan_seed)]
    if summary is None:
        return row + ["", "", "", "", "incomplete"]
    return row + [fmt(summary.policy), fmt(summary.n1), fmt(summary.full),
                  fmt(summary.ctm), "yes"]


@dataclass
class GridResult:
    """Per-run rows in (cell, run) order and aggregate rows of grids; merging extends all three."""

    grids: list
    run_rows: list
    aggregate_rows: list

    @property
    def incomplete(self):
        """The number of runs that hit the safety cap (rows flagged so)."""
        return sum(row[-1] == "incomplete" for row in self.run_rows)


def run_grid(grid, workers=1, trace=None):
    """Execute every cell x run; identical results for any worker count.

    Each run's RunSummary (None if capped) is all that is kept of it; a
    worker sends back that alone, paired with its work item by position.

    trace, when given, is a writable text stream that receives the event
    trace of replication 0 of cell 0 (see engine.run_once). That replication
    runs first, in this process, as the one whose row is written; if it hits
    the safety cap, IncompleteRun propagates instead of flagging the row, so
    a trace that was asked for never ends silently. workers below 1 raise
    ValueError, and no more processes start than there are runs left.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    items = _run_configs(grid)
    summaries = []
    if trace is not None:  # replication 0 of cell 0 moves to the front
        items.sort(key=lambda item: item[:2] != (0, 0))
        summaries.append(run_once(items[0][2], trace=trace).summary())
    rest = items[len(summaries):]
    workers = min(workers, len(rest))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries += pool.map(_execute, rest, chunksize=16)
    else:
        summaries += map(_execute, rest)
    results = sorted((item + (s,) for item, s in zip(items, summaries)), key=itemgetter(0, 1))

    run_rows = [run_row(grid.name, run_index, cfg, summary)
                for _, run_index, cfg, summary in results]
    aggregate_rows = []
    for _, cell in groupby(results, itemgetter(0)):
        cell = list(cell)
        completed = [summary for *_, summary in cell if summary is not None]
        if completed:
            aggregate_rows.append(aggregate_row(grid.name, cell[0][2], aggregate(completed)))
    return GridResult(grids=[grid], run_rows=run_rows, aggregate_rows=aggregate_rows)


def _csv_text(columns, rows, result):
    from . import __version__
    grid = result.grids[0]  # sub-grids share the name and master seed
    hashes = "+".join(g.grid_hash() for g in result.grids)
    lines = [
        f"# rendezsim {__version__}",
        f"# grid {grid.name} hash={hashes} master_seed={grid.master_seed}",
        f"# incomplete_runs={result.incomplete} (flagged rows excluded from means)",
        "# time unit: slots at half-slot resolution; ttr_full uses first "
        "half-slot with N-1 and DNL equal to ground truth",
        "# rate reseed cadence: dual clocks every |m_i| slots, modular clocks "
        "every 2p steps (2p half-slots for emca, 2p slots for mca)",
        ",".join(columns),
    ]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def aggregate_csv(result):
    return _csv_text(AGGREGATE_COLUMNS, result.aggregate_rows, result)


def runs_csv(result):
    return _csv_text(RUN_COLUMNS, result.run_rows, result)


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
        # measured as two sub-grids merged by the caller
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
