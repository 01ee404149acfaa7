"""Command-line front end: single cells, config sweeps, built-in grids, audit."""

import argparse
import os
import sys
from contextlib import ExitStack, nullcontext

from .engine import IncompleteRun, run_once
from .experiments import (
    PAPER_GRIDS, ScenarioGrid, run_grid, paper_grid, parse_grid_config,
    aggregate_csv, runs_csv, run_row, read_run_row, RUN_COLUMNS,
)
from .hopping import PROTOCOLS
from .protocol import TERMINATION_MODES
from .topology import DeploymentError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rendezsim",
        description="Monte-Carlo simulator for multihop cognitive-radio rendezvous",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario cell")
    p_run.add_argument("--protocol", required=True, choices=PROTOCOLS)
    p_run.add_argument("--termination", required=True, choices=TERMINATION_MODES)
    p_run.add_argument("--nodes", required=True, type=int)
    p_run.add_argument("--channels", required=True, type=int)
    p_run.add_argument("--similarity", required=True, type=int)
    p_run.add_argument("--pr", required=True,
                       help="PR activity: off, high, or lambda_x:lambda_y (rates at most 1000)")
    p_run.add_argument("--runs", type=int, default=100)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--trace", default=None, help="per-run event trace path")
    p_run.add_argument("--fix-topology", action="store_true",
                       help="reuse deployments across cells for matched comparisons")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid from a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="override the config's master seed")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_paper = sub.add_parser("paper", help="run a built-in evaluation grid")
    p_paper.add_argument("grid", choices=PAPER_GRIDS)
    p_paper.add_argument("--runs", type=int, default=None,
                         help="replications per cell (default 1000)")
    p_paper.add_argument("--seed", type=int, default=0)
    p_paper.set_defaults(func=_cmd_paper)

    for p in (p_run, p_sweep, p_paper):
        p.add_argument("--workers", type=int, default=1, help="worker processes, at least 1")
        p.add_argument("--out", default=None, help="aggregate CSV path (default stdout)")
        p.add_argument("--runs-out", default=None, help="optional per-run CSV path")

    p_audit = sub.add_parser("audit", help="replay a per-run CSV from its recorded seeds "
                             "and re-verify it")
    p_audit.add_argument("csv", help="per-run CSV produced with --runs-out")
    p_audit.set_defaults(func=_cmd_audit)
    return parser


def _run_and_emit(args, grids, trace=None):
    """Run the grids as one sweep and write its CSVs; path flags naming one file, or a
    bad --out or --runs-out (as opening it would), fail first, and no file is left."""
    named = {}  # realpath -> the first of --trace, --config, --out, --runs-out naming it
    for flag in ("--trace", "--config", "--out", "--runs-out"):
        path = getattr(args, flag[2:].replace("-", "_"), None)
        if path and named.setdefault(os.path.realpath(path), flag) != flag:
            raise ValueError(f"{named[os.path.realpath(path)]} and {flag} name one file: {path}")
    for path in filter(None, (args.out, args.runs_out)):
        created = not os.path.lexists(path)
        open(path, "a").close()
        if created:
            os.remove(path)
    _refuse_unfinishable(grids)
    result = run_grid(*grids, workers=args.workers, trace=trace)
    with open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout) as fh:
        aggregate_csv(result, fh)
    if args.runs_out:
        with open(args.runs_out, "w", newline="") as fh:
            runs_csv(result, fh)
    return 0


def _refuse_unfinishable(grids):
    """Raise ValueError for the first cell whose PR leaves it no expected idle
    (channel, half-slot) before its cap, C·2·max_slots·PrParams.idle_prob < 1:
    a handshake needs one, so no run of that cell could finish."""
    for grid in grids:
        for _, cfg in grid.cells():
            expected = cfg.pool_size * 2 * cfg.max_slots * cfg.pr.idle_prob
            if expected < 1:
                raise ValueError(
                    f"cell {cfg.protocol} {cfg.termination} N={cfg.n_nodes} C={cfg.pool_size} "
                    f"m={cfg.similarity} pr={cfg.pr.name}: {expected:.3g} idle (channel, "
                    f"half-slot) options expected in {cfg.max_slots} slots, so no run can finish")


class _TraceFile:
    """A --trace path opened for writing, so created or truncated, at its first
    line and closed with stack: a run that fails before then leaves it as it was."""

    def __init__(self, path, stack):
        self.path, self.stack = path, stack

    def write(self, text):  # later lines go straight to the file's own write
        self.write = self.stack.enter_context(open(self.path, "w")).write
        self.write(text)


def _cmd_run(args):
    grid = ScenarioGrid(
        name="run", protocols=(args.protocol,), terminations=(args.termination,),
        n_values=(args.nodes,), c_values=(args.channels,),
        m_values=(args.similarity,), pr_levels=(args.pr,), runs=args.runs,
        master_seed=args.seed, fix_topology=args.fix_topology,
    )
    # the first replication is traced inside the grid; the rest run untraced
    with ExitStack() as stack:
        trace = _TraceFile(args.trace, stack) if args.trace else None
        return _run_and_emit(args, [grid], trace=trace)


def _cmd_sweep(args):
    with open(args.config) as fh:
        grid = parse_grid_config(fh.read())
    if args.seed is not None:
        grid = grid._replace(master_seed=args.seed)  # ScenarioGrid checks no seed
    return _run_and_emit(args, [grid])


def _cmd_paper(args):
    return _run_and_emit(args, paper_grid(args.grid, runs=args.runs, master_seed=args.seed))


def _cmd_audit(args):
    with open(args.csv) as fh:
        lines = [l.rstrip("\n") for l in fh if not l.startswith("#")]
    if not lines:
        print(f"audit: {args.csv} has no header row", file=sys.stderr)
        return 1
    header = lines[0].split(",")
    if header != RUN_COLUMNS:
        print(f"audit: unexpected columns {header}", file=sys.stderr)
        return 1
    mismatches = checked = 0
    for line in lines[1:]:
        cells = line.split(",")
        try:
            parsed = read_run_row(cells)
        except ValueError as exc:
            raise ValueError(f"{args.csv}: {exc}") from None
        if parsed is None:
            continue
        scenario, run_index, cfg = parsed
        checked += 1
        try:
            summary = run_once(cfg).summary()
        except IncompleteRun as exc:
            mismatches += 1
            print(f"audit: run {run_index}: recorded as completed, "
                  f"replay stopped: {exc}", file=sys.stderr)
            continue
        replayed = run_row(scenario, run_index, cfg, summary)
        for col, recorded, value in zip(RUN_COLUMNS, cells, replayed):
            if value != recorded:
                mismatches += 1
                print(f"audit: run {run_index} {col}: "
                      f"recorded {recorded!r}, replayed {value!r}",
                      file=sys.stderr)
    print(f"audit: {checked} runs replayed, {mismatches} mismatch(es)")
    return 1 if mismatches else 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DeploymentError, IncompleteRun) as exc:
        print(f"rendezsim: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
