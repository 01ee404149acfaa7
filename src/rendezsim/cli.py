"""Command-line front end: single cells, config sweeps, built-in grids, audit."""

import argparse
import os
import sys
from contextlib import ExitStack
from dataclasses import replace

from .engine import RunConfig, IncompleteRun, run_once, DEFAULT_MAX_SLOTS
from .experiments import (
    ScenarioGrid, run_grid, paper_grid, parse_grid_config,
    aggregate_csv, runs_csv, run_row, RUN_COLUMNS,
)
from .hopping import PROTOCOLS
from .pr_activity import PrParams
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
    p_paper.add_argument("grid", choices=("baseline", "controlled", "scale"))
    p_paper.add_argument("--runs", type=int, default=None,
                         help="replications per cell (default 1000)")
    p_paper.add_argument("--seed", type=int, default=0)
    p_paper.set_defaults(func=_cmd_paper)

    for p in (p_run, p_sweep, p_paper):
        p.add_argument("--workers", type=int, default=1, help="worker processes, at least 1")
        p.add_argument("--out", default=None, help="aggregate CSV path (default stdout)")
        p.add_argument("--runs-out", default=None, help="optional per-run CSV path")

    p_audit = sub.add_parser("audit", help=f"replay a per-run CSV at the default {DEFAULT_MAX_SLOTS}"
                             "-slot cap and re-verify it; a row that needed more slots mismatches")
    p_audit.add_argument("csv", help="per-run CSV produced with --runs-out")
    p_audit.set_defaults(func=_cmd_audit)
    return parser


def _run_and_emit(args, grids, trace=None):
    """Run the grids in order and write their merged rows as CSV; a bad --out
    or --runs-out fails first, as opening it would, and no file is left."""
    for path in filter(None, (args.out, args.runs_out)):
        created = not os.path.lexists(path)
        open(path, "a").close()
        if created:
            os.remove(path)
    result, *extras = [run_grid(g, workers=args.workers, trace=trace) for g in grids]
    for extra in extras:
        result.grids.extend(extra.grids)
        result.aggregate_rows.extend(extra.aggregate_rows)
        result.run_rows.extend(extra.run_rows)
    text = aggregate_csv(result)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.runs_out:
        with open(args.runs_out, "w", newline="") as fh:
            fh.write(runs_csv(result))
    return 0


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
        grid = replace(grid, master_seed=args.seed)
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
        if len(cells) != len(RUN_COLUMNS):
            raise ValueError(f"{args.csv}: row {line!r} does not have "
                             f"{len(RUN_COLUMNS)} columns")
        row = dict(zip(RUN_COLUMNS, cells))
        if row["completed"] == "incomplete":
            continue
        if row["completed"] != "yes":
            raise ValueError(f"{args.csv}: row {line!r} is neither completed "
                             f"(yes) nor incomplete")
        try:
            cfg = RunConfig(
                protocol=row["protocol"], termination=row["termination"],
                n_nodes=int(row["N"]), pool_size=int(row["C"]),
                similarity=int(row["m"]), pr=PrParams.from_name(row["pr"]),
                seed=int(row["seed"]),
                topo_seed=int(row["topo_seed"]) if row["topo_seed"] else None,
                chan_seed=int(row["chan_seed"]) if row["chan_seed"] else None,
            )
        except ValueError as exc:
            raise ValueError(f"{args.csv}: row {line!r}: {exc}") from None
        checked += 1
        try:
            summary = run_once(cfg).summary()
        except IncompleteRun as exc:
            mismatches += 1
            print(f"audit: run {row['run_index']}: recorded as completed, "
                  f"replay stopped: {exc}", file=sys.stderr)
            continue
        replayed = run_row(row["scenario"], row["run_index"], cfg, summary)
        for col, recorded, value in zip(RUN_COLUMNS, cells, replayed):
            if value != recorded:
                mismatches += 1
                print(f"audit: run {row['run_index']} {col}: "
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
