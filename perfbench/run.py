#!/usr/bin/env python3
"""rendezsim benchmark: one workload through the public sweep CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rendezsim is imported from ./src and
nothing is installed. Each workload is a grid config (perfbench/workloads.json)
passed to `rendezsim sweep`, which covers cli -> experiments.parse_grid_config
-> experiments.run_grid -> engine.run_once -> metrics.aggregate -> CSV output.

--trace 0 prints the end-to-end metrics of untraced sweeps, each in a fresh
interpreter, repeated while --seconds allow (at least one). --trace 1 runs one
untraced sweep and one traced sweep, each of the workload's smaller
`trace_runs` per cell, and prints the per-layer metrics. Every
sweep's output passes a correctness gate, and a sample of its completed rows
is replayed through `rendezsim audit`; any failure exits 1. The last line of
standard output is the JSON result.
"""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 10
AUDIT_SAMPLE = 4
TAIL_PCT = 90
LAYERS = ("cli", "experiments", "engine", "topology", "hopping",
          "pr_activity", "protocol", "metrics")
CLOCKS = ("RandomClock", "ModularClock", "DualModularClock")
GRID_LISTS = ("protocols", "terminations", "nodes", "channels", "similarity", "pr")
RUN_CHECKED = {"protocol", "termination", "N", "C", "m", "pr", "run_index", "seed",
               "ttr_policy", "ttr_full", "ctm", "completed"}


class GateError(Exception):
    """A sweep's output failed a correctness check."""


def load_spec():
    with open(os.path.join(HERE, "workloads.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- inputs

def grid_config(name, cell, runs=None):
    """`key = value` grid config text for rendezsim sweep."""
    lines = [f"name = {name}"]
    for key in GRID_LISTS:
        lines.append(f"{key} = {', '.join(str(v) for v in cell[key])}")
    lines.append(f"runs = {runs if runs is not None else cell['runs']}")
    lines.append(f"fix_topology = {'true' if cell['fix_topology'] else 'false'}")
    if "max_slots" in cell:
        lines.append(f"max_slots = {cell['max_slots']}")
    return "\n".join(lines) + "\n"


def n_cells(cell):
    return math.prod(len(cell[key]) for key in GRID_LISTS)


# ---------------------------------------------------------------- children

def _spawn(argv, env=None):
    """Run argv in its own session; on timeout kill it and its pool workers.

    Returns (returncode, stdout, stderr).
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise GateError(f"{' '.join(argv[1:3])} timed out after {CHILD_TIMEOUT_S} s")
    return proc.returncode, out, err


def _child(mode, out, args):
    rc, _, err = _spawn([sys.executable, CHILD, mode, out] + args)
    if rc != 0:
        raise GateError(f"{mode} child exited {rc}: {err.strip()[-400:]}")
    with open(out) as fh:
        return json.load(fh)


def setup_seconds(config, work):
    """Fresh interpreter to rendezsim.cli imported and the config parsed."""
    out = os.path.join(work, "setup.json")
    start = time.time()
    done = _child("setup", out, [config])["done_epoch_s"]
    return done - start


def run_sweep(mode, config, seed, workers, work, tag):
    """One `rendezsim sweep` in a child; its result plus both CSVs' text."""
    agg = os.path.join(work, f"agg-{tag}.csv")
    runs = os.path.join(work, f"runs-{tag}.csv")
    result = _child(mode, os.path.join(work, f"{tag}.json"),
                    ["sweep", "--config", config, "--seed", str(seed), "--workers",
                     str(workers), "--out", agg, "--runs-out", runs])
    if result["rc"] != 0:
        raise GateError(f"sweep {tag} returned {result['rc']}")
    with open(agg) as fh:
        result["agg_text"] = fh.read()
    with open(runs) as fh:
        result["runs_text"] = fh.read()
    return result


# ---------------------------------------------------------------- gate

def _table(text):
    meta = [l for l in text.splitlines() if l.startswith("#")]
    body = [l for l in text.splitlines() if l and not l.startswith("#")]
    return meta, list(csv.DictReader(io.StringIO("\n".join(body) + "\n")))


def gate(runs_text, agg_text, attempted):
    """Check one sweep's CSVs; returns the per-run rows. Raises GateError."""
    meta, rows = _table(runs_text)
    missing = RUN_CHECKED - set(rows[0] if rows else ())
    if missing:
        raise GateError(f"per-run CSV lacks columns {sorted(missing)}")
    problems = []
    if len(rows) != attempted:
        problems.append(f"{len(rows)} per-run rows, expected {attempted}")
    incomplete = 0
    for row in rows:
        where = f"{row['protocol']}/{row['termination']}/m={row['m']} run {row['run_index']}"
        if row["completed"] == "incomplete":
            incomplete += 1
        elif row["completed"] != "yes":
            problems.append(f"{where}: completed={row['completed']!r}")
        elif row["termination"] == "controlled":
            if row["ctm"] != "100.0000":
                problems.append(f"{where}: controlled ctm {row['ctm']}")
            if row["ttr_policy"] != row["ttr_full"]:
                problems.append(f"{where}: controlled ttr_policy {row['ttr_policy']} "
                                f"!= ttr_full {row['ttr_full']}")
    flagged = [l for l in meta if l.startswith(f"# incomplete_runs={incomplete} ")]
    if len(flagged) != 1:
        problems.append(f"metadata does not report {incomplete} incomplete runs")
    _, agg_rows = _table(agg_text)
    aggregated = sum(int(r["runs"]) for r in agg_rows)
    if aggregated != len(rows) - incomplete:
        problems.append(f"aggregate covers {aggregated} runs, "
                        f"{len(rows) - incomplete} completed")
    if problems:
        raise GateError("; ".join(problems[:5]) + (" ..." if len(problems) > 5 else ""))
    return rows


def gate_timed(rep, attempted, workers):
    """gate() plus a check that every replication's timing came back."""
    rows = gate(rep["runs_text"], rep["agg_text"], attempted)
    if len(rep["samples"]) != attempted:
        raise GateError(f"{len(rep['samples'])} replication timings for {attempted} runs")
    if workers > 1 and rep["workers_seen"] != workers:
        raise GateError(f"timings from {rep['workers_seen']} of {workers} workers")
    return rows


def audit_sample(runs_text, seed, work):
    """Replay a seeded sample of completed rows through `rendezsim audit`."""
    lines = runs_text.splitlines()
    header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    completed = [l for l in lines[header_at + 1:] if l.endswith(",yes")]
    sample = random.Random(seed).sample(completed, min(AUDIT_SAMPLE, len(completed)))
    path = os.path.join(work, "audit.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:header_at + 1] + sample) + "\n")
    rc, out, err = _spawn([sys.executable, "-m", "rendezsim.cli", "audit", path],
                          env=dict(os.environ, PYTHONPATH=SRC))
    expected = f"audit: {len(sample)} runs replayed, 0 mismatch(es)"
    if rc != 0 or out.strip() != expected:
        raise GateError(f"audit: {out.strip()} {err.strip()[-400:]}")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- metrics

def metric(value, unit):
    return {"value": value, "unit": unit}


def replication_ms(reps):
    """Per replication (keyed by seed), the median host ms over repetitions."""
    by_seed = {}
    for rep in reps:
        for seed, ns in rep["samples"]:
            by_seed.setdefault(seed, []).append(ns / 1e6)
    return {seed: statistics.median(v) for seed, v in by_seed.items()}


def by_cell(per_run, rows):
    """Sorted replication times of each grid cell.

    Replications of one cell are exchangeable; the cells of one grid are not.
    Percentiles of their mixture fall between the protocols' clusters, and
    the upper ones come from the slowest cells alone, which run in one stretch
    of the sweep and so meet one phase of the host's drifting speed. The
    end-to-end percentiles are taken per cell and averaged over the cells.
    """
    cells = {}
    for row in rows:
        key = tuple(row[c] for c in ("protocol", "termination", "N", "C", "m", "pr"))
        cells.setdefault(key, []).append(per_run[int(row["seed"])])
    return [sorted(v) for v in cells.values()]


def tail(values):
    """(value, samples beyond it): the TAIL_PCT percentile of sorted `values`.

    TAIL_PCT stays clear of the few replications per cell that are starved
    and burn the slot cap, whose seed-dependent count would otherwise set the
    tail; they show in wall_s and complete_frac.
    """
    at = max(0, math.ceil(len(values) * TAIL_PCT / 100) - 1)   # nearest rank
    return values[at], len(values) - at - 1


def end_to_end(reps, setups, attempted, rows):
    walls = [r["wall_ns"] / 1e9 for r in reps]
    wall = statistics.median(walls)
    per_run = replication_ms(reps)
    cells = by_cell(per_run, rows)
    tails = [tail(c) for c in cells]
    complete = sum(1 for r in rows if r["completed"] == "yes")
    metrics = {
        "wall_s": metric(wall, "s"),
        "runs_per_s": metric(attempted / wall, "1/s"),
        "run_ms_p50": metric(statistics.fmean(statistics.median(c) for c in cells), "ms"),
        "run_ms_tail": metric(statistics.fmean(t for t, _ in tails), "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "max_rss_mb": metric(statistics.median(r["peak_rss_kb"] for r in reps) / 1024, "MB"),
        "complete_frac": metric(complete / attempted, "fraction"),
    }
    notes = {"repetitions": len(reps), "replications": len(per_run),
             "cells": len(cells),
             "run_ms_tail_percentile": TAIL_PCT, "run_ms_tail_beyond": min(b for _, b in tails),
             "wall_s_all": [round(w, 4) for w in walls],
             "setup_s_all": [round(s, 4) for s in setups]}
    return metrics, notes


def per_layer(untraced, traced, workers, n_nodes, rows):
    stats = traced["stats"]
    counts = traced["counts"]
    c_in, c_out = traced["wrapper_in_ns"], traced["wrapper_out_ns"]

    def calls(name):
        return stats[name]["calls"]

    def self_ms(name):
        s = stats[name]
        return (s["self_ns"] - s["calls"] * c_in - s["nested"] * c_out) / 1e6

    def us_per_call(*names):
        n = sum(calls(x) for x in names)
        return 1000.0 * sum(self_ms(x) for x in names) / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    layer_ms = {layer: sum(self_ms(x) for x in stats if x.split(".")[0] == layer)
                for layer in LAYERS}
    half_slots = calls("engine.resolve_half_slot")
    selects = {c: calls(f"hopping.select.{c}") for c in CLOCKS}
    sim_names = [x for x in stats if x.split(".")[0] in
                 ("hopping", "pr_activity", "protocol")] + [
        "engine.run_once", "engine.resolve_half_slot", "engine.handshake_pairs"]
    sim_ms = sum(self_ms(x) for x in sim_names)
    run_ms_untraced = sum(ns for _, ns in untraced["samples"]) / 1e6
    serial_ms = untraced["wall_ns"] / 1e6 + run_ms_untraced * (1 - 1 / workers)
    traced_ms = traced["wall_ns"] / 1e6
    groups = counts.get("groups", 0)

    m = {}
    for c in CLOCKS:
        m[f"hopping.select.calls.{c}"] = metric(selects[c], "count")
        m[f"hopping.select.us_per_call.{c}"] = metric(
            us_per_call(f"hopping.select.{c}"), "us")
    total_selects = sum(selects.values())
    m["hopping.offset_frac"] = metric(
        ratio(total_selects - counts.get("resolve_entries", 0), total_selects), "fraction")
    m["pr_activity.busy_during.calls"] = metric(calls("pr_activity.busy_during"), "count")
    m["pr_activity.busy_during.us_per_call"] = metric(us_per_call("pr_activity.busy_during"), "us")
    m["pr_activity.busy_frac"] = metric(
        ratio(counts.get("busy_answers", 0), calls("pr_activity.busy_during")), "fraction")
    m["engine.half_slots"] = metric(half_slots, "count")
    m["engine.resolve.us_per_call"] = metric(us_per_call("engine.resolve_half_slot"), "us")
    m["engine.groups"] = metric(groups, "count")
    m["engine.handshake_pairs.us_per_call"] = metric(us_per_call("engine.handshake_pairs"), "us")
    m["engine.pair_yield"] = metric(ratio(counts.get("pairs", 0), groups), "fraction")
    m["engine.loop.self_ms"] = metric(self_ms("engine.run_once"), "ms")
    m["engine.us_per_half_slot"] = metric(1000.0 * ratio(sim_ms, half_slots), "us")
    m["engine.sim_slots"] = metric(counts.get("sim_slots", 0), "count")
    m["engine.capped_runs"] = metric(counts.get("capped_runs", 0), "count")
    m["protocol.handshakes"] = metric(calls("protocol.process_handshake"), "count")
    m["protocol.handshake.us_per_call"] = metric(us_per_call("protocol.process_handshake"), "us")
    m["protocol.check_termination.us_per_call"] = metric(
        us_per_call("protocol.check_termination"), "us")
    m["topology.deploy.calls"] = metric(calls("topology.deploy"), "count")
    m["topology.deploy.us_per_call"] = metric(
        1000.0 * ratio(self_ms("topology.deploy") + self_ms("topology.build_attempt"),
                       calls("topology.deploy")), "us")
    m["topology.attempts_per_deploy"] = metric(
        ratio(calls("topology.build_attempt"), calls("topology.deploy")), "count")
    m["topology.assign_channels.self_ms"] = metric(self_ms("topology.assign_channels"), "ms")
    m["metrics.aggregate.self_ms"] = metric(self_ms("metrics.aggregate"), "ms")
    m["experiments.csv.self_ms"] = metric(
        self_ms("experiments.aggregate_csv") + self_ms("experiments.runs_csv"), "ms")
    m["experiments.pool_overhead_ms"] = metric(
        untraced["grid_ns"] / 1e6 - run_ms_untraced / workers, "ms")
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms"] = metric(layer_ms[layer], "ms")
    m["trace.wrapper_ns"] = metric(c_in + c_out, "ns")
    m["trace.overhead_frac"] = metric(traced_ms / serial_ms - 1, "fraction")
    m["trace.unattributed_frac"] = metric(1 - sum(layer_ms.values()) / serial_ms, "fraction")

    problems = []
    root_share = stats["cli.main"]["total_ns"] / traced["wall_ns"]
    if not 0.99 <= root_share <= 1.0:
        problems.append(f"span tree covers {root_share:.4f} of the traced wall")
    if half_slots != 2 * counts.get("sim_slots", 0):
        problems.append(f"{half_slots} half-slots for {counts.get('sim_slots')} slots")
    if n_nodes is not None and total_selects != n_nodes * half_slots:
        problems.append(f"{total_selects} selections for {half_slots} half-slots "
                        f"of {n_nodes} nodes")
    capped = sum(1 for r in rows if r["completed"] == "incomplete")
    if counts.get("capped_runs", 0) != capped:
        problems.append(f"{counts.get('capped_runs', 0)} capped replications traced, "
                        f"{capped} incomplete rows")
    if calls("engine.run_once") != len(rows):
        problems.append(f"{calls('engine.run_once')} replications traced, {len(rows)} rows")
    if problems:
        raise GateError("trace: " + "; ".join(problems))
    return m


# ---------------------------------------------------------------- main

def context(workload, seed, extra):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    package = os.path.join(SRC, "rendezsim")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit, "src_sha256": src.hexdigest(),
            **extra}


def measure(spec, name, seed, seconds, trace, runs_override, work):
    w = spec["workloads"][name]
    cell = w["cell"]
    if runs_override is not None:
        runs = runs_override
    else:
        runs = w["trace_runs"] if trace else cell["runs"]
    attempted = n_cells(cell) * runs
    n_nodes = cell["nodes"][0] if len(cell["nodes"]) == 1 else None
    config = os.path.join(work, "grid.txt")
    with open(config, "w") as fh:
        fh.write(grid_config(name, cell, runs))

    if trace:
        untraced = run_sweep("sweep", config, seed, w["workers"], work, "untraced")
        rows = gate_timed(untraced, attempted, w["workers"])
        traced = run_sweep("traced", config, seed, 1, work, "traced")
        gate(traced["runs_text"], traced["agg_text"], attempted)
        if sha256(traced["runs_text"]) != sha256(untraced["runs_text"]):
            raise GateError("traced sweep's per-run CSV differs from the untraced one")
        audit_sample(untraced["runs_text"], seed, work)
        metrics = per_layer(untraced, traced, w["workers"], n_nodes, rows)
        return metrics, attempted, {"runs_csv_sha256": sha256(untraced["runs_text"])}

    setup_seconds(config, work)   # compiles bytecode; users do not pay this per run
    # Half the probes before the sweeps and half after: the host's speed
    # drifts for seconds at a time, and one burst of probes meets one phase.
    setups = [setup_seconds(config, work) for _ in range(SETUP_PROBES // 2)]
    reps = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        reps.append(run_sweep("sweep", config, seed, w["workers"], work, f"rep{len(reps)}"))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    setups += [setup_seconds(config, work) for _ in range(SETUP_PROBES - len(setups))]
    digests = set()
    for rep in reps:
        rows = gate_timed(rep, attempted, w["workers"])
        digests.add(sha256(rep["runs_text"]))
    if len(digests) != 1:
        raise GateError("repeated sweeps at one seed wrote different per-run CSVs")
    audit_sample(reps[0]["runs_text"], seed, work)
    metrics, notes = end_to_end(reps, setups, attempted, rows)
    notes["runs_csv_sha256"] = digests.pop()
    return metrics, len(reps) * attempted, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=None,
                        help="replications per cell instead of the workload's (smoke tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rendezsim", "cli.py")):
        print(f"perfbench: no rendezsim source under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(spec['workloads'])}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, "_work"))
    correct, failed = True, 0
    try:
        metrics, attempted, notes = measure(spec, args.workload, args.seed,
                                            args.seconds, args.trace, args.runs, work)
    except GateError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        metrics, attempted, notes, correct, failed = {}, 1, {}, False, 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, m in metrics.items():
        print(f"{key:42s} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"context": context(args.workload, args.seed, notes)}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
