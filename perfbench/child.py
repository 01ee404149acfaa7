"""One rendezsim command in a fresh interpreter, measured from inside.

perfbench/run.py starts this script once per measurement so that every sweep
pays the start-up a command-line user pays and reports its own peak RSS:

    python3 perfbench/child.py setup  OUT.json CONFIG
    python3 perfbench/child.py sweep  OUT.json SWEEP-ARGV...
    python3 perfbench/child.py traced OUT.json SWEEP-ARGV...

`setup` imports rendezsim's CLI, parses the grid config and records the
wall-clock instant it finished. `sweep` runs the sweep untraced except for a
thin timer on `experiments.run_once` (one sample per replication, gathered
from pool workers too) and one on `run_grid`. `traced` installs timing wrappers on every layer
boundary, calibrates their cost, and records calls, inclusive and self time
per wrapped name. The results go to OUT.json.
"""

import json
import os
import resource
import statistics
import sys
import time
from functools import update_wrapper

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

clock = time.perf_counter_ns


def _peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _check_source():
    import rendezsim
    if not os.path.abspath(rendezsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"child: rendezsim imported from {rendezsim.__file__}, "
                         f"not from {SRC}")


def cmd_setup(out, config):
    import rendezsim.cli  # noqa: F401  (the import is what is timed)
    from rendezsim.experiments import parse_grid_config
    with open(config) as fh:
        parse_grid_config(fh.read())
    done = time.time()
    _check_source()
    _dump(out, {"done_epoch_s": done})


class ReplicationTimer:
    """Thin timer on experiments.run_once: (seed, ns) per replication.

    Pool workers are forked from this process and inherit the patched name;
    each worker writes its own samples and peak RSS to OUT.json.<pid> when it
    exits, through a multiprocessing finalizer.
    """

    def __init__(self, out):
        self.out = out
        self.owner = os.getpid()
        self.samples = []

    def install(self):
        import rendezsim.experiments as ex
        real = ex.run_once
        samples = self.samples

        def run_once(cfg, *args, **kwargs):
            if not samples and os.getpid() != self.owner:
                self._register_worker_dump()
            t0 = clock()
            try:
                return real(cfg, *args, **kwargs)
            finally:
                samples.append((cfg.seed, clock() - t0))

        ex.run_once = update_wrapper(run_once, real)

    def _register_worker_dump(self):
        from multiprocessing.util import Finalize
        path = f"{self.out}.{os.getpid()}"
        Finalize(None, lambda: _dump(path, {"samples": self.samples,
                                            "peak_rss_kb": _peak_rss_kb()}),
                 exitpriority=100)

    def worker_results(self):
        directory, base = os.path.split(self.out)
        found = []
        for name in sorted(os.listdir(directory)):
            if name.startswith(base + "."):
                path = os.path.join(directory, name)
                with open(path) as fh:
                    found.append(json.load(fh))
                os.remove(path)
        return found


def _timed_run_grid(cli, sink):
    real = cli.run_grid

    def run_grid(*args, **kwargs):
        t0 = clock()
        try:
            return real(*args, **kwargs)
        finally:
            sink["grid_ns"] = clock() - t0

    cli.run_grid = update_wrapper(run_grid, real)


def cmd_sweep(out, argv):
    import rendezsim.cli as cli
    _check_source()
    timer = ReplicationTimer(out)
    timer.install()
    result = {}
    _timed_run_grid(cli, result)
    t0 = clock()
    rc = cli.main(argv)
    result["wall_ns"] = clock() - t0
    workers = timer.worker_results()
    result.update(
        rc=rc,
        samples=timer.samples + [s for w in workers for s in w["samples"]],
        peak_rss_kb=_peak_rss_kb() + sum(w["peak_rss_kb"] for w in workers),
        workers_seen=len(workers),
    )
    _dump(out, result)


class Tracer:
    """Span timer for named functions, with self time and nesting counts.

    A span's self time is its duration minus the durations of the wrapped
    calls made inside it. `nested` counts those inner wrapped calls, so the
    calibrated wrapper cost can be taken off the caller that paid it.
    """

    def __init__(self):
        self.names = []
        self.calls = []
        self.total = []
        self.self_ns = []
        self.nested = []
        self.counts = {}
        self.stack = [[0, 0]]   # [child_ns, child_calls] of each open span

    def wrap(self, fn, name, observe=None, on_raise=None):
        index = len(self.names)
        self.names.append(name)
        for column in (self.calls, self.total, self.self_ns, self.nested):
            column.append(0)
        calls, total, self_ns, nested = self.calls, self.total, self.self_ns, self.nested
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result, args)
                return result
            except BaseException as exc:
                if on_raise is not None:
                    on_raise(exc, args)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                calls[index] += 1
                total[index] += dt
                self_ns[index] += dt - frame[0]
                nested[index] += frame[1]
                parent = stack[-1]
                parent[0] += dt
                parent[1] += 1

        return update_wrapper(wrapper, fn)

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def stats(self):
        return {name: {"calls": self.calls[i], "total_ns": self.total[i],
                       "self_ns": self.self_ns[i], "nested": self.nested[i]}
                for i, name in enumerate(self.names)}


def calibrate(inside, outside, repeats=7, n=200_000):
    """Append `repeats` measurements of one empty wrapped call's cost in ns.

    The part inside the span lands in the callee's self time (`inside`), the
    rest in the caller's (`outside`); each is the mean over `n` calls.
    """
    def noop(a, b):
        return None

    for _ in range(repeats):
        t0 = clock()
        for _ in range(n):
            noop(0, 1)
        bare = clock() - t0
        tracer = Tracer()
        wrapped = tracer.wrap(noop, "noop")
        t0 = clock()
        for _ in range(n):
            wrapped(0, 1)
        elapsed = clock() - t0
        extra = (elapsed - bare) / n
        in_span = (tracer.total[0] - bare) / n
        inside.append(in_span)
        outside.append(extra - in_span)


def install_tracer(tracer):
    """Wrap every layer boundary the sweep path looks up at call time."""
    import rendezsim.cli as cli
    import rendezsim.engine as engine
    import rendezsim.experiments as ex
    import rendezsim.protocol as protocol
    import rendezsim.topology as topology
    from rendezsim.hopping import RandomClock, ModularClock, DualModularClock
    from rendezsim.pr_activity import ChannelOccupancy

    def patch(owner, attr, name, **hooks):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, **hooks))

    def run_done(record, args):
        tracer.count("sim_slots", record.slots_used)

    def run_capped(exc, args):
        if isinstance(exc, engine.IncompleteRun):
            tracer.count("sim_slots", args[0].max_slots)
            tracer.count("capped_runs")

    def resolved(groups, args):
        tracer.count("resolve_entries", len(args[0]))
        tracer.count("groups", len(groups))

    def busy(answer, args):
        if answer:
            tracer.count("busy_answers")

    def paired(pairs, args):
        tracer.count("pairs", len(pairs))

    patch(cli, "run_grid", "experiments.run_grid")
    patch(cli, "aggregate_csv", "experiments.aggregate_csv")
    patch(cli, "runs_csv", "experiments.runs_csv")
    patch(ex, "aggregate", "metrics.aggregate")
    patch(ex, "run_once", "engine.run_once", observe=run_done, on_raise=run_capped)
    patch(engine, "deploy", "topology.deploy")
    patch(topology, "_build_topology", "topology.build_attempt")
    patch(engine, "assign_channels", "topology.assign_channels")
    patch(engine, "resolve_half_slot", "engine.resolve_half_slot", observe=resolved)
    patch(engine, "handshake_pairs", "engine.handshake_pairs", observe=paired)
    patch(protocol, "process_handshake", "protocol.process_handshake")
    patch(protocol, "check_termination", "protocol.check_termination")
    patch(ChannelOccupancy, "busy_during", "pr_activity.busy_during", observe=busy)
    for cls in (RandomClock, ModularClock, DualModularClock):
        patch(cls, "select", f"hopping.select.{cls.__name__}")
    return cli


def cmd_traced(out, argv):
    import rendezsim.cli  # noqa: F401
    _check_source()
    inside, outside = [], []
    calibrate(inside, outside)
    tracer = Tracer()
    cli = install_tracer(tracer)
    main = tracer.wrap(cli.main, "cli.main")
    t0 = clock()
    rc = main(argv)
    wall = clock() - t0
    calibrate(inside, outside)   # host speed drifts; use both ends of the sweep
    _dump(out, {"rc": rc, "wall_ns": wall, "stats": tracer.stats(),
                "counts": tracer.counts,
                "wrapper_in_ns": statistics.median(inside),
                "wrapper_out_ns": statistics.median(outside)})


def _dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def main(argv):
    mode, out, rest = argv[0], argv[1], argv[2:]
    if mode == "setup":
        cmd_setup(out, rest[0])
    elif mode == "sweep":
        cmd_sweep(out, rest)
    elif mode == "traced":
        cmd_traced(out, rest)
    else:
        raise SystemExit(f"child: unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
