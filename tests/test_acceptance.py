"""Acceptance suite: one test per published acceptance criterion.

Each test prints a PASS line with the measured values when it succeeds, so a
verbose run doubles as a results table. Incomplete replications (safety-cap
hits) are excluded from the means and reported; they are bounded to a small
fraction of each batch.
"""

import functools
import math
import multiprocessing
import random
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations

import pytest

from rendezsim.engine import IncompleteRun, RunConfig, run_once
from rendezsim.experiments import derive_seed
from rendezsim.hopping import _dual_windows, split_primality
from rendezsim.metrics import ctm as ctm_of
from rendezsim.pr_activity import ChannelOccupancy, PrParams
from rendezsim.topology import deploy

MASTER = 20260826


_pool = None


def run_or_none(cfg):
    """run_once's record, or None for a run that hits the safety cap."""
    try:
        return run_once(cfg)
    except IncompleteRun:
        return None


@pytest.fixture(scope="module", autouse=True)
def _shut_down_the_pool():
    # at this module's end, as other modules count the live child processes
    global _pool
    yield
    if _pool is not None:
        _pool.shutdown()
        _pool = None


@functools.cache
def run_cell(protocol, termination, n, c, m, pr, runs, cap=60_000,
             max_incomplete_frac=0.05):
    """Replicate one scenario cell; returns (records, n_incomplete).

    Cached by its arguments, so a cell that several criteria (or both of
    criterion 3's loops) ask for is simulated once per session. The runs go
    to a pool of two spawned processes, made on first use and shut down when
    this module's tests end; every run is a pure function of its config.
    """
    global _pool
    if _pool is None:
        _pool = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn"))
    cfgs = [
        RunConfig(
            protocol=protocol, termination=termination, n_nodes=n,
            pool_size=c, similarity=m, pr=PrParams.from_name(pr),
            seed=derive_seed(MASTER, protocol, termination, n, c, m, pr, r),
            topo_seed=derive_seed(MASTER, "topo", n, r),
            chan_seed=derive_seed(MASTER, "chan", n, c, m, r),
            max_slots=cap,
        )
        for r in range(runs)
    ]
    results = list(_pool.map(run_or_none, cfgs, chunksize=8))
    records = [rec for rec in results if rec is not None]
    incomplete = len(results) - len(records)
    assert incomplete <= max_incomplete_frac * runs, (
        f"{incomplete}/{runs} replications hit the safety cap")
    return tuple(records), incomplete


def attr_of(records, which):
    return statistics.mean(getattr(r.summary(), which) for r in records)


def atm_of(records):
    return statistics.mean(r.ctm for r in records)


def ci95_above_zero(values):
    mean = statistics.mean(values)
    half = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
    return mean - half > 0


# 1. Controlled-termination correctness ---------------------------------------

def test_criterion_1_controlled_termination_always_fully_correct():
    checked = 0
    skipped = 0
    for n in (3, 10):
        for m in (2, 5):
            for pr in ("off", "high"):
                records, inc = run_cell("mrdmca", "controlled", n, 10, m, pr,
                                        runs=200, cap=30_000)
                skipped += inc
                for rec in records:
                    assert rec.ctm == 100.0, (
                        f"run seed {rec.cfg.seed} terminated with ATM {rec.ctm}")
                checked += len(records)
    print(f"PASS criterion 1: ATM=100.0000 in all {checked} controlled runs "
          f"({skipped} capped runs excluded)")


# 2. Premature-termination witness --------------------------------------------

def test_criterion_2_baseline_atm_in_band():
    results = []
    for protocol in ("rcs", "mca", "emca", "mdmca"):
        for pr in ("off", "high"):
            records, _ = run_cell(protocol, "baseline", 10, 10, 2, pr, runs=200)
            atm = atm_of(records)
            assert 80.0 <= atm <= 97.0, f"{protocol}/{pr}: ATM {atm:.2f}"
            results.append(f"{protocol}/{pr}={atm:.1f}")
    print("PASS criterion 2: baseline ATM in [80, 97]: " + ", ".join(results))


# 3. PTDD sign and structure ---------------------------------------------------

def test_criterion_3_ptdd_sign_and_magnitude():
    # controlled termination stops exactly at full discovery
    records, _ = run_cell("mrdmca", "controlled", 10, 10, 2, "off", runs=200,
                          cap=30_000)
    for rec in records:
        assert rec.t_term == rec.t_full
    lines = ["mrdmca controlled: t_term=t_full in all runs"]

    # every N-1 baseline shows a strictly positive delay (95% confidence)
    for protocol in ("rcs", "mca", "emca", "mdmca"):
        for pr in ("off", "high"):
            records, _ = run_cell(protocol, "run_to_full", 10, 10, 2, pr,
                                  runs=500)
            delays = [s.full - s.n1 for s in (rec.summary() for rec in records)]
            assert ci95_above_zero(delays), f"{protocol}/{pr} PTDD not > 0"

    # magnitude within a factor of two of the reference delays
    bands = {(3, "off"): 3.0, (10, "off"): 14.0,
             (3, "high"): 23.0, (10, "high"): 104.0}
    for (n, pr), ref in bands.items():
        records, _ = run_cell("mdmca", "run_to_full", n, 10, 2, pr, runs=500)
        delay = attr_of(records, "full") - attr_of(records, "n1")
        assert ref / 2 <= delay <= ref * 2, (
            f"N={n}/{pr}: PTDD {delay:.2f} outside [{ref / 2}, {ref * 2}]")
        lines.append(f"N={n}/{pr}: PTDD={delay:.2f} (ref {ref})")
    print("PASS criterion 3: " + "; ".join(lines))


# 4. Scalability ordering ------------------------------------------------------

def test_criterion_4_scalability_ordering_and_improvement():
    means = {}
    for protocol in ("rcs", "mca", "emca", "mrdmca"):
        records, _ = run_cell(protocol, "controlled", 20, 20, 2, "high",
                              runs=300, cap=200_000)
        means[protocol] = attr_of(records, "policy")
    assert means["mrdmca"] < means["emca"] < means["mca"] < means["rcs"], means
    improvement = 100.0 * (means["rcs"] - means["mrdmca"]) / means["rcs"]
    assert improvement >= 50.0, f"improvement only {improvement:.1f}%"
    print("PASS criterion 4: ATTR "
          + " < ".join(f"{p}={means[p]:.0f}"
                       for p in ("mrdmca", "emca", "mca", "rcs"))
          + f"; improvement over rcs {improvement:.1f}%")


# 5. Baseline-scenario ATTR penalty ---------------------------------------------

def test_criterion_5_controlled_attr_penalty_in_band():
    penalties = []
    for m in (2, 5):
        base, _ = run_cell("mdmca", "baseline", 10, 10, m, "off", runs=500)
        ctrl, _ = run_cell("mrdmca", "controlled", 10, 10, m, "off", runs=500)
        penalty = 100.0 * (attr_of(ctrl, "policy") - attr_of(base, "policy")) \
            / attr_of(base, "policy")
        assert 5.0 <= penalty <= 30.0, f"m={m}: penalty {penalty:.1f}%"
        penalties.append(f"m={m}: +{penalty:.1f}%")
    print("PASS criterion 5: controlled-termination ATTR penalty "
          + ", ".join(penalties))


# 6. PR model fidelity -----------------------------------------------------------

def test_criterion_6_pr_process_matches_closed_form():
    params = PrParams.high()
    occ = ChannelOccupancy(params, 1, rng_seed=MASTER)
    halves = 200_000  # 10^5 slots
    busy = sum(occ.is_busy(1, h) for h in range(halves))
    frac = busy / halves
    assert abs(frac - params.utilization) < 0.02

    # sojourn means, sampled on a fine grid to resolve short OFF spells
    occ = ChannelOccupancy(params, 1, rng_seed=MASTER + 1)
    dt = 0.05
    states = [occ.is_busy(1, h * dt * 2) for h in range(2_000_000)]
    spans = {True: [], False: []}
    run_len = 1
    for prev, cur in zip(states, states[1:]):
        if cur == prev:
            run_len += 1
        else:
            spans[prev].append(run_len * dt)
            run_len = 1
    mean_on = statistics.mean(spans[True])
    mean_off = statistics.mean(spans[False])
    assert abs(mean_on - 1 / params.lambda_y) / (1 / params.lambda_y) < 0.05
    assert abs(mean_off - 1 / params.lambda_x) / (1 / params.lambda_x) < 0.05
    print(f"PASS criterion 6: busy fraction {frac:.3f} (target "
          f"{params.utilization}); sojourns ON {mean_on:.2f}/8.5, "
          f"OFF {mean_off:.2f}/1.5 slots")


# 7. Oracle equivalence ------------------------------------------------------------

def test_criterion_7a_unit_disk_oracle():
    for seed in range(1000):
        topo = deploy(10, (400.0, 400.0), 100.0, rng_seed=seed)
        oracle = frozenset(
            (i, j) for i in range(10) for j in range(i + 1, 10)
            if math.dist(topo.coords[i], topo.coords[j]) <= 100.0)
        edges = {(i, j) for i, near in enumerate(topo.dnl_star) for j in near if i < j}
        assert edges == oracle
    print("PASS criterion 7a: unit-disk edges match brute force on 1000 deployments")


def test_criterion_7b_ptm_ctm_oracle_on_hand_built_instances():
    # hand-built 5-node tables with known per-node scores
    cases = [
        # (discovered DNLs, ground DNLs, expected per-node PTM)
        ([{1}, {0, 2}, {1}, {4}, {3}],
         [{1}, {0, 2}, {1}, {4}, {3}],
         [100.0, 100.0, 100.0, 100.0, 100.0]),
        ([{1}, {0}, {1}, {4}, {3}],
         [{1, 2}, {0, 2}, {0, 1}, {4}, {3}],
         [50.0, 50.0, 50.0, 100.0, 100.0]),
    ]
    for discovered, ground, expected in cases:
        scores = [100.0 * len(d & g) / len(g) for d, g in zip(discovered, ground)]
        assert scores == expected
        from rendezsim.metrics import ptm
        assert [ptm(d, g) for d, g in zip(discovered, ground)] == expected
        assert ctm_of(scores) == statistics.mean(expected)
    print("PASS criterion 7b: PTM/CTM match independent recomputation")


def test_criterion_7c_dual_clock_matches_modular_oracle():
    # exhaustive over all channel subsets of {1..12} with size <= 5 and every
    # (j1, j2, r1) state, one reseed window each
    checked = 0
    for size in range(2, 6):
        for chans in combinations(range(1, 13), size):
            mp, np_ = split_primality(chans)
            mi = sorted(chans)
            for j1 in range(size):
                for r1 in range(1, size):
                    j2, r2 = (j1 + 1) % size, r1
                    window = iter(next(_dual_windows(mi, random.Random(0).getrandbits,
                                                     j1, r1, j2, r2)))
                    oj1, oj2 = j1, j2
                    for _ in range(size):
                        oj1 = (oj1 + r1) % size
                        c1 = mp[oj1 % len(mp)] if mp else mi[oj1]
                        oj2 = (oj2 + r2) % size
                        c2 = np_[oj2 % len(np_)] if np_ else mi[oj2]
                        if c2 == c1:
                            oj2 = (oj2 + 1) % size
                            c2 = mi[oj2]
                        assert next(window) == c1
                        assert next(window) == c2
                        checked += 2
    print(f"PASS criterion 7c: dual clock matches arithmetic oracle "
          f"({checked} half-slots)")


# 8. Determinism --------------------------------------------------------------------

def test_criterion_8_cli_byte_identical_csv(tmp_path):
    args = ["run", "--protocol", "mdmca", "--termination", "baseline",
            "--nodes", "5", "--channels", "10", "--similarity", "2",
            "--pr", "high", "--runs", "20", "--seed", "99"]
    outputs = []
    for i, workers in enumerate((1, 2, 4)):
        out = tmp_path / f"out{i}.csv"
        runs_out = tmp_path / f"runs{i}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rendezsim.cli"] + args
            + ["--workers", str(workers), "--out", str(out),
               "--runs-out", str(runs_out)],
            capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes() + runs_out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    print("PASS criterion 8: CLI CSVs byte-identical across workers 1/2/4")


# 9. Rendezvous liveness -------------------------------------------------------------

def test_criterion_9_two_node_rendezvous_bounded():
    c = 10
    bound = 4 * c * c
    worst = 0
    for r in range(1000):
        cfg = RunConfig(
            protocol="mrdmca", termination="controlled", n_nodes=2,
            pool_size=c, similarity=1, pr=PrParams.off(),
            seed=derive_seed(MASTER, "live", r), max_slots=bound)
        rec = run_once(cfg)  # IncompleteRun would fail the test
        worst = max(worst, rec.slots_used)
    assert worst <= bound
    print(f"PASS criterion 9: 1000 two-node runs, worst {worst} slots "
          f"(bound {bound})")
