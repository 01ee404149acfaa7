"""Closed-form oracles: simulated times against laws derived independently of
the engine.

Two nodes under rcs with PR off: each half-slot both draw a channel uniformly
from the pool of C, on their own streams, and they handshake when they pick
the same channel and both can use it, with probability p = g/C², where
g = |S0 ∩ S1| is the size of their common channel set. The first handshake
is then geometric in half-slots, and a half-slot is half a slot, so
E[TTR | g] = C²/(2g). Both nodes learn all N = 2 at that handshake, so each
node's t_n1 is the TTR.

With PR on, a handshake also needs its channel OFF for the whole half-slot.
Each channel's state at half-slot starts is a two-state Markov chain, so the
number m of common channels OFF at a half-slot's start is one too, and the
half-slots to the first handshake follow from it exactly
(rcs_pr_half_slot_moments).

Two modular clocks of one prime modulus p with different rates r1, r2 share
an index at exactly one step in every p: k(r1 - r2) ≡ j2 - j1 (mod p) has one
solution k (Theis, Thomas & DaSilva, "Rendezvous for Cognitive Radios", IEEE
TMC 2011).
"""

import math
import random

import pytest

from rendezsim.engine import RunConfig, run_once
from rendezsim.hopping import _modular_windows
from rendezsim.pr_activity import PrParams
from rendezsim.topology import assign_channels


@pytest.mark.parametrize("pool, similarity, runs", [(3, 1, 6000), (10, 2, 3000), (20, 2, 1500)])
def test_rcs_pair_rendezvous_time_is_geometric(pool, similarity, runs):
    # run k's TTR over its predicted mean is H_k·p_k, H_k ~ Geometric(p_k)
    # half-slots, so it has mean 1 and variance 1 - p_k; the band is four
    # standard errors of their mean under that law
    ratios, variances = [], []
    for seed in range(runs):
        master = random.Random(seed)  # as run_once derives its seeds
        _topo_seed, chan_seed = master.getrandbits(63), master.getrandbits(63)
        s0, s1 = assign_channels(2, pool, similarity, chan_seed)
        g = len(set(s0) & set(s1))
        record = run_once(RunConfig("rcs", "baseline", 2, pool, similarity, PrParams.off(),
                                    seed=seed))
        assert record.t_n1[0] == record.t_n1[1]
        ratios.append(record.t_n1[0] / (pool ** 2 / (2 * g)))
        variances.append(1 - g / pool ** 2)
    band = 4 * math.sqrt(sum(variances)) / runs
    assert abs(sum(ratios) / runs - 1) < band, (sum(ratios) / runs, band)


def _binomial(n, q):
    return [math.comb(n, k) * q ** k * (1 - q) ** (n - k) for k in range(n + 1)]


def _convolve(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _solve(a, b):
    """x with a·x = b, by Gauss-Jordan elimination with partial pivoting."""
    n = len(b)
    rows = [row + [v] for row, v in zip(a, b)]
    for i in range(n):
        pivot = max(range(i, n), key=lambda r: abs(rows[r][i]))
        rows[i], rows[pivot] = rows[pivot], rows[i]
        for r in range(n):
            if r != i:
                f = rows[r][i] / rows[i][i]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[i])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def rcs_pr_half_slot_moments(pool, g, pr):
    """E[H] and E[H²] of the half-slots H to two rcs nodes' first handshake
    with PR on, from the chain on m, the number of their g common channels
    OFF at a half-slot's start.

    A half-slot succeeds with probability m·e^(-λx/2)/C²: both pick one of
    the m channels and it stays OFF throughout. On failure every channel
    moves by the two-state transition over half a slot, except a common
    channel both picked while it was OFF: it is known to have left OFF in
    the half-slot, so it is OFF at the next start with probability
    (P_OFF→OFF(½) - e^(-λx/2)) / (1 - e^(-λx/2)). m starts from
    Binomial(g, 1 - u).
    """
    u = pr.utilization
    stay = math.exp(-pr.lambda_x / 2)
    mixed = math.exp(-(pr.lambda_x + pr.lambda_y) / 2)
    off_off, on_off = (1 - u) + u * mixed, (1 - u) * (1 - mixed)
    left_off = (off_off - stay) / (1 - stay)
    pick = 1 / pool ** 2  # both nodes on one given channel
    # fail[m][m2]: probability of failing from m and starting the next half-slot at m2
    fail = []
    for m in range(g + 1):
        free = _convolve(_binomial(m, off_off), _binomial(g - m, on_off))
        row = [(1 - m * pick) * x for x in free]
        if m:
            left = _convolve(_convolve(_binomial(m - 1, off_off), _binomial(g - m, on_off)),
                             [1 - left_off, left_off])
            row = [x + m * pick * (1 - stay) * y for x, y in zip(row, left)]
        fail.append(row)
    # E[H] = 1 + fail·E[H'], and E[H²] = 1 + 2(E[H] - 1) + fail·E[H'²]
    system = [[(m == m2) - x for m2, x in enumerate(row)] for m, row in enumerate(fail)]
    first = _solve(system, [1.0] * (g + 1))
    second = _solve(system, [2 * t - 1 for t in first])
    start = _binomial(g, 1 - u)
    return (sum(q * t for q, t in zip(start, first)),
            sum(q * t for q, t in zip(start, second)))


@pytest.mark.parametrize("pool, similarity, level, runs", [(10, 2, "high", 2500),
                                                           (5, 1, "0.5:0.5", 5000)])
def test_rcs_pair_rendezvous_time_follows_the_pr_chain(pool, similarity, level, runs):
    # run k's TTR over its exact mean, E[H | g_k] / 2, has mean 1 and
    # variance Var(H | g_k) / E[H | g_k]²; the band is four standard errors
    # of their mean under the chain's own moments
    pr = PrParams.from_name(level)
    moments = {}
    ratios, variances = [], []
    for seed in range(runs):
        master = random.Random(seed)  # as run_once derives its seeds
        _topo_seed, chan_seed = master.getrandbits(63), master.getrandbits(63)
        s0, s1 = assign_channels(2, pool, similarity, chan_seed)
        g = len(set(s0) & set(s1))
        if g not in moments:
            moments[g] = rcs_pr_half_slot_moments(pool, g, pr)
        mean, square = moments[g]
        record = run_once(RunConfig("rcs", "baseline", 2, pool, similarity, pr, seed=seed))
        assert record.t_n1[0] == record.t_n1[1]
        ratios.append(record.t_n1[0] / (mean / 2))
        variances.append(square / mean ** 2 - 1)
    band = 4 * math.sqrt(sum(variances)) / runs
    assert abs(sum(ratios) / runs - 1) < band, (sum(ratios) / runs, band)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_modular_clocks_of_one_prime_meet_once_in_every_p_steps(p):
    # on p channels no index overflows, so two windows agree on a channel
    # exactly where their indices agree: once in steps 1..p at one half-slot
    # a step (emca), and in both halves of one slot in half-slots 1..2p for
    # MCA's dwelling clock
    labels = list(range(1, p + 1))
    states = [(j, r) for j in range(p) for r in range(1, p)]
    windows = {(per_slot, j, r): next(_modular_windows(labels, random.Random(0).getrandbits,
                                                       p, j, r, per_slot))
               for per_slot in (False, True) for j, r in states}
    checked = 0
    for j1, r1 in states:
        for j2, r2 in states:
            if r1 == r2:
                continue
            a, b = windows[False, j1, r1], windows[False, j2, r2]
            assert sum(x == y for x, y in zip(a[:p], b[:p])) == 1, (j1, r1, j2, r2)
            a, b = windows[True, j1, r1], windows[True, j2, r2]
            meets = [k for k in range(2 * p) if a[k] == b[k]]
            assert len(meets) == 2 and meets[0] % 2 == 0 and meets[1] == meets[0] + 1
            checked += 1
    assert checked == p * p * (p - 1) * (p - 2)
