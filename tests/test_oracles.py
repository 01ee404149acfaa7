"""Closed-form oracles: simulated times against laws derived independently of
the engine.

Two nodes under rcs with PR off: each half-slot both draw a channel uniformly
from the pool of C, on their own streams, and they handshake when they pick
the same channel and both can use it, with probability p = g/C², where
g = |S0 ∩ S1| is the size of their common channel set. The first handshake
is then geometric in half-slots, and a half-slot is half a slot, so
E[TTR | g] = C²/(2g). Both nodes learn all N = 2 at that handshake, so each
node's t_n1 is the TTR.
"""

import math
import random

import pytest

from rendezsim.engine import RunConfig, run_once
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
