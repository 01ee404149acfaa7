"""Metric formula tests with hand-computed and independently recomputed values,
and the aggregate row that experiments writes of them."""

import pytest

from rendezsim.engine import RunConfig, RunRecord, run_once
from rendezsim.experiments import AGGREGATE_COLUMNS, aggregate_row, fmt
from rendezsim.metrics import AggregationError, aggregate, ctm, ptm
from rendezsim.pr_activity import PrParams


def record(t_n1, t_full=None, ctm=100.0, termination="baseline"):
    """A hand-built RunRecord with the given marks (t_full None: never full)."""
    cfg = RunConfig(protocol="rcs", termination=termination, n_nodes=10,
                    pool_size=10, similarity=2, pr=PrParams.off())
    return RunRecord(cfg=cfg, slots_used=0, t_n1=t_n1, t_full=t_full or [None] * len(t_n1),
                     ptm=[ctm] * len(t_n1), ctm=ctm, final_dnl=[])


def test_ptm_partial_hit():
    assert ptm({2}, {2, 3}) == 50.0


def test_ptm_identity():
    assert ptm({2, 3}, {2, 3}) == 100.0


def test_ptm_false_positive_scores_zero():
    assert ptm({4}, {2, 3}) == 0.0


def test_ctm_examples():
    assert ctm([100.0, 100.0, 100.0]) == 100.0
    assert ctm([50.0, 100.0]) == 75.0
    with pytest.raises(ValueError):
        ctm([])


def test_attr_single_run_mean_over_nodes():
    summary = record([2.0, 4.0]).summary()
    assert (summary.policy, summary.n1, summary.full) == (3.0, 3.0, None)
    assert aggregate([summary]).attr_policy == 3.0


def test_attr_is_a_nested_mean():
    # per-run node means first, then the mean over runs: the 3-node run does
    # not get more weight than the 1-node value would suggest
    runs = [record([2.0, 4.0, 3.0]).summary(), record([5.0]).summary()]
    assert [s.policy for s in runs] == [3.0, 5.0]
    assert aggregate(runs).attr_policy == 4.0


def test_aggregate_without_runs_raises():
    with pytest.raises(AggregationError):
        aggregate([])


def test_ptdd_is_full_minus_n1():
    runs = [record([10.0, 12.0], t_full=[15.0, 19.0]).summary(),
            record([8.0], t_full=[10.0]).summary()]
    assert [(s.n1, s.full) for s in runs] == [(11.0, 17.0), (8.0, 10.0)]
    agg = aggregate(runs)
    assert agg.attr_full == (17.0 + 10.0) / 2
    assert agg.attr_n1 == (11.0 + 8.0) / 2
    assert agg.ptdd == pytest.approx((17.0 + 10.0) / 2 - (11.0 + 8.0) / 2)


def test_aggregate_handles_runs_without_policy_marks():
    runs = [record([4.0], t_full=[6.0], termination="run_to_full").summary(),
            record([6.0], t_full=[10.0], termination="run_to_full").summary()]
    agg = aggregate(runs)
    assert agg.attr_policy is None
    assert agg.attr_n1 == 5.0
    assert agg.attr_full == 8.0
    assert agg.ptdd == 3.0
    assert agg.atm == 100.0
    assert agg.runs == 2


def test_ci95_halfwidth():
    runs = [record([3.0], ctm=90.0).summary(), record([5.0], ctm=100.0).summary()]
    agg = aggregate(runs)
    # sample std of [3,5] is sqrt(2); 1.96 * sqrt(2)/sqrt(2) = 1.96
    assert agg.attr_ci95 == pytest.approx(1.96)
    assert agg.atm_ci95 == pytest.approx(1.96 * (50 ** 0.5) / (2 ** 0.5))


def test_metrics_match_independent_recomputation_on_real_runs():
    # recompute CTM/ATTR from raw tables by a second path
    records = []
    for seed in range(5):
        cfg = RunConfig(protocol="mrdmca", termination="controlled", n_nodes=5,
                        pool_size=10, similarity=2, pr=PrParams.off(),
                        seed=seed, topo_seed=1234, chan_seed=5678)
        records.append(run_once(cfg))
    from rendezsim.topology import deploy
    from rendezsim.engine import default_area_side
    side = default_area_side(5)
    topo = deploy(5, (side, side), 100.0, 1234)
    for rec in records:
        scores = [100.0 * len(rec.final_dnl[i] & topo.dnl_star[i])
                  / len(topo.dnl_star[i]) for i in range(5)]
        assert rec.ctm == pytest.approx(sum(scores) / 5)
    assert aggregate([r.summary() for r in records]).attr_policy == pytest.approx(
        sum(sum(r.t_term) / 5 for r in records) / 5)


def test_fmt_and_row_layout():
    assert fmt(None) == ""
    assert fmt(3.14159) == "3.1416"
    assert fmt(7) == "7"
    cfg = RunConfig(protocol="rcs", termination="baseline", n_nodes=10,
                    pool_size=10, similarity=2, pr=PrParams.high())
    runs = [record([3.0], ctm=90.0).summary(), record([5.0], ctm=100.0).summary()]
    row = aggregate_row("demo", cfg, aggregate(runs))
    assert len(row) == len(AGGREGATE_COLUMNS)
    assert row[:8] == ["demo", "rcs", "baseline", "10", "10", "2", "high", "2"]
    assert row[8] == "4.0000"   # attr_policy
    assert row[10] == ""        # attr_full missing
    assert row[11] == "95.0000"
