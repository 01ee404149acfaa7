"""Per-run and cross-run correctness/timing metrics: PTM, CTM, ATTR, ATM, PTDD."""

import math
from dataclasses import dataclass

# exact aggregate CSV column order; floats with 4 decimal places
AGGREGATE_COLUMNS = [
    "scenario", "protocol", "termination", "N", "C", "m", "pr", "runs",
    "attr_policy", "attr_n1", "attr_full", "atm", "ptdd",
    "attr_ci95", "atm_ci95",
]

Z95 = 1.96


class AggregationError(ValueError):
    """An aggregation over no runs or over mixed scenarios."""


def ptm(discovered_dnl, ground_dnl):
    """Percentage of ground direct neighbours present in the discovered DNL.

    Defined as 100 for an empty ground list (unreachable for connected
    deployments with N >= 2).
    """
    if not ground_dnl:
        return 100.0
    hit = len(set(discovered_dnl) & set(ground_dnl))
    return 100.0 * hit / len(ground_dnl)


def ctm(ptm_values):
    """Arithmetic mean of per-node PTM values."""
    values = list(ptm_values)
    if not values:
        raise ValueError("need at least one PTM value")
    return sum(values) / len(values)


def mean_or_none(values):
    """Arithmetic mean, or None when some value is None (a missing mark)."""
    return None if None in values else sum(values) / len(values)


def _ci95(values):
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return Z95 * math.sqrt(var / n)


@dataclass(frozen=True)
class AggregateMetrics:
    runs: int
    attr_policy: float   # None when the policy never fired
    attr_n1: float
    attr_full: float     # None when runs stopped before full discovery
    atm: float
    ptdd: float          # None unless both n1 and full marks exist
    attr_ci95: float
    atm_ci95: float


def aggregate(summaries):
    """ATTR/ATM/PTDD with 95% half-widths over one scenario's run summaries.

    summaries are engine.RunSummary values. An ATTR is the mean over runs of
    one node-mean field (policy stop, first N-1, first full discovery), and
    None when some run lacks the mark; PTDD is attr_full - attr_n1. The ATTR
    half-width is over the policy means, or over the full-discovery means
    when the policy never fired.
    """
    if not summaries:
        raise AggregationError("no runs to aggregate")
    keys = {s.scenario for s in summaries}
    if len(keys) > 1:
        raise AggregationError(f"mixed scenarios in aggregation: {sorted(keys)}")
    policy = [s.policy for s in summaries]
    n1 = [s.n1 for s in summaries]
    full = [s.full for s in summaries]
    ctm_values = [s.ctm for s in summaries]
    attr_policy, attr_n1, attr_full = map(mean_or_none, (policy, n1, full))
    return AggregateMetrics(
        runs=len(summaries),
        attr_policy=attr_policy,
        attr_n1=attr_n1,
        attr_full=attr_full,
        atm=sum(ctm_values) / len(ctm_values),
        ptdd=None if attr_n1 is None or attr_full is None else attr_full - attr_n1,
        attr_ci95=_ci95(full if attr_policy is None else policy),
        atm_ci95=_ci95(ctm_values),
    )


def fmt(value):
    """Float cell with 4 decimal places; empty string for missing values."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def aggregate_row(scenario, cfg, agg):
    """One aggregate CSV row (list of strings) in AGGREGATE_COLUMNS order."""
    return [
        scenario, *cfg.scenario_key(), str(agg.runs), fmt(agg.attr_policy),
        fmt(agg.attr_n1), fmt(agg.attr_full), fmt(agg.atm), fmt(agg.ptdd),
        fmt(agg.attr_ci95), fmt(agg.atm_ci95),
    ]
