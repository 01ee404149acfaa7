"""Slot-synchronous Monte-Carlo simulator for multihop cognitive-radio rendezvous.

Provides random connected deployments, ON/OFF primary-radio activity,
dual-modular-clock and baseline channel-hopping engines, a coordinate-assisted
neighbour-discovery protocol with one N-1 stopping rule under three
termination modes, and the ATTR/ATM/PTDD metric pipeline.
"""

from .topology import GroundTopology, DeploymentError, deploy, assign_channels
from .pr_activity import PrParams, ChannelOccupancy
from .hopping import DualModularClock, RandomClock, ModularClock, make_clock, split_primality
from .protocol import NodeState, process_handshake, check_termination
from .engine import RunConfig, RunRecord, RunSummary, run_once, resolve_half_slot, default_area_side
from .metrics import ptm, ctm, aggregate, AggregateMetrics, AGGREGATE_COLUMNS
from .experiments import ScenarioGrid, run_grid, paper_grid, parse_grid_config

__version__ = "0.1.0"
