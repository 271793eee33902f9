"""Hardware design-space exploration (DSE).

The paper evaluates five hand-picked accelerator implementations (Table I)
and searches tilings per dataflow.  This package inverts that: given an
SRAM budget it enumerates candidate :class:`~repro.arch.config.
AcceleratorConfig`\\ s (PE array shapes, IGBuf/WGBuf/LReg capacity splits),
co-searches the best dataflow + tiling per (config, workload) through the
memoized :class:`~repro.engine.SearchEngine`, scores every candidate on
(DRAM traffic, energy, execution time) with the Table II energy model and
the Fig. 19 performance model, and emits the Pareto frontier.

* :mod:`repro.dse.space` -- budget-constrained config enumeration
  (vectorized over the candidate cross product when NumPy is available);
* :mod:`repro.dse.pareto` -- order-invariant Pareto frontiers with an
  associative cross-shard merge;
* :mod:`repro.dse.objectives` -- first-order objective estimator built on
  :mod:`repro.energy.model` and :mod:`repro.arch.performance`;
* :mod:`repro.dse.explore` -- the sweep driver, registered as the ``dse``
  experiment for the run orchestrator and the CLI.
"""

from __future__ import annotations

from repro.dse.explore import DEFAULT_BUDGET_KIB, design_space_exploration
from repro.dse.objectives import config_objectives
from repro.dse.pareto import (
    OBJECTIVE_KEYS,
    dominates,
    merge_frontiers,
    pareto_frontier,
)
from repro.dse.space import CandidateSpace, enumerate_configs

__all__ = [
    "CandidateSpace",
    "DEFAULT_BUDGET_KIB",
    "OBJECTIVE_KEYS",
    "config_objectives",
    "design_space_exploration",
    "dominates",
    "enumerate_configs",
    "merge_frontiers",
    "pareto_frontier",
]
