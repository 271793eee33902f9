"""Dataflow models: the paper's dataflow and the Fig. 12 baselines.

Every dataflow exposes the same interface (:class:`repro.dataflows.base.Dataflow`):
given a layer and an effective on-chip capacity, search its tiling space and
return the DRAM :class:`~repro.core.traffic.TrafficBreakdown` of the best
tiling found.  The registry (:mod:`repro.dataflows.registry`) lists all of
them.  Searches run through a :class:`repro.engine.SearchEngine`, whose
:meth:`~repro.engine.SearchEngine.found_minimum` reproduces the paper's
"found minimum" curve (best dataflow with best tiling sizes per layer).
"""

from repro.dataflows.base import Dataflow, DataflowResult
from repro.dataflows.ours import OptimalDataflow
from repro.dataflows.outr import OutRA, OutRB
from repro.dataflows.wtr import WtRA, WtRB
from repro.dataflows.inr import InRA, InRB, InRC
from repro.dataflows.registry import ALL_DATAFLOWS, BASELINE_DATAFLOWS, get_dataflow

__all__ = [
    "Dataflow",
    "DataflowResult",
    "OptimalDataflow",
    "OutRA",
    "OutRB",
    "WtRA",
    "WtRB",
    "InRA",
    "InRB",
    "InRC",
    "ALL_DATAFLOWS",
    "BASELINE_DATAFLOWS",
    "get_dataflow",
]
