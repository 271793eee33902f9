"""Common interface for all dataflow traffic models.

A *dataflow* in this repository is an analytic model of the DRAM traffic of a
convolutional layer for a fixed loop order / stationarity choice, with tiling
sizes as free parameters.  Concrete dataflows implement two methods:

* ``tiling_space(layer, capacity)`` -- yield candidate tilings (dataflow-
  specific parameter dictionaries) that fit in ``capacity`` words;
* ``traffic(layer, capacity, tiling)`` -- evaluate the DRAM traffic of one
  candidate.

The shared :meth:`Dataflow.search` then performs the exhaustive search over
the candidate tilings (the paper does the same to remove the impact of badly
chosen tile sizes, Section VI-A).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.core.layer import ConvLayer
from repro.core.traffic import TrafficBreakdown


@dataclass(frozen=True)
class DataflowResult:
    """Best tiling found for one layer and the traffic it produces."""

    dataflow: str
    layer_name: str
    capacity_words: int
    tiling: dict
    traffic: TrafficBreakdown

    @property
    def total(self) -> float:
        return self.traffic.total


class Dataflow(ABC):
    """Base class for analytic dataflow traffic models."""

    #: Short name used in figures and the registry (e.g. ``"OutR-A"``).
    name: str = "abstract"

    #: Whether instances of this dataflow that differ in constructor state
    #: can answer each other's tasks on a layer in one
    #: :meth:`traffic_grid_many` call.  When false the engine groups grid
    #: tasks by the full dataflow signature, so a group holds one dataflow.
    grid_shares_splits: bool = False

    @abstractmethod
    def tiling_space(self, layer: ConvLayer, capacity_words: int):
        """Yield candidate tiling dictionaries that fit in ``capacity_words``."""

    @abstractmethod
    def traffic(self, layer: ConvLayer, capacity_words: int, tiling: dict) -> TrafficBreakdown:
        """DRAM traffic (words) of ``layer`` under one candidate tiling."""

    def search(self, layer: ConvLayer, capacity_words: int) -> DataflowResult:
        """Exhaustively search the tiling space and return the best result."""
        best_tiling = None
        best_traffic = None
        for tiling in self.tiling_space(layer, capacity_words):
            candidate = self.traffic(layer, capacity_words, tiling)
            if best_traffic is None or candidate.total < best_traffic.total:
                best_traffic = candidate
                best_tiling = tiling
        if best_traffic is None:
            raise ValueError(
                f"{self.name}: no tiling of layer {layer.name!r} fits in "
                f"{capacity_words} on-chip words"
            )
        return DataflowResult(
            dataflow=self.name,
            layer_name=layer.name,
            capacity_words=capacity_words,
            tiling=best_tiling,
            traffic=best_traffic,
        )

    # ------------------------------------------------------- vectorized backend

    def supports_grid(self) -> bool:
        """Whether this dataflow implements the vectorized search backend.

        True when the subclass either provides ``grid_arrays(layer)`` (a
        dense candidate grid as broadcast axes and the terms over them,
        evaluated by :func:`repro.dataflows.grid.grid_search`) or overrides
        :meth:`traffic_grid` outright.  Dataflows without either always run
        through the scalar reference search.
        """
        return (
            hasattr(self, "grid_arrays")
            or type(self).traffic_grid is not Dataflow.traffic_grid
        )

    def traffic_grid(self, layer: ConvLayer, capacities) -> list:
        """Vectorized multi-capacity search (NumPy backend).

        Returns one :class:`DataflowResult` per entry of ``capacities``
        (``None`` where no candidate tiling fits), **bit-identical** to
        calling :meth:`search` once per capacity: same best total, and on
        ties the same tiling -- the first candidate in scalar enumeration
        order wins, matching the scalar loop's strictly-smaller update rule.

        The default implementation evaluates the subclass's
        ``grid_arrays(layer)`` candidate grid once -- one broadcast axis per
        tiled dimension, each term over the axes it depends on -- and
        answers every capacity from one selection over it; requires NumPy.
        """
        # Imported here so the scalar models never depend on NumPy.
        from repro.dataflows.grid import grid_search

        if not hasattr(self, "grid_arrays"):
            raise NotImplementedError(
                f"{self.name} does not implement the vectorized search backend"
            )
        return grid_search(self, layer, capacities)

    def traffic_grid_many(self, layer: ConvLayer, requests) -> list:
        """:meth:`traffic_grid` of one engine group's ``(dataflow, capacity)`` requests.

        The engine calls this on the group's first dataflow.  Unless
        :attr:`grid_shares_splits` is set every request names this very
        dataflow, so the default just answers their capacities.
        """
        return self.traffic_grid(layer, [capacity for _, capacity in requests])

    def __repr__(self) -> str:
        return f"<Dataflow {self.name}>"


def candidate_extents(extent: int, max_candidates: int = 48) -> list:
    """Candidate tile sizes along one dimension.

    Includes 1, the full extent, all powers of two, and an even coverage of
    divisor-like values so the exhaustive searches stay fast while covering
    the space densely enough for the traffic functions (which are smooth in
    the tile sizes).

    Both search backends (the scalar generators and the vectorized candidate
    grids of :mod:`repro.dataflows.grid`) rely on these invariants:

    * values are sorted, unique integers in ``[1, extent]``;
    * ``1``, ``extent`` and every power of two ``<= extent`` are present;
    * the list length is bounded by ``2 * max_candidates`` plus a
      logarithmic slack: ``len <= 2 * max_candidates + log2(extent) + 2``
      (the even-coverage stride contributes at most ``2 * max_candidates``
      values, the power-of-two ladder at most ``log2(extent) + 1``, plus the
      endpoint), so candidate grids stay polynomial in ``max_candidates``.
    """
    if extent <= max_candidates:
        return list(range(1, extent + 1))
    values = {1, extent}
    size = 1
    while size < extent:
        values.add(size)
        size *= 2
    step = max(1, extent // max_candidates)
    values.update(range(step, extent + 1, step))
    return sorted(values)
