"""The paper's communication-optimal dataflow wrapped in the Dataflow interface.

The actual tiling selection and traffic model live in
:mod:`repro.core.optimal_dataflow`; this adapter exposes them through the same
``search`` interface as the Fig. 12 baselines so the comparison figures treat
every dataflow uniformly.  The "tiling space" of this dataflow is the analytic
choice of Section IV-A plus its local refinement neighbourhood, rather than an
exhaustive sweep -- that is the whole point of the paper: the optimal tiling
is known in closed form.
"""

from __future__ import annotations

from repro.core.layer import ConvLayer
from repro.core.optimal_dataflow import choose_tiling, choose_tiling_grid_many, dataflow_traffic
from repro.core.tiling import Tiling
from repro.core.traffic import TrafficBreakdown
from repro.dataflows.base import Dataflow, DataflowResult


class OptimalDataflow(Dataflow):
    """Output-block stationary dataflow with ``b*x*y ~= R*z`` (Section IV-A)."""

    name = "Ours"

    #: Instances differ only in their memory split, which the vectorized
    #: search takes per request, so the engine evaluates the tasks of every
    #: split on a layer together (see :meth:`traffic_grid_many`).
    grid_shares_splits = True

    def __init__(
        self,
        psum_words: int = None,
        input_buffer_words: int = None,
        weight_buffer_words: int = None,
    ):
        """Optionally pin a fixed on-chip memory split.

        With no arguments the dataflow may split the effective on-chip memory
        freely (the paper's "our dataflow" curve).  Passing the Psum / IGBuf /
        WGBuf capacities of a concrete implementation reproduces the "our
        accelerator" curves, which pay a 3-4 % DRAM penalty.
        """
        self.psum_words = psum_words
        self.input_buffer_words = input_buffer_words
        self.weight_buffer_words = weight_buffer_words

    def choose(self, layer: ConvLayer, capacity_words: int) -> Tiling:
        """Best tiling for ``layer`` under ``capacity_words`` of memory."""
        return choose_tiling(
            layer,
            capacity_words,
            psum_words=self.psum_words,
            input_buffer_words=self.input_buffer_words,
            weight_buffer_words=self.weight_buffer_words,
        ).tiling

    def tiling_space(self, layer: ConvLayer, capacity_words: int):
        tiling = self.choose(layer, capacity_words)
        yield {"b": tiling.b, "z": tiling.z, "y": tiling.y, "x": tiling.x, "k": tiling.k}

    def traffic(self, layer: ConvLayer, capacity_words: int, tiling: dict) -> TrafficBreakdown:
        return dataflow_traffic(layer, Tiling(**tiling))

    def traffic_grid(self, layer: ConvLayer, capacities) -> list:
        """Vectorized multi-capacity search (see :meth:`Dataflow.traffic_grid`).

        Unlike the Fig. 12 baselines there is no dense candidate grid to
        share across capacities -- the analytic seed and its refinement
        neighbourhood depend on the capacity -- so this is
        :meth:`traffic_grid_many` with this dataflow's split at every
        capacity.
        """
        return self.traffic_grid_many(layer, [(self, capacity) for capacity in capacities])

    def traffic_grid_many(self, layer: ConvLayer, requests) -> list:
        """Vectorized search of ``(dataflow, capacity)`` requests of any splits.

        Every request becomes one constraint of a single
        :func:`~repro.core.optimal_dataflow.choose_tiling_grid_many` call on
        ``layer``, which evaluates one refinement neighbourhood per distinct
        shrunken seed, for all the requests that share it, and stacks the
        seeds whose neighbourhoods have the same shape and that serve
        equally many requests into one array pass.  Results are
        bit-identical to the scalar :func:`choose_tiling` of each request's
        own dataflow.
        """
        requests = [(dataflow, int(capacity)) for dataflow, capacity in requests]
        choices = choose_tiling_grid_many(
            layer,
            [
                (
                    capacity,
                    dataflow.psum_words,
                    dataflow.input_buffer_words,
                    dataflow.weight_buffer_words,
                )
                for dataflow, capacity in requests
            ],
        )
        results = []
        for (dataflow, capacity), choice in zip(requests, choices):
            if choice is None:
                results.append(None)
                continue
            tiling = choice.tiling
            results.append(
                DataflowResult(
                    dataflow=dataflow.name,
                    layer_name=layer.name,
                    capacity_words=capacity,
                    tiling={"b": tiling.b, "z": tiling.z, "y": tiling.y, "x": tiling.x, "k": tiling.k},
                    traffic=choice.traffic,
                )
            )
        return results
