"""NumPy-vectorized tiling search shared by the grid-search dataflows.

The scalar reference (:meth:`repro.dataflows.base.Dataflow.search`) walks the
``tiling_space`` generator candidate by candidate.  For the Fig. 12 baselines
that space is a dense grid -- the cross product of :func:`~repro.dataflows.
base.candidate_extents` along each tiled dimension -- so the whole search can
be evaluated as a handful of array expressions instead of a Python loop:

1. materialise the candidate grid (``numpy.meshgrid`` of the per-dimension
   extent lists, flattened in C order so index ``i`` of the flat arrays is the
   ``i``-th candidate of the scalar generator);
2. evaluate the on-chip footprint and all four traffic components for every
   candidate in one shot, in exact ``int64`` arithmetic;
3. answer every requested capacity from one selection: bucket each
   candidate by the smallest requested capacity its footprint fits, take
   each bucket's first minimum, and carry a running minimum across the
   buckets in capacity order.

Because a single grid evaluation serves *any number* of capacities, an entire
Fig. 13 memory sweep costs one grid evaluation per (dataflow, layer) pair
instead of ``len(capacities)`` independent searches, and the DSE's 134
family totals cost one selection rather than 134 masked argmins.

Bit-identical guarantee
-----------------------

The vectorized backend returns *exactly* the scalar search's result, not an
approximation of it:

* every traffic component is an exact integer (the scalar models compute
  Python ``int`` products and convert with ``float(...)`` once; the grid
  computes the same integers in ``int64`` and converts with ``astype``, which
  rounds identically for any value below 2**63);
* totals are summed in the same order as
  :attr:`~repro.core.traffic.TrafficBreakdown.total`
  (``((inputs + weights) + output_reads) + output_writes``);
* ties are broken deterministically: the **first candidate in scalar
  enumeration order** wins, because ``numpy.argmin`` returns the first
  occurrence of the minimum and the scalar loop only replaces its incumbent
  on a strictly smaller total.

NumPy is an *optional* dependency: this module imports without it and
:func:`numpy_available` reports whether the vectorized backend can run.  The
scalar search remains the always-available reference implementation.
"""

from __future__ import annotations

try:  # NumPy is optional; the scalar backend covers its absence.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-NumPy CI job
    _np = None

from repro.core.layer import ConvLayer
from repro.dataflows.base import DataflowResult
from repro.core.traffic import TrafficBreakdown


def numpy_available() -> bool:
    """Whether the vectorized (NumPy) search backend can run."""
    return _np is not None


def require_numpy():
    """Return the ``numpy`` module or raise a clear error when absent."""
    if _np is None:
        raise RuntimeError(
            "the vectorized search backend requires numpy, which is not "
            "installed; use the scalar backend ('python') instead"
        )
    return _np


def meshgrid_ravel(*value_lists):
    """Cross product of candidate-value lists as flat ``int64`` arrays.

    The lists are combined exactly like the scalar dataflows' nested
    ``for`` loops (first list outermost, last list innermost), so flat index
    ``i`` corresponds to the ``i``-th candidate yielded by ``tiling_space``.
    The DSE config enumerator (:mod:`repro.dse.space`) leans on the same
    alignment guarantee to keep its vectorized candidate list bit-identical
    to its scalar nested loops.
    """
    np = require_numpy()
    axes = [np.asarray(values, dtype=np.int64) for values in value_lists]
    if len(axes) == 1:
        return (axes[0],)
    grids = np.meshgrid(*axes, indexing="ij")
    return tuple(grid.ravel() for grid in grids)


#: Largest ``int64``.  Every candidate footprint is an ``int64``, so a cap
#: at or beyond it -- or no cap at all -- admits every candidate.
NO_CAP = 2**63 - 1


def capacity_array(capacities):
    """Word capacities as an ``int64`` array for comparing against footprints.

    ``None`` (no cap) and values past ``int64`` become :data:`NO_CAP`, which
    every footprint fits under exactly as it fits under the original value.
    """
    np = require_numpy()
    return np.array(
        [NO_CAP if capacity is None else min(capacity, NO_CAP) for capacity in capacities],
        dtype=np.int64,
    )


def ceil_div(a, b):
    """Elementwise ceiling division on integer arrays (or scalars)."""
    return -(-a // b)


def lexicographic_argmin(keys, mask=None):
    """Index of the first candidate minimising ``keys`` lexicographically.

    ``keys`` are same-shape arrays compared along the last axis, most
    significant first; candidates outside the boolean ``mask`` (which must
    keep at least one per row) never win.  The result is what Python's
    ``min(candidates, key=lambda c: (k0, k1, ...))`` returns: among exact
    ties on every key the earliest candidate, since ``argmax`` of the
    surviving mask is its first ``True``.
    """
    np = require_numpy()
    for key in keys:
        if mask is not None:
            # Any value >= every survivor works as filler: `mask &` drops
            # the filled positions again whatever they compare equal to.
            key = np.where(mask, key, key.max())
        hit = key == key.min(axis=-1, keepdims=True)
        mask = hit if mask is None else mask & hit
    return mask.argmax(axis=-1)


def grid_search(dataflow, layer: ConvLayer, capacities) -> list:
    """Vectorized multi-capacity search over a dataflow's candidate grid.

    ``dataflow`` must provide ``grid_arrays(layer)`` returning

    ``(axes, footprint, (input_reads, weight_reads, output_reads,
    output_writes))``

    where ``axes`` is a list of ``(tiling key, int64 array)`` pairs in the
    order the scalar tiling dict lists them, ``footprint`` is the on-chip
    words each candidate occupies and the four traffic components are exact
    ``int64`` arrays, all flattened in scalar enumeration order.

    Returns one :class:`~repro.dataflows.base.DataflowResult` per capacity
    (``None`` where no candidate fits), bit-identical to the scalar search.

    One selection answers every capacity.  Each candidate falls in the
    bucket of the smallest distinct capacity its footprint fits (one
    ``searchsorted``; the last bucket holds the candidates that fit none),
    two ``minimum.at`` passes take each bucket's lexicographic (total,
    enumeration index) minimum, and a running minimum over the buckets in
    ascending capacity order gives each capacity the first minimum among
    every candidate it admits -- what ``argmin`` over that capacity's mask
    returns.
    """
    np = require_numpy()
    axes, footprint, components = dataflow.grid_arrays(layer)
    floats = [component.astype(np.float64) for component in components]
    input_reads, weight_reads, output_reads, output_writes = floats
    # Same association order as TrafficBreakdown.total so ties and rounding
    # behave exactly like the scalar comparisons.
    totals = ((input_reads + weight_reads) + output_reads) + output_writes

    requested = [int(capacity_words) for capacity_words in capacities]
    levels = sorted(set(requested))
    bucket = np.searchsorted(capacity_array(levels), footprint).astype(
        np.min_scalar_type(len(levels))
    )
    bucket_totals = np.full(len(levels) + 1, np.inf)
    np.minimum.at(bucket_totals, bucket, totals)
    ties = np.flatnonzero(totals == bucket_totals[bucket])
    bucket_first = np.full(len(levels) + 1, len(totals), dtype=ties.dtype)
    np.minimum.at(bucket_first, bucket[ties], ties)

    winners = {}
    incumbent = None
    for capacity, total, first in zip(levels, bucket_totals.tolist(), bucket_first.tolist()):
        if first < len(totals) and (incumbent is None or (total, first) < incumbent):
            incumbent = (total, first)
        winners[capacity] = None if incumbent is None else incumbent[1]

    results = []
    for capacity in requested:
        best = winners[capacity]
        if best is None:
            results.append(None)
            continue
        results.append(
            DataflowResult(
                dataflow=dataflow.name,
                layer_name=layer.name,
                capacity_words=capacity,
                tiling={name: int(values[best]) for name, values in axes},
                traffic=TrafficBreakdown(
                    input_reads=float(input_reads[best]),
                    weight_reads=float(weight_reads[best]),
                    output_reads=float(output_reads[best]),
                    output_writes=float(output_writes[best]),
                ),
            )
        )
    return results
