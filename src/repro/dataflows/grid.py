"""NumPy-vectorized tiling search shared by the grid-search dataflows.

The scalar reference (:meth:`repro.dataflows.base.Dataflow.search`) walks the
``tiling_space`` generator candidate by candidate.  For the Fig. 12 baselines
that space is a dense grid -- the cross product of :func:`~repro.dataflows.
base.candidate_extents` along each tiled dimension -- so the whole search can
be evaluated as a handful of array expressions instead of a Python loop:

1. lay the candidate grid out as broadcast axes (:func:`grid_axes`: one
   ``int64`` array per tiled dimension, shaped ``(1, ..., n_i, ..., 1)``),
   so the grid in C order lists the candidates in scalar enumeration order
   and is never materialised as a meshgrid;
2. evaluate the on-chip footprint and all four traffic components in exact
   ``int64`` arithmetic, each factor on the dimensions it depends on (a
   block count such as ``ceil(Ci / k)`` is an array over ``k`` alone), so
   only the footprint and the totals span the full grid;
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
  rounds identically for any value below 2**63).  Integer products are exact
  in any association, and every factor is >= 1, so no partial product
  exceeds the full one that :func:`int64_safe` bounds; a component converted
  on its own small shape and then broadcast is the same float per
  candidate;
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


def grid_axes(*value_lists):
    """Candidate-value lists as ``int64`` axes that broadcast to their grid.

    Axis ``i`` has shape ``(1, ..., len(value_lists[i]), ..., 1)``.  The
    lists are combined exactly like the scalar dataflows' nested ``for``
    loops (first list outermost, last list innermost): the broadcast grid
    in C order lists the candidates in ``tiling_space`` order, so flat index
    ``i`` of it is the ``i``-th candidate the generator yields.  A term
    built from some of the axes spans only their dimensions.
    """
    np = require_numpy()
    return np.ix_(*(np.asarray(values, dtype=np.int64) for values in value_lists))


#: Largest ``int64``.  Every candidate footprint is an ``int64``, so a cap
#: at or beyond it -- or no cap at all -- admits every candidate.
NO_CAP = 2**63 - 1


def int64_safe(layer: ConvLayer) -> bool:
    """Whether every ``int64`` term a grid evaluation of ``layer`` computes fits.

    Bounds, in Python ints, the largest footprint, traffic component and
    partial product of every grid dataflow (the Fig. 12 baselines'
    ``grid_arrays`` and ``Ours``' :func:`~repro.core.optimal_dataflow.
    exact_traffic_grid`): each factor is at most its tile count or tile
    size at the extreme candidate, and all factors are >= 1.  A layer past
    the bound would wrap around or overflow, so the engine sends its grid
    groups to the scalar reference instead.
    """
    batch, ci, co = layer.batch, layer.in_channels, layer.out_channels
    ho, wo, hk, wk = layer.out_height, layer.out_width, layer.kernel_height, layer.kernel_width
    stride = layer.stride
    # A staged input patch, and Ours' separable row/column factor
    # ``stride * Ho + (Hk - stride) * Ny`` at either end of ``1 <= Ny <= Ho``.
    rows = max((ho - 1) * stride + hk, hk * ho)
    cols = max((wo - 1) * stride + wk, wk * wo)
    outputs = batch * ho * wo
    largest = max(
        outputs * co * ci * rows * cols,  # OutR-A / Ours input reads
        2 * outputs * ci * rows * cols,  # InR-A input reads (channel blocks round up)
        outputs * layer.num_weights,  # weight reads streamed per output block
        co * layer.num_inputs,  # WtR input reads
        layer.num_outputs * ci,  # Psum spills
        outputs * co + batch * rows * cols + co,  # Ours on-chip footprint
        ci * layer.in_height * layer.in_width,  # InR-B footprint
    )
    return largest <= NO_CAP


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


def values_at(array, positions) -> list:
    """``array``, broadcast against a grid, read at grid ``positions``.

    ``positions`` is what ``numpy.unravel_index`` returns for the grid's
    shape; the result holds one Python number per position.  Along a
    dimension where ``array`` has size 1 it is read at index 0, as
    broadcasting reads it.
    """
    index = tuple(
        position if size > 1 else 0
        for position, size in zip(positions[len(positions) - array.ndim:], array.shape)
    )
    values = array[index]
    return values.tolist() if values.ndim else [values.item()] * len(positions[0])


def _ravel_to(array, shape):
    """``array`` broadcast to ``shape`` and flattened in C order."""
    if array.shape != shape:
        array = require_numpy().broadcast_to(array, shape)
    return array.ravel()


def grid_search(dataflow, layer: ConvLayer, capacities) -> list:
    """Vectorized multi-capacity search over a dataflow's candidate grid.

    ``dataflow`` must provide ``grid_arrays(layer)`` returning

    ``(axes, footprint, (input_reads, weight_reads, output_reads,
    output_writes))``

    where ``axes`` is a list of ``(tiling key, int64 array)`` pairs in the
    order the scalar tiling dict lists them, the arrays being the
    :func:`grid_axes` of the scalar loops (their shapes carry the loop
    order, which may differ from the dict order); ``footprint`` is the
    on-chip words each candidate occupies and the four traffic components
    are exact ``int64`` arrays (or ints), each broadcastable against the
    axes and only as large as the dimensions it depends on.

    Returns one :class:`~repro.dataflows.base.DataflowResult` per capacity
    (``None`` where no candidate fits), bit-identical to the scalar search.

    Each component converts to ``float64`` on its own shape; only the
    totals and the footprint's buckets span the full grid, flattened in C
    order, which is scalar enumeration order.  One selection answers every
    capacity.  Each candidate falls in the bucket of the smallest distinct
    capacity its footprint fits (one ``searchsorted``; the last bucket
    holds the candidates that fit none), two ``minimum.at`` passes take
    each bucket's lexicographic (total, enumeration index) minimum, and a
    running minimum over the buckets in ascending capacity order gives each
    capacity the first minimum among every candidate it admits -- what
    ``argmin`` over that capacity's mask returns.  Each distinct winner's
    tiling and traffic are read back once, at its ``unravel_index``.
    """
    np = require_numpy()
    axes, footprint, components = dataflow.grid_arrays(layer)
    shape = np.broadcast(*(values for _, values in axes)).shape
    floats = [np.asarray(component, dtype=np.int64).astype(np.float64) for component in components]
    input_reads, weight_reads, output_reads, output_writes = floats
    # Same association order as TrafficBreakdown.total so ties and rounding
    # behave exactly like the scalar comparisons.
    totals = _ravel_to(((input_reads + weight_reads) + output_reads) + output_writes, shape)

    requested = [int(capacity_words) for capacity_words in capacities]
    levels = sorted(set(requested))
    bucket = _ravel_to(
        np.searchsorted(capacity_array(levels), footprint).astype(np.min_scalar_type(len(levels))), shape
    )
    bucket_totals = np.full(len(levels) + 1, np.inf)
    np.minimum.at(bucket_totals, bucket, totals)
    ties = np.flatnonzero(totals == bucket_totals[bucket])
    bucket_first = np.full(len(levels) + 1, totals.size, dtype=ties.dtype)
    np.minimum.at(bucket_first, bucket[ties], ties)

    winners = {}
    incumbent = None
    for capacity, total, first in zip(levels, bucket_totals.tolist(), bucket_first.tolist()):
        if first < totals.size and (incumbent is None or (total, first) < incumbent):
            incumbent = (total, first)
        winners[capacity] = None if incumbent is None else incumbent[1]

    columns = sorted(set(winners.values()) - {None})
    positions = np.unravel_index(np.asarray(columns, dtype=np.intp), shape)
    names = [name for name, _ in axes]
    tilings = zip(*(values_at(values, positions) for _, values in axes))
    traffics = zip(*(values_at(values, positions) for values in floats))
    found = {
        column: (dict(zip(names, tiling)), TrafficBreakdown(*traffic))
        for column, tiling, traffic in zip(columns, tilings, traffics)
    }

    results = []
    for capacity in requested:
        best = winners[capacity]
        if best is None:
            results.append(None)
            continue
        tiling, traffic = found[best]
        results.append(
            DataflowResult(
                dataflow=dataflow.name,
                layer_name=layer.name,
                capacity_words=capacity,
                tiling=dict(tiling),
                traffic=traffic,
            )
        )
    return results
