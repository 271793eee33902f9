"""The paper's communication-optimal dataflow (Section IV-A).

The dataflow keeps an output block of ``u x z`` Psums (``u = b*x*y``)
resident on chip and streams matching slices of inputs and weights, one input
channel (``k = 1``) at a time.  Its DRAM traffic for a tiling ``{b,z,y,x,k}``
is Eq. (14):

    Q_read = ceil(B/b)*ceil(Co/z)*ceil(Ho/y)*ceil(Wo/x)
             * (Wk*Hk*Ci*z + b*x'*y'*Ci)
    Q_write = B*Ho*Wo*Co

and the traffic is minimised when ``b*x*y ~= R*z`` and ``b*x*y*z ~= S``
(Psums get nearly all of the on-chip memory).

:func:`choose_tiling` implements the paper's selection rule plus a local
refinement search; :func:`dataflow_traffic` evaluates Eq. (14) exactly,
including boundary (partial-tile) effects.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.core.layer import ConvLayer, ceil_div
from repro.core.tiling import Tiling
from repro.core.traffic import TrafficBreakdown


#: The ``ValueError`` message of a capacity that admits no tiling at all.
_TOO_SMALL = "on-chip capacity too small for any tiling"

#: Entries of the :func:`_around` memo, one per ``(tile size, extent)``
#: pair.  The four search-sweep steps and a VGG-16 reproduction together
#: need about 600.
AROUND_MEMO_SIZE = 4096


def dataflow_traffic(layer: ConvLayer, tiling: Tiling, exact: bool = True) -> TrafficBreakdown:
    """DRAM traffic of the proposed dataflow for ``tiling`` (Eq. (14)).

    When ``exact`` is true the block counts use ceiling division and partial
    edge blocks are clipped to the tensor boundary, which is what the
    accelerator actually does; otherwise the closed-form approximation of the
    paper is returned.
    """
    tiling = tiling.clip(layer)
    if exact:
        return _exact_traffic(layer, tiling)
    blocks = (
        (layer.batch / tiling.b)
        * (layer.out_channels / tiling.z)
        * (layer.out_height / tiling.y)
        * (layer.out_width / tiling.x)
    )
    weight_reads = blocks * layer.kernel_height * layer.kernel_width * layer.in_channels * tiling.z
    input_reads = blocks * tiling.b * tiling.input_patch(layer) * layer.in_channels
    return TrafficBreakdown(
        input_reads=input_reads,
        weight_reads=weight_reads,
        output_reads=0.0,
        output_writes=float(layer.num_outputs),
    )


def _exact_traffic(layer: ConvLayer, tiling: Tiling) -> TrafficBreakdown:
    """Eq. (14) with integer block counts and boundary-clipped edge tiles."""
    input_reads = 0
    weight_reads = 0
    kernel_area = layer.kernel_height * layer.kernel_width

    # Iterate over the distinct tile shapes along each dimension instead of
    # every block: edge tiles may be smaller, interior tiles all match.
    for b_size, b_count in _tile_shapes(layer.batch, tiling.b):
        for z_size, z_count in _tile_shapes(layer.out_channels, tiling.z):
            for y_size, y_count in _tile_shapes(layer.out_height, tiling.y):
                for x_size, x_count in _tile_shapes(layer.out_width, tiling.x):
                    blocks = b_count * z_count * y_count * x_count
                    rows = (y_size - 1) * layer.stride + layer.kernel_height
                    cols = (x_size - 1) * layer.stride + layer.kernel_width
                    input_reads += blocks * b_size * rows * cols * layer.in_channels
                    weight_reads += blocks * kernel_area * layer.in_channels * z_size
    return TrafficBreakdown(
        input_reads=float(input_reads),
        weight_reads=float(weight_reads),
        output_reads=0.0,
        output_writes=float(layer.num_outputs),
    )


def _tile_shapes(extent: int, tile: int) -> list:
    """Distinct (tile size, count) pairs when tiling ``extent`` by ``tile``."""
    tile = min(tile, extent)
    full = extent // tile
    remainder = extent - full * tile
    shapes = []
    if full:
        shapes.append((tile, full))
    if remainder:
        shapes.append((remainder, 1))
    return shapes


@dataclass(frozen=True)
class TilingChoice:
    """A tiling together with the traffic it produces."""

    tiling: Tiling
    traffic: TrafficBreakdown

    @property
    def total(self) -> float:
        return self.traffic.total


def analytic_tiling(layer: ConvLayer, on_chip_words: int) -> Tiling:
    """The paper's closed-form tiling: ``b*x*y ~= R*z`` and ``b*x*y*z ~= S``.

    Solving the two conditions gives ``z ~= sqrt(S / R)`` and
    ``u = b*x*y ~= sqrt(S * R)``.  The spatial tile is made as square as
    possible; the batch dimension is only used when one image's output plane
    is smaller than ``u`` (the paper's ``u = b*x*y`` fallback).
    """
    b, z, y, x = _analytic_sizes(layer, on_chip_words)
    return Tiling(b=b, z=z, y=y, x=x, k=1)


def _analytic_sizes(layer: ConvLayer, on_chip_words: int) -> tuple:
    """The ``(b, z, y, x)`` of :func:`analytic_tiling` as plain ints.

    Every size is already within the layer's extents, so clipping the
    tiling changes nothing.
    """
    reuse = layer.window_reuse
    z = max(1, min(layer.out_channels, int(round(math.sqrt(on_chip_words / reuse)))))
    u_target = max(1, int(round(math.sqrt(on_chip_words * reuse))))

    plane = layer.out_height * layer.out_width
    if u_target <= plane:
        b = 1
        side = max(1, int(round(math.sqrt(u_target))))
        y = min(layer.out_height, side)
        x = min(layer.out_width, max(1, u_target // y))
    else:
        b = min(layer.batch, max(1, u_target // plane))
        y = layer.out_height
        x = layer.out_width
    return b, z, y, x


def choose_tiling(
    layer: ConvLayer,
    on_chip_words: int,
    refine: bool = True,
    psum_words: int = None,
    input_buffer_words: int = None,
    weight_buffer_words: int = None,
) -> TilingChoice:
    """Pick tiling sizes for the proposed dataflow.

    Without the optional capacity arguments, the only constraint is the
    *effective on-chip memory*: Psums + one iteration's inputs and weights
    must fit in ``on_chip_words`` (this is the paper's "our dataflow" curve).
    When ``psum_words`` / ``input_buffer_words`` / ``weight_buffer_words`` are
    given, the tiling additionally respects a fixed memory split (this is the
    "our accelerator implementation" variant, which the paper reports costs an
    extra 3-4 % of DRAM traffic).

    The analytic tiling of Section IV-A seeds a local refinement search over
    neighbouring integer tilings; ``refine=False`` returns the seed directly.
    """
    seed, fits = _seed_and_fits(
        layer, on_chip_words, psum_words, input_buffer_words, weight_buffer_words
    )

    best = TilingChoice(seed, dataflow_traffic(layer, seed))
    if not refine:
        return best

    candidates = _neighbourhood(layer, seed)
    for tiling in candidates:
        tiling = tiling.clip(layer)
        if not fits(tiling):
            continue
        traffic = dataflow_traffic(layer, tiling)
        if traffic.total < best.traffic.total:
            best = TilingChoice(tiling, traffic)
    return best


def _seed_and_fits(
    layer: ConvLayer,
    on_chip_words: int,
    psum_words,
    input_buffer_words,
    weight_buffer_words,
):
    """The prelude of the scalar reference :func:`choose_tiling`.

    Returns the shrunken analytic seed and the scalar capacity predicate.
    The grid path mirrors it on plain ints (:func:`_integer_seeds`), and
    the parity suite holds that walk to this one.
    """
    if on_chip_words < 8:
        raise ValueError(_TOO_SMALL)

    def fits(tiling: Tiling) -> bool:
        tiling = tiling.clip(layer)
        if tiling.on_chip_footprint(layer) > on_chip_words:
            return False
        if psum_words is not None and tiling.output_block_size() > psum_words:
            return False
        if input_buffer_words is not None and tiling.staged_input_words(layer) > input_buffer_words:
            return False
        if weight_buffer_words is not None and tiling.staged_weight_words() > weight_buffer_words:
            return False
        return True

    seed = analytic_tiling(layer, on_chip_words).clip(layer)
    return _shrink_to_fit(layer, seed, fits), fits


def _shrink_to_fit(layer: ConvLayer, tiling: Tiling, fits) -> Tiling:
    """Shrink a seed tiling until it satisfies the capacity predicate."""
    current = tiling
    for _ in range(64):
        if fits(current):
            return current
        # Shrink the largest contributor first: halve the spatial tile, then z.
        if current.x * current.y * current.b > current.z and (current.x > 1 or current.y > 1 or current.b > 1):
            if current.b > 1:
                current = Tiling(max(1, current.b // 2), current.z, current.y, current.x, current.k)
            elif current.y >= current.x:
                current = Tiling(current.b, current.z, max(1, current.y // 2), current.x, current.k)
            else:
                current = Tiling(current.b, current.z, current.y, max(1, current.x // 2), current.k)
        elif current.z > 1:
            current = Tiling(current.b, max(1, current.z // 2), current.y, current.x, current.k)
        else:
            return current
    return current


def _neighbourhood(layer: ConvLayer, seed: Tiling) -> list:
    """Integer tilings near the analytic seed (plus a few global candidates)."""
    z_values = _around(seed.z, layer.out_channels)
    y_values = _around(seed.y, layer.out_height)
    x_values = _around(seed.x, layer.out_width)
    b_values = _around(seed.b, layer.batch)
    candidates = []
    for b in b_values:
        for z in z_values:
            for y in y_values:
                for x in x_values:
                    candidates.append(Tiling(b=b, z=z, y=y, x=x, k=1))
    return candidates


@functools.lru_cache(maxsize=AROUND_MEMO_SIZE)
def _around(value: int, limit: int) -> tuple:
    """Candidate values near ``value``: scaled, incremented and the extremes.

    Memoized: a sweep refines seeds on the same ``(value, limit)`` pairs
    across layers, families and calls.  The tuple keeps a shared entry
    immutable.
    """
    raw = {1, limit, value}
    for scale in (0.5, 0.75, 1.25, 1.5, 2.0):
        raw.add(int(round(value * scale)))
    for delta in (-2, -1, 1, 2):
        raw.add(value + delta)
    divisor_candidates = [d for d in range(max(1, value - 4), value + 5) if d >= 1]
    raw.update(divisor_candidates)
    return tuple(sorted({min(limit, max(1, v)) for v in raw}))


def traffic_at_capacity(layer: ConvLayer, on_chip_words: int) -> TrafficBreakdown:
    """Convenience wrapper: best-found traffic of the dataflow at capacity ``S``."""
    return choose_tiling(layer, on_chip_words).traffic


# --------------------------------------------------------- vectorized backend


def choose_tiling_grid(
    layer: ConvLayer,
    on_chip_words: int,
    psum_words: int = None,
    input_buffer_words: int = None,
    weight_buffer_words: int = None,
) -> TilingChoice:
    """NumPy-vectorized :func:`choose_tiling`, bit-identical to the scalar one.

    The one-constraint call of :func:`choose_tiling_grid_many`; like the
    scalar search it raises ``ValueError`` when the capacity admits no
    tiling at all.
    """
    (choice,) = choose_tiling_grid_many(
        layer, [(on_chip_words, psum_words, input_buffer_words, weight_buffer_words)]
    )
    if choice is None:
        raise ValueError(_TOO_SMALL)
    return choice


def choose_tiling_grid_many(layer: ConvLayer, constraints) -> list:
    """:func:`choose_tiling` of one layer under many memory constraints at once.

    Each constraint is an ``(on_chip_words, psum_words, input_buffer_words,
    weight_buffer_words)`` tuple, the caps ``None`` where unconstrained.
    Returns one :class:`TilingChoice` per constraint, bit-identical to the
    scalar search, or ``None`` where the scalar search raises ``ValueError``.

    Each constraint's shrunken seed comes from :func:`_integer_seeds`, the
    scalar prelude's walk on plain ints.  Constraints that shrink to the
    same seed share its refinement neighbourhood: the four :func:`_around`
    lists, in the scalar loop order ``b, z, y, x``.  Seeds whose lists have
    the same lengths and that have the same number of members share one
    array pass.  Each axis is an ``int64`` array with a leading seed axis
    (``b`` has shape ``(seeds, 1, nb, 1, 1, 1)``) and the members' caps
    have shape ``(seeds, members, 1, 1, 1, 1)``, so the footprint terms,
    the feasibility mask and the :func:`exact_traffic_grid` totals span at
    most ``(seeds, members, nb, nz, ny, nx)``.  A seed's slice holds what a
    pass over that seed alone would hold.

    One ``argmin`` per (seed, member) row picks the first feasible minimum
    in loop order.  The seed is one of its own ``_around`` values, so it is
    located in the grid, not prepended: as in the scalar loop it wins
    unless a feasible neighbour is strictly smaller.  Each distinct (seed,
    winner) pair is read back once, and the members that share it share
    its :class:`TilingChoice`.
    """
    from repro.dataflows.grid import capacity_array, grid_index, item_at, require_numpy

    np = require_numpy()
    members_by_seed = {}
    for index, seed in enumerate(_integer_seeds(layer, constraints)):
        if seed is not None:
            members_by_seed.setdefault(seed, []).append(index)

    extents = (layer.batch, layer.out_channels, layer.out_height, layer.out_width)
    passes = {}
    for seed, members in members_by_seed.items():
        # _around clamps to [1, extent] and the seed lies inside the layer,
        # so every candidate is already clip(layer)-ed and the seed is
        # among them.
        axes = tuple(_around(size, extent) for size, extent in zip(seed, extents))
        at = 0  # the seed's C-order position in its grid
        for size, values in zip(seed, axes):
            at = at * len(values) + values.index(size)
        passes.setdefault(tuple(map(len, axes)) + (len(members),), []).append((axes, at, members))

    choices = [None] * len(constraints)
    for (*cells, count), group in passes.items():
        seeds = len(group)

        def stacked(values, dimension):
            """One value list per seed as a grid axis behind the seed axis."""
            shape = [seeds, 1, 1, 1, 1, 1]
            shape[2 + dimension] = cells[dimension]
            return np.array(values, dtype=np.int64).reshape(shape)

        columns = zip(*(axes for axes, _, _ in group))
        b, z, y, x = (stacked(values, dimension) for dimension, values in enumerate(columns))

        def member_caps(caps):
            """The members' caps as the axis behind the seed axis."""
            return capacity_array(caps).reshape(seeds, count, 1, 1, 1, 1)

        # Array form of the `fits` predicate from _seed_and_fits, term for
        # term (all candidates have k = 1): Tiling.on_chip_footprint = Psum
        # block (output_block_size) + staged inputs (b * x' * y' * k) +
        # staged weights (z * k), then the optional per-buffer caps on the
        # same three terms.
        rows = (y - 1) * layer.stride + layer.kernel_height
        cols = (x - 1) * layer.stride + layer.kernel_width
        staged_inputs = b * rows * cols
        psum_block = b * x * y * z
        on_chip, *buffer_caps = zip(*(constraints[index] for _, _, members in group for index in members))
        mask = (psum_block + staged_inputs + z) <= member_caps(on_chip)
        for caps, term in zip(buffer_caps, (psum_block, staged_inputs, z)):
            if any(cap is not None for cap in caps):
                mask &= term <= member_caps(caps)

        # Input reads span (z, y, x) and weight reads (b, y, x), so the
        # totals span each seed's whole grid.
        input_f, weight_f, totals = exact_traffic_grid(layer, b, z, y, x)
        masked = np.where(mask, totals, np.inf).reshape(seeds, count, -1)
        best = masked.argmin(axis=2)
        best_totals = np.take_along_axis(masked, best[:, :, None], axis=2)[:, :, 0]
        seed_at = np.array([at for _, at, _ in group])
        seed_totals = totals.reshape(seeds, -1)[np.arange(seeds), seed_at]
        winners = np.where(best_totals < seed_totals[:, None], best, seed_at[:, None]).tolist()

        for slot, ((axes, _, members), row) in enumerate(zip(group, winners)):
            found = {}
            for index, cell in zip(members, row):
                if cell not in found:
                    position = grid_index(cell, cells)
                    at = (slot, 0) + position
                    found[cell] = TilingChoice(
                        Tiling(*(values[i] for values, i in zip(axes, position)), k=1),
                        TrafficBreakdown(
                            input_reads=item_at(input_f, at),
                            weight_reads=item_at(weight_f, at),
                            output_reads=0.0,
                            output_writes=float(layer.num_outputs),
                        ),
                    )
                choices[index] = found[cell]
    return choices


def _integer_seeds(layer: ConvLayer, constraints) -> list:
    """``_seed_and_fits(layer, *constraint)[0]`` of each constraint, as ints.

    Returns one ``(b, z, y, x)`` tuple per constraint, or ``None`` for a
    total under 8 words, where ``_seed_and_fits`` raises.  The analytic
    seed (:func:`_analytic_sizes`) is computed once per distinct total and
    then walked by :func:`_shrink_to_fit`'s halving rule, with the `fits`
    predicate's terms written out: the Psum block ``b*x*y*z``, the staged
    inputs ``b*((y-1)*D + Hk)*((x-1)*D + Wk)`` and the staged weights
    ``z``.  Every tiling on the walk lies inside the layer (the analytic
    seed does, and halving only shrinks), so clipping is a no-op there.
    Like the reference, the walk stops after 64 halvings and returns the
    65th tiling unchecked.
    """
    stride, kernel_height, kernel_width = layer.stride, layer.kernel_height, layer.kernel_width
    analytic = {}
    seeds = []
    for on_chip_words, psum_words, input_buffer_words, weight_buffer_words in constraints:
        if on_chip_words < 8:
            seeds.append(None)
            continue
        if on_chip_words not in analytic:
            analytic[on_chip_words] = _analytic_sizes(layer, on_chip_words)
        b, z, y, x = analytic[on_chip_words]
        for _ in range(64):
            psum_block = b * x * y * z
            staged_inputs = b * ((y - 1) * stride + kernel_height) * ((x - 1) * stride + kernel_width)
            if (
                psum_block + staged_inputs + z <= on_chip_words
                and (psum_words is None or psum_block <= psum_words)
                and (input_buffer_words is None or staged_inputs <= input_buffer_words)
                and (weight_buffer_words is None or z <= weight_buffer_words)
            ):
                break
            # A halved size is at least 2 beforehand, so it stays >= 1.
            if x * y * b > z and (x > 1 or y > 1 or b > 1):
                if b > 1:
                    b //= 2
                elif y >= x:
                    y //= 2
                else:
                    x //= 2
            elif z > 1:
                z //= 2
            else:
                break
        seeds.append((b, z, y, x))
    return seeds


def exact_traffic_grid(layer: ConvLayer, b, z, y, x) -> tuple:
    """:func:`_exact_traffic` of many ``k = 1`` tilings at once.

    ``b``, ``z``, ``y`` and ``x`` are ``int64`` arrays of clipped tile sizes.
    The nested-loop accumulation of :func:`_exact_traffic` is separable over
    the four tiled dimensions, which gives the closed form

    ``input_reads  = Ci * B * Nz * (D*Ho + (Hk-D)*Ny) * (D*Wo + (Wk-D)*Nx)``
    ``weight_reads = Hk*Wk * Ci * Co * Nb * Ny * Nx``

    with ``N* = ceil(extent / tile)`` -- exact integers, identical to summing
    the boundary-clipped tiles one by one.  Returns ``(input_reads,
    weight_reads, totals)`` as ``float64`` arrays, the totals summed in the
    association order of :attr:`TrafficBreakdown.total`, so they compare
    exactly like the scalar ``dataflow_traffic(layer, tiling).total``.
    """
    from repro.dataflows.grid import ceil_div as grid_ceil_div, require_numpy

    np = require_numpy()
    num_b = grid_ceil_div(layer.batch, b)
    num_z = grid_ceil_div(layer.out_channels, z)
    num_y = grid_ceil_div(layer.out_height, y)
    num_x = grid_ceil_div(layer.out_width, x)
    stride, kh, kw = layer.stride, layer.kernel_height, layer.kernel_width
    input_reads = (
        layer.in_channels
        * layer.batch
        * num_z
        * (stride * layer.out_height + (kh - stride) * num_y)
        * (stride * layer.out_width + (kw - stride) * num_x)
    )
    weight_reads = kh * kw * layer.in_channels * layer.out_channels * num_b * num_y * num_x
    input_f = input_reads.astype(np.float64)
    weight_f = weight_reads.astype(np.float64)
    totals = ((input_f + weight_f) + 0.0) + float(layer.num_outputs)
    return input_f, weight_f, totals
