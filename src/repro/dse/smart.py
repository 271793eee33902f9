"""Smart DSE explorers with trust-region exactness certificates.

The exhaustive sweep (:mod:`repro.dse.explore`) walks every candidate
config; with timing bandwidth points and traffic mixes multiplying the
space toward 10^8 points that stops being an option.  This module adds
three *explorer drivers* that evaluate only a subset of the space:

* ``halving`` -- successive halving over a coarse-to-fine grid: evaluate a
  strided sub-grid of the axis indices, keep the Pareto survivors, halve
  the stride and refine only the index windows around the survivors;
* ``local`` -- Pareto local search: seeded random starts, then repeatedly
  expand the +/-1 index neighborhood of every unexpanded frontier point
  until the frontier is closed under its own neighborhoods;
* ``evolution`` -- a seeded evolutionary driver: the current frontier is
  the mating pool, children are per-axis crossovers with +/-1 index
  mutations, generations stop after a patience of frontier-stable rounds.

All drivers batch their evaluations through one scoring callable so the
engine's ``search_many`` family batching keeps serving every capacity
point of a generation at once, and all of them end with the same
**exactness certificate** pass: a trust region around every returned
frontier point is re-verified by exhaustive enumeration
(:func:`repro.dse.space.enumerate_splits` restricted to the
neighborhood), iterated to a fixed point -- any neighbor that beats or
extends the frontier joins it and its own neighborhood is enumerated
next round, so the certificate crawls along the frontier surface until
no enumerated point changes it.  The payload records
``certificate: {verified, region, exhaustive_points}``; ``verified``
guarantees no config within ``region`` index steps of any frontier point
dominates the frontier.

Determinism follows the integer-only seeding idiom of
:mod:`repro.workloads.traffic`: one ``random.Random(seed)`` stream, only
``randrange`` draws, every batch sorted before evaluation -- the same
seed produces the byte-identical payload on both engine backends.  Slices
``(k, n)`` become *islands*: island ``k`` runs on seed ``seed + k - 1``
and island frontiers merge associatively like slice frontiers
(:func:`repro.dse.pareto.merge_frontiers`).
"""

from __future__ import annotations

import random

from repro.dse.pareto import pareto_frontier
from repro.dse.space import CandidateSpace, enumerate_splits

#: Every accepted ``--explorer`` choice; the default walks the whole space.
EXPLORERS = ("exhaustive", "halving", "local", "evolution")

#: The explorer that needs no certificate (its enumeration *is* the proof).
DEFAULT_EXPLORER = "exhaustive"

#: Trust-region radius of the certificate pass, in axis-index steps.
DEFAULT_CERTIFICATE_REGION = 1

#: Fixed-point iteration cap of the certificate crawl; hitting it records
#: ``verified: False`` instead of looping on a pathological landscape.
MAX_CERTIFICATE_ROUNDS = 256

#: Random starts of the ``local`` driver.
LOCAL_STARTS = 4

#: Population, generation cap and frontier-stable patience of ``evolution``.
EVOLUTION_POPULATION = 16
EVOLUTION_GENERATIONS = 32
EVOLUTION_PATIENCE = 3

#: Rejection-sampling budget per requested random split.
RANDOM_SPLIT_TRIES = 128


def validate_explorer(name) -> str:
    """Normalise and check an explorer name (``ValueError`` on unknown)."""
    if name not in EXPLORERS:
        choices = ", ".join(EXPLORERS)
        raise ValueError(f"unknown explorer {name!r}; choose from: {choices}")
    return name


def validate_seed(seed) -> int:
    """Check an explorer seed (integer-only, like the traffic generator)."""
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"explorer seed must be an integer, got {seed!r}")
    return seed


def split_of_row(row: dict) -> tuple:
    """The ``(rows, cols, lreg, igbuf, wgbuf)`` split of a scored row."""
    return (
        row["pe_rows"],
        row["pe_cols"],
        row["lreg_words_per_pe"],
        row["igbuf_words"],
        row["wgbuf_words"],
    )


class SplitGrid:
    """Index-space view of a candidate space under one budget.

    Drivers navigate axis *indices* (coarse sub-grids, +/-1 neighborhoods,
    windows around survivors); every materialised candidate set goes
    through :func:`enumerate_splits` on a windowed sub-space, so any split
    a driver can reach is by construction a split of the full space.
    """

    def __init__(self, space: CandidateSpace, budget_words: int):
        if budget_words < 1:
            raise ValueError(f"budget must be at least one on-chip word, got {budget_words}")
        self.space = space
        self.budget_words = budget_words
        # One entry per split coordinate; the PE axis serves rows and cols.
        self.axes = (
            space.pe_dims,
            space.pe_dims,
            space.lreg_words,
            space.igbuf_words,
            space.wgbuf_words,
        )
        self._index = [
            {value: position for position, value in enumerate(axis)} for axis in self.axes
        ]

    def feasible(self, split: tuple) -> bool:
        """Structural rules plus the budget, without materialising a config."""
        rows, cols, lreg, igbuf, wgbuf = split
        space = self.space
        if rows % space.group_rows or cols % space.group_cols:
            return False
        if not cols <= rows <= space.max_aspect * cols:
            return False
        return rows * cols * lreg + igbuf + wgbuf <= self.budget_words

    def random_split(self, rng: random.Random, tries: int = RANDOM_SPLIT_TRIES):
        """One feasible split drawn uniformly in index space (or ``None``)."""
        for _ in range(tries):
            split = tuple(axis[rng.randrange(len(axis))] for axis in self.axes)
            if self.feasible(split):
                return split
        return None

    def _sub_space(self, keep_indices: list) -> CandidateSpace:
        """The sub-space spanning the given index set per axis.

        The PE axis keeps the union of the rows-window and the cols-window
        (indices 0 and 1 of ``keep_indices``), so enumerating the sub-space
        covers every (rows, cols) pair both windows can form.
        """
        pe_keep = sorted(set(keep_indices[0]) | set(keep_indices[1]))
        space = self.space
        return CandidateSpace(
            pe_dims=tuple(space.pe_dims[i] for i in pe_keep),
            lreg_words=tuple(space.lreg_words[i] for i in sorted(set(keep_indices[2]))),
            igbuf_words=tuple(space.igbuf_words[i] for i in sorted(set(keep_indices[3]))),
            wgbuf_words=tuple(space.wgbuf_words[i] for i in sorted(set(keep_indices[4]))),
            group_rows=space.group_rows,
            group_cols=space.group_cols,
            max_aspect=space.max_aspect,
        )

    def coarse_splits(self, stride: int) -> list:
        """Feasible splits of the strided sub-grid (endpoints always kept)."""
        keep = [
            sorted(set(range(0, len(axis), stride)) | {len(axis) - 1}) for axis in self.axes
        ]
        return enumerate_splits(self.budget_words, self._sub_space(keep))

    def window_splits(self, split: tuple, radius: int, stride: int = 1) -> list:
        """Feasible splits within ``radius`` index steps of ``split``.

        ``stride`` probes the window at a coarser granularity (offsets that
        are multiples of ``stride`` from the anchor), which is how halving
        refines: radius = previous stride, stride = the new, halved one.
        """
        keep = []
        for axis, index_of, value in zip(self.axes, self._index, split):
            center = index_of[value]
            keep.append(
                [
                    i
                    for i in range(max(0, center - radius), min(len(axis), center + radius + 1))
                    if (i - center) % stride == 0
                ]
            )
        return enumerate_splits(self.budget_words, self._sub_space(keep))

    def mutate(self, split: tuple, rng: random.Random, rate: int = 3):
        """One evolutionary mutation: +/-1 index steps at ~1/``rate`` per axis.

        Returns the mutated split when feasible, ``None`` otherwise (the
        caller simply skips infeasible children).
        """
        indices = [index_of[value] for index_of, value in zip(self._index, split)]
        for position, axis in enumerate(self.axes):
            if rng.randrange(rate):
                continue
            step = 1 if rng.randrange(2) else -1
            indices[position] = min(len(axis) - 1, max(0, indices[position] + step))
        child = tuple(axis[i] for axis, i in zip(self.axes, indices))
        return child if self.feasible(child) else None


class ConfigEvaluator:
    """Memoized batch scoring of splits through one callable.

    ``score(splits)`` returns one row dict per split (``None`` when the
    config is infeasible for every dataflow); the evaluator deduplicates
    across batches so a split is never searched twice, and keeps its rows
    in the deterministic split order.
    """

    def __init__(self, score, objectives):
        self._score = score
        self.objectives = tuple(objectives)
        self._rows = {}

    def seen(self, split: tuple) -> bool:
        return split in self._rows

    @property
    def evaluated_count(self) -> int:
        return len(self._rows)

    @property
    def infeasible_count(self) -> int:
        return sum(1 for row in self._rows.values() if row is None)

    def evaluate(self, splits) -> int:
        """Score every not-yet-seen split (one batched call); returns #new."""
        fresh = sorted(set(splits) - self._rows.keys())
        if not fresh:
            return 0
        for split, row in zip(fresh, self._score(fresh)):
            self._rows[split] = row
        return len(fresh)

    def rows(self) -> list:
        """Every feasible scored row, ordered by split tuple."""
        return [row for _, row in sorted(self._rows.items()) if row is not None]

    def frontier(self) -> list:
        return pareto_frontier(self.rows(), self.objectives)

    def frontier_splits(self) -> list:
        return [split_of_row(row) for row in self.frontier()]


# ---------------------------------------------------------------- drivers


def _initial_stride(grid: SplitGrid) -> int:
    """Largest power of two strictly below the longest axis length."""
    longest = max(len(axis) for axis in grid.axes)
    stride = 1
    while stride * 2 < longest:
        stride *= 2
    return stride


def _seed_coarse(evaluator: ConfigEvaluator, grid: SplitGrid, stride: int) -> int:
    """Evaluate the coarse grid, halving the stride until something scores.

    A thin budget can leave a strided sub-grid with no feasible config at
    all; retreating toward stride 1 degrades gracefully to the exhaustive
    enumeration instead of returning an empty frontier next to a
    non-empty space.
    """
    while True:
        evaluator.evaluate(grid.coarse_splits(stride))
        if evaluator.frontier_splits() or stride == 1:
            return stride
        stride //= 2


def _drive_halving(evaluator, grid, rng) -> dict:
    stride = _seed_coarse(evaluator, grid, _initial_stride(grid))
    start_stride = stride
    rounds = 0
    while stride > 1:
        previous, stride = stride, stride // 2
        rounds += 1
        batch = []
        for split in evaluator.frontier_splits():
            batch.extend(grid.window_splits(split, radius=previous, stride=stride))
        evaluator.evaluate(batch)
    return {"driver": "halving", "start_stride": start_stride, "rounds": rounds}


def _drive_local(evaluator, grid, rng) -> dict:
    starts = []
    for _ in range(LOCAL_STARTS):
        split = grid.random_split(rng)
        if split is not None:
            starts.append(split)
    if starts:
        evaluator.evaluate(starts)
    if not evaluator.frontier_splits():
        # Rejection sampling found nothing (thin budget): fall back to the
        # deterministic coarse seeding the halving driver uses.
        _seed_coarse(evaluator, grid, _initial_stride(grid))
    expanded = set()
    rounds = 0
    while True:
        pending = [split for split in evaluator.frontier_splits() if split not in expanded]
        if not pending:
            break
        rounds += 1
        batch = []
        for split in pending:
            expanded.add(split)
            batch.extend(grid.window_splits(split, radius=1))
        evaluator.evaluate(batch)
    return {"driver": "local", "starts": len(starts), "rounds": rounds}


def _drive_evolution(evaluator, grid, rng) -> dict:
    starts = []
    for _ in range(EVOLUTION_POPULATION):
        split = grid.random_split(rng)
        if split is not None:
            starts.append(split)
    if starts:
        evaluator.evaluate(starts)
    if not evaluator.frontier_splits():
        _seed_coarse(evaluator, grid, _initial_stride(grid))
    stale = 0
    generations = 0
    while generations < EVOLUTION_GENERATIONS and stale < EVOLUTION_PATIENCE:
        parents = evaluator.frontier_splits()
        if not parents:
            break
        generations += 1
        children = []
        for _ in range(EVOLUTION_POPULATION):
            mother = parents[rng.randrange(len(parents))]
            father = parents[rng.randrange(len(parents))]
            child = tuple(
                mother[position] if rng.randrange(2) else father[position]
                for position in range(len(mother))
            )
            child = grid.mutate(child, rng)
            if child is not None:
                children.append(child)
        evaluator.evaluate(children)
        stale = 0 if evaluator.frontier_splits() != parents else stale + 1
    return {"driver": "evolution", "starts": len(starts), "generations": generations}


_DRIVERS = {
    "halving": _drive_halving,
    "local": _drive_local,
    "evolution": _drive_evolution,
}


# ------------------------------------------------------------- certificate


def run_certificate(evaluator: ConfigEvaluator, grid: SplitGrid, region: int) -> dict:
    """Re-verify a trust region around every frontier point, to a fixed point.

    Each round exhaustively enumerates the ``region``-step neighborhood of
    every current frontier point; unseen neighbors are evaluated and the
    frontier recomputed.  At the fixed point every neighborhood config has
    been scored and none dominates the frontier -- that is the exactness
    guarantee ``verified: True`` records.  ``exhaustive_points`` counts the
    distinct splits the enumeration covered.
    """
    if region < 1:
        raise ValueError(f"certificate region must be >= 1, got {region}")
    covered = set()
    for _ in range(MAX_CERTIFICATE_ROUNDS):
        needed = set()
        for split in evaluator.frontier_splits():
            for neighbor in grid.window_splits(split, radius=region):
                covered.add(neighbor)
                if not evaluator.seen(neighbor):
                    needed.add(neighbor)
        if not needed:
            return {"verified": True, "region": region, "exhaustive_points": len(covered)}
        evaluator.evaluate(needed)
    return {"verified": False, "region": region, "exhaustive_points": len(covered)}


def run_smart_explorer(
    score,
    objectives,
    space: CandidateSpace,
    budget_words: int,
    explorer: str,
    seed: int = 0,
    slice_spec=(1, 1),
    certificate_region: int = DEFAULT_CERTIFICATE_REGION,
) -> dict:
    """Run one smart driver plus its certificate; returns the result parts.

    ``slice_spec=(k, n)`` runs island ``k``: the same driver on seed
    ``seed + k - 1``.  Certificates are per island; island frontiers merge
    associatively exactly like exhaustive slice frontiers.
    """
    explorer = validate_explorer(explorer)
    if explorer == DEFAULT_EXPLORER:
        raise ValueError("the exhaustive sweep does not run through a smart driver")
    seed = validate_seed(seed)
    index, _ = slice_spec
    grid = SplitGrid(space, budget_words)
    evaluator = ConfigEvaluator(score, objectives)
    rng = random.Random(seed + index - 1)
    stats = _DRIVERS[explorer](evaluator, grid, rng)
    certificate = run_certificate(evaluator, grid, certificate_region)
    return {
        "rows": evaluator.rows(),
        "frontier": evaluator.frontier(),
        "evaluated_count": evaluator.evaluated_count,
        "infeasible_count": evaluator.infeasible_count,
        "stats": stats,
        "certificate": certificate,
    }
