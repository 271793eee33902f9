"""Property-based tests (hypothesis) for the DSE layer.

Three contracts the orchestrated sweeps lean on:

* every frontier point is non-dominated against the *whole* input set, and
  every input row is contained in or dominated by the frontier;
* the frontier is invariant under any permutation of the input rows (config
  enumeration order cannot matter);
* partitioning the rows into shards arbitrarily and merging the shard
  frontiers reproduces the unsharded frontier bit-identically, for any
  grouping of the merge (associativity).

Plus the same invariances on the real enumerator: candidate spaces and
budgets drawn at random enumerate identically on both backends and always
honour the budget.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.dse.pareto import (
    contains_or_dominates,
    dominates,
    merge_frontiers,
    pareto_frontier,
)
from repro.dse.space import (
    CandidateSpace,
    _enumerate_scalar,
    _enumerate_vectorized,
    count_splits,
    enumerate_splits,
)

OBJ = ("dram", "energy", "time")


@st.composite
def objective_rows(draw, min_size=0, max_size=40):
    """Rows with unique config names and finite objective vectors.

    Values are drawn from a small integer pool (as floats) so that ties and
    exact duplicates -- the interesting frontier cases -- occur often.
    """
    values = st.integers(0, 6).map(float)
    count = draw(st.integers(min_size, max_size))
    return [
        {
            "config": f"c{index:03d}",
            "objectives": {key: draw(values) for key in OBJ},
        }
        for index in range(count)
    ]


@st.composite
def candidate_spaces(draw):
    def axis(values, max_len=3):
        subset = draw(
            st.lists(st.sampled_from(values), min_size=1, max_size=max_len, unique=True)
        )
        return tuple(sorted(subset))

    return CandidateSpace(
        pe_dims=axis((4, 8, 12, 16, 32, 64)),
        lreg_words=axis((8, 16, 32, 64, 128)),
        igbuf_words=axis((256, 512, 1024, 1536)),
        wgbuf_words=axis((128, 256, 320)),
    )


class TestFrontierProperties:
    @settings(max_examples=60, deadline=None)
    @given(rows=objective_rows())
    def test_frontier_points_are_non_dominated(self, rows):
        frontier = pareto_frontier(rows, OBJ)
        for point in frontier:
            assert not any(dominates(other, point, OBJ) for other in rows)

    @settings(max_examples=60, deadline=None)
    @given(rows=objective_rows())
    def test_every_row_is_contained_or_dominated(self, rows):
        frontier = pareto_frontier(rows, OBJ)
        assert len(frontier) <= len(rows)
        for point in rows:
            assert contains_or_dominates(frontier, point, OBJ)

    @settings(max_examples=60, deadline=None)
    @given(rows=objective_rows(), seed=st.randoms(use_true_random=False))
    def test_frontier_is_invariant_under_input_order(self, rows, seed):
        expected = pareto_frontier(rows, OBJ)
        shuffled = list(rows)
        seed.shuffle(shuffled)
        assert json.dumps(pareto_frontier(shuffled, OBJ), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    @settings(max_examples=60, deadline=None)
    @given(
        rows=objective_rows(min_size=1),
        cuts=st.lists(st.integers(0, 40), max_size=4),
        pair_up=st.booleans(),
    )
    def test_sharded_merge_equals_unsharded_frontier(self, rows, cuts, pair_up):
        """Any partition, merged in any grouping, gives the whole frontier."""
        bounds = sorted({min(cut, len(rows)) for cut in cuts} | {0, len(rows)})
        shards = [
            rows[start:end] for start, end in zip(bounds, bounds[1:])
        ] or [rows]
        shard_frontiers = [pareto_frontier(shard, OBJ) for shard in shards]
        merged = merge_frontiers(shard_frontiers, OBJ)
        if pair_up and len(shard_frontiers) > 1:
            # Associativity: fold two shards first, then merge the rest.
            folded = merge_frontiers(shard_frontiers[:2], OBJ)
            merged = merge_frontiers([folded] + shard_frontiers[2:], OBJ)
        expected = pareto_frontier(rows, OBJ)
        assert json.dumps(merged, sort_keys=True) == json.dumps(expected, sort_keys=True)

    @settings(max_examples=60, deadline=None)
    @given(rows=objective_rows())
    def test_frontier_is_idempotent(self, rows):
        frontier = pareto_frontier(rows, OBJ)
        assert pareto_frontier(frontier, OBJ) == frontier


class TestEnumerationProperties:
    @settings(max_examples=40, deadline=None)
    @given(space=candidate_spaces(), budget=st.integers(1, 200_000))
    def test_splits_honour_budget_and_structure(self, space, budget):
        splits = enumerate_splits(budget, space)
        assert len(set(splits)) == len(splits)
        for rows, cols, lreg, igbuf, wgbuf in splits:
            assert rows * cols * lreg + igbuf + wgbuf <= budget
            assert rows % space.group_rows == 0 and cols % space.group_cols == 0
            assert cols <= rows <= space.max_aspect * cols

    @settings(max_examples=40, deadline=None)
    @given(space=candidate_spaces(), budget=st.integers(1, 200_000))
    def test_backends_enumerate_identically(self, space, budget):
        pytest.importorskip("numpy")
        pairs = space.pe_pairs()
        assert _enumerate_vectorized(budget, space, pairs) == _enumerate_scalar(budget, space, pairs)

    @settings(max_examples=40, deadline=None)
    @given(space=candidate_spaces(), budget=st.integers(1, 200_000))
    def test_count_splits_matches_enumeration(self, space, budget):
        # The arithmetic space-size count (what smart-explorer payloads
        # report as config_count_total) agrees with materialisation.
        assert count_splits(budget, space) == len(enumerate_splits(budget, space))
