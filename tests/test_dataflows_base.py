"""Tests for repro.dataflows.base and the registry."""

import pytest

from repro.core.layer import ConvLayer
from repro.core.traffic import TrafficBreakdown
from repro.dataflows.base import Dataflow, DataflowResult, candidate_extents
from repro.dataflows.registry import ALL_DATAFLOWS, BASELINE_DATAFLOWS, dataflow_names, get_dataflow
from repro.engine import SearchEngine


class _ToyDataflow(Dataflow):
    """A trivial dataflow used to exercise the shared search machinery."""

    name = "toy"

    def tiling_space(self, layer, capacity_words):
        for size in (1, 2, 4):
            if size <= capacity_words:
                yield {"size": size}

    def traffic(self, layer, capacity_words, tiling):
        # Bigger tiles mean less traffic in this toy model.
        return TrafficBreakdown(input_reads=100.0 / tiling["size"])


@pytest.fixture
def layer():
    return ConvLayer("l", 1, 4, 12, 12, 8, 3, 3)


class TestCandidateExtents:
    def test_small_extent_enumerated_fully(self):
        assert candidate_extents(5) == [1, 2, 3, 4, 5]

    def test_large_extent_includes_one_and_extent(self):
        values = candidate_extents(224)
        assert 1 in values and 224 in values
        assert values == sorted(values)

    def test_large_extent_includes_powers_of_two(self):
        values = candidate_extents(224)
        for power in (2, 4, 8, 16, 32, 64, 128):
            assert power in values

    def test_candidate_count_bounded(self):
        assert len(candidate_extents(512, max_candidates=48)) < 80


class TestCandidateExtentsInvariants:
    """The invariants grid construction relies on, over a dense extent range.

    The vectorized backend (:mod:`repro.dataflows.grid`) materializes the
    cross product of these lists as arrays, so it needs them sorted, unique,
    within ``[1, extent]``, anchored (1, the extent, all powers of two) and
    of bounded length -- the documented slack bound is
    ``2 * max_candidates + log2(extent) + 2``.
    """

    EXTENTS = list(range(1, 130)) + [224, 250, 256, 500, 512, 1000, 1024, 4095, 4096]
    MAX_CANDIDATES = (8, 48, 100)

    def test_sorted_unique_in_range(self):
        for extent in self.EXTENTS:
            values = candidate_extents(extent)
            assert values == sorted(set(values)), f"extent={extent}"
            assert values[0] >= 1 and values[-1] <= extent, f"extent={extent}"
            assert all(isinstance(value, int) for value in values)

    def test_contains_one_extent_and_powers_of_two(self):
        for extent in self.EXTENTS:
            values = set(candidate_extents(extent))
            assert 1 in values and extent in values, f"extent={extent}"
            power = 1
            while power <= extent:
                assert power in values, f"extent={extent}: missing power {power}"
                power *= 2

    def test_length_within_documented_slack(self):
        import math

        for max_candidates in self.MAX_CANDIDATES:
            for extent in self.EXTENTS:
                values = candidate_extents(extent, max_candidates=max_candidates)
                bound = 2 * max_candidates + int(math.log2(extent)) + 2
                assert len(values) <= bound, (
                    f"extent={extent}, max_candidates={max_candidates}: "
                    f"{len(values)} candidates exceed the documented bound {bound}"
                )

    def test_small_extents_enumerated_exhaustively(self):
        for extent in range(1, 49):
            assert candidate_extents(extent) == list(range(1, extent + 1))


class TestSearch:
    def test_search_picks_best_tiling(self, layer):
        result = _ToyDataflow().search(layer, capacity_words=10)
        assert result.tiling == {"size": 4}
        assert result.total == pytest.approx(25.0)
        assert isinstance(result, DataflowResult)

    def test_search_respects_capacity(self, layer):
        result = _ToyDataflow().search(layer, capacity_words=2)
        assert result.tiling == {"size": 2}

    def test_search_raises_when_nothing_fits(self, layer):
        with pytest.raises(ValueError):
            _ToyDataflow().search(layer, capacity_words=0)

    def test_network_traffic_sums_layers(self, layer):
        dataflow = _ToyDataflow()
        single = dataflow.search(layer, 10).traffic.total
        network = SearchEngine().network_traffic([layer, layer], 10, dataflow=dataflow)
        assert network.total == pytest.approx(2 * single)

    def test_repr_mentions_name(self):
        assert "toy" in repr(_ToyDataflow())


class TestRegistry:
    def test_all_dataflows_include_baselines_and_ours(self):
        names = dataflow_names()
        assert names[0] == "Ours"
        for expected in ("OutR-A", "OutR-B", "WtR-A", "WtR-B", "InR-A", "InR-B", "InR-C"):
            assert expected in names
        assert len(ALL_DATAFLOWS) == len(BASELINE_DATAFLOWS) + 1

    def test_get_dataflow(self):
        assert get_dataflow("InR-A").name == "InR-A"

    def test_get_dataflow_unknown(self):
        with pytest.raises(KeyError):
            get_dataflow("nonexistent")

    def test_names_unique(self):
        names = dataflow_names()
        assert len(names) == len(set(names))
