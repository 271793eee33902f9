"""Golden-value regression suite: the pinned payloads must not move.

Every JSON file under ``tests/goldens/`` is declared as a pin on its
experiment's registry entry.  The ``goldens`` experiment pins the fig13
memory-sweep totals, the fig14 per-layer DRAM traffic and the Table III
Eyeriss comparison per CNN; the other pins hold the timing, traffic, LLM
decode and DSE payloads.  Any engine/traffic-model change that shifts a
pinned value fails here with the file and JSON path of the moved value; if
the shift is intentional, re-pin with ``repro-experiments goldens --write``
and review the JSON diff.
"""

import json
import os

import pytest

from repro.analysis.goldens import (
    FIG13_CAPACITIES_KIB,
    Pin,
    check_pins,
    declared_pins,
    diff_goldens,
    diff_pin,
    write_pin,
    write_pins,
)
from repro.engine import SearchEngine

GOLDENS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

REGEN_HINT = "regenerate with `repro-experiments goldens --write`"

PINS = declared_pins()

#: The ``goldens`` experiment's per-CNN bundles, by workload.
BUNDLES = {pin.workload: pin for pin in PINS if pin.experiment == "goldens"}

TINY_PIN = Pin("goldens", "tiny", {}, "tiny.json")


def load_pinned(pin: Pin) -> dict:
    with open(os.path.join(GOLDENS_DIR, pin.filename)) as handle:
        return json.load(handle)


def first_number_path(value, path=()):
    """Path to the first nonzero number in a payload (for the x2 tamper)."""
    if isinstance(value, dict):
        items = sorted(value.items())
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return path if is_number and value else None
    for key, item in items:
        found = first_number_path(item, path + (key,))
        if found is not None:
            return found
    return None


class TestGoldenFiles:
    @pytest.mark.parametrize("workload", BUNDLES)
    def test_golden_file_exists(self, workload):
        assert os.path.exists(os.path.join(GOLDENS_DIR, BUNDLES[workload].filename)), (
            f"missing golden for {workload!r}; {REGEN_HINT}"
        )

    @pytest.mark.parametrize("workload", BUNDLES)
    def test_figures_match_pinned_values(self, workload, pin_payload):
        problems = diff_pin(GOLDENS_DIR, BUNDLES[workload], pin_payload(BUNDLES[workload]))
        assert not problems, (
            f"{workload}: {len(problems)} pinned figures moved "
            f"(first: {problems[0]}); if intentional, {REGEN_HINT}"
        )

    def test_pinned_capacities_cover_later_figures(self):
        # fig14 runs at 66.5 KB and table3 at 173.5 KB; the fig13 sweep must
        # pin both so one golden file guards all three figures coherently.
        assert 66.5 in FIG13_CAPACITIES_KIB
        assert 173.5 in FIG13_CAPACITIES_KIB

    @pytest.mark.parametrize("workload", BUNDLES)
    def test_goldens_are_internally_consistent(self, workload):
        """Sanity relations of the pinned numbers themselves (no searches)."""
        golden = load_pinned(BUNDLES[workload])
        series = golden["fig13"]["series"]
        for index in range(len(golden["fig13"]["capacities_kib"])):
            bound = series["Lower bound"][index]
            ours = series["Ours"][index]
            found = series["Found minimum"][index]
            assert bound <= ours + 1e-12
            assert found <= ours + 1e-12
            for name, values in series.items():
                if name in ("Lower bound", "Found minimum"):
                    continue
                # Infeasible (dataflow, capacity) points are pinned as null.
                assert values[index] is None or values[index] >= found - 1e-12
        # Eq. (15) is an achievable *reference*, not a per-layer floor: layers
        # with a small operand tensor (or stride > 1) can beat it, e.g. the
        # strided ResNet-18 shortcuts sit ~3.5% below.  Network totals and a
        # 10% per-layer envelope must still hold.
        assert sum(r["lower_bound_mb"] for r in golden["fig14"]) <= sum(
            r["ours_mb"] for r in golden["fig14"]
        )
        for row in golden["fig14"]:
            assert row["lower_bound_mb"] <= 1.10 * row["ours_mb"]
        rows = golden["table3"]["summary"]["rows"]
        assert rows["Lower bound"]["dram_access_mb"] <= rows["Our dataflow"]["dram_access_mb"]


class TestGoldensAcrossBackends:
    """The pinned figures must not move under the vectorized backend.

    The golden values were pinned by the scalar reference search; re-running
    them through ``SearchEngine(backend="numpy")`` must reproduce every
    number bit-for-bit (the differential suite proves per-search parity,
    this proves it end-to-end on the real figures).  Without numpy the
    module's default-engine tests above already cover the scalar fallback.
    """

    @pytest.mark.parametrize("workload", BUNDLES)
    def test_numpy_backend_reproduces_pinned_figures(self, workload, pin_payload):
        pytest.importorskip("numpy")
        problems = diff_pin(GOLDENS_DIR, BUNDLES[workload], pin_payload(BUNDLES[workload], "numpy"))
        assert not problems, (
            f"{workload}: {len(problems)} pinned figures moved under the "
            f"numpy backend (first: {problems[0]})"
        )


class TestEveryPin:
    """The shared write/check path, over every pin the registry declares."""

    def test_every_golden_file_is_declared(self):
        assert sorted(pin.filename for pin in PINS) == sorted(os.listdir(GOLDENS_DIR))

    @pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.filename)
    def test_write_reproduces_the_pinned_bytes(self, pin, pin_payload, tmp_path):
        # Byte identity implies the 1e-9 replay; the diff explains a failure.
        payload = pin_payload(pin)
        path = write_pin(str(tmp_path), pin, payload)
        with open(path, "rb") as written, open(os.path.join(GOLDENS_DIR, pin.filename), "rb") as pinned:
            assert written.read() == pinned.read(), diff_pin(GOLDENS_DIR, pin, payload)[:5]

    @pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.filename)
    def test_doubled_value_is_reported_with_its_file(self, pin, pin_payload, tmp_path):
        golden = load_pinned(pin)
        path = first_number_path(golden)
        container = golden
        for key in path[:-1]:
            container = container[key]
        container[path[-1]] *= 2  # well past the 1e-9 tolerance
        (tmp_path / pin.filename).write_text(json.dumps(golden))
        problems = diff_pin(str(tmp_path), pin, pin_payload(pin))
        assert problems and all(problem.startswith(pin.filename) for problem in problems)

    @pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.filename)
    def test_missing_file_points_at_goldens_write(self, pin, tmp_path):
        (problem,) = diff_pin(str(tmp_path), pin, {})
        assert pin.filename in problem and "repro-experiments goldens --write" in problem


class TestGoldenTooling:
    def test_write_and_check_roundtrip(self, tmp_path):
        engine = SearchEngine()
        paths = write_pins(str(tmp_path), pins=[TINY_PIN], engine=engine)
        assert paths == [str(tmp_path / "tiny.json")]
        report = check_pins(str(tmp_path), pins=[TINY_PIN], engine=engine)
        assert report == {"tiny": []}

    def test_check_reports_missing_file(self, tmp_path):
        report = check_pins(str(tmp_path), pins=[TINY_PIN])
        assert len(report["tiny"]) == 1
        assert "missing" in report["tiny"][0]

    def test_check_flags_moved_value(self, tmp_path):
        engine = SearchEngine()
        write_pins(str(tmp_path), pins=[TINY_PIN], engine=engine)
        path = tmp_path / "tiny.json"
        payload = json.loads(path.read_text())
        payload["fig13"]["series"]["Ours"][0] *= 1.5
        path.write_text(json.dumps(payload))
        report = check_pins(str(tmp_path), pins=[TINY_PIN], engine=engine)
        assert any("Ours" in problem for problem in report["tiny"])

    def test_corrupt_pinned_file_is_a_problem_not_a_crash(self, tmp_path):
        (tmp_path / "tiny.json").write_text("{broken")
        (problem,) = diff_pin(str(tmp_path), TINY_PIN, {})
        assert "not valid JSON" in problem

    def test_diff_treats_nan_as_equal(self):
        assert diff_goldens({"a": float("nan")}, {"a": float("nan")}) == []
        assert diff_goldens({"a": float("nan")}, {"a": 1.0}) != []

    def test_diff_flags_structure_changes(self):
        assert diff_goldens({"a": 1.0}, {}) == ["$.a: missing from output"]
        assert diff_goldens({"a": [1.0]}, {"a": [1.0, 2.0]}) == [
            "$.a: length 2 != pinned 1"
        ]
