"""Golden-value regression for the pinned timing sweep.

``tests/goldens/timing_vgg16.json`` pins the default 3-point bandwidth
sweep (3.2 / 6.4 / 12.8 GB/s, all five Table I implementations, VGG-16):
every per-buffer stall count, utilization, achieved bandwidth and power
number, at 1e-9 relative tolerance.  The pin is declared on the ``timing``
experiment's registry entry.  Any change that moves a timing number
becomes a visible diff; after an *intentional* model change regenerate
with::

    repro-experiments goldens --write

and review the JSON diff like any other code change.  The integer cycle
fields are compared exactly (``diff_goldens`` only tolerates float noise),
so the golden also re-proves the simulator's exact-arithmetic claim on a
real workload.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.goldens import declared_pins, diff_pin, pin_params, write_pin
from repro.analysis.timing_report import (
    DEFAULT_BANDWIDTHS_GBPS,
    bandwidth_utilization_sweep,
)
from repro.arch.config import PAPER_IMPLEMENTATIONS

GOLDENS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

(TIMING_PIN,) = [pin for pin in declared_pins() if pin.experiment == "timing"]

PINNED_PATH = os.path.join(GOLDENS_DIR, TIMING_PIN.filename)


def test_pinned_file_exists():
    assert os.path.exists(PINNED_PATH), (
        "regenerate with: repro-experiments goldens --write"
    )


def test_timing_sweep_matches_pinned_golden(pin_payload):
    problems = diff_pin(GOLDENS_DIR, TIMING_PIN, pin_payload(TIMING_PIN))
    assert problems == [], "\n".join(problems[:20])


def test_golden_parameters_pin_the_paper_neighbourhood():
    """The pinned sweep must keep bracketing the paper's 6.4 GB/s interface
    and covering every Table I implementation."""
    params = pin_params(TIMING_PIN)
    assert params["bandwidths_gbps"] == list(DEFAULT_BANDWIDTHS_GBPS)
    assert 6.4 in params["bandwidths_gbps"]
    assert params["implementations"] is None
    assert TIMING_PIN.workload == "vgg16"
    with open(PINNED_PATH) as handle:
        pinned = json.load(handle)
    assert pinned["implementations"] == [
        config.name for config in PAPER_IMPLEMENTATIONS
    ]
    assert len(pinned["rows"]) == len(PAPER_IMPLEMENTATIONS) * len(
        DEFAULT_BANDWIDTHS_GBPS
    )


def test_write_golden_round_trips(tmp_path, pin_payload):
    path = write_pin(str(tmp_path), TIMING_PIN, pin_payload(TIMING_PIN))
    with open(path) as written, open(PINNED_PATH) as pinned:
        assert written.read() == pinned.read()


def test_sweep_rejects_nonpositive_bandwidths():
    with pytest.raises(ValueError, match="bandwidths must be positive"):
        bandwidth_utilization_sweep(layers="tiny", bandwidths_gbps=[3.2, 0.0])


def test_sweep_implementation_indices_resolve():
    payload = bandwidth_utilization_sweep(
        layers="tiny", bandwidths_gbps=[6.4], implementations=[1, 5]
    )
    assert payload["implementations"] == ["implementation-1", "implementation-5"]
    assert [row["implementation"] for row in payload["rows"]] == [
        "implementation-1",
        "implementation-5",
    ]
