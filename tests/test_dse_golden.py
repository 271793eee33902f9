"""Golden-value regression for the pinned DSE sweep.

``tests/goldens/dse_vgg16.json`` pins one complete budget-constrained sweep
(VGG-16 over the trimmed candidate space the ``dse`` experiment's registry
entry pins): every config row, every objective value and the full Pareto
frontier, at 1e-9 relative tolerance.  Any model change that moves a DSE
number becomes a visible diff; after an *intentional* change regenerate
with::

    repro-experiments goldens --write

and review the JSON diff like any other code change.  The sweep uses the
vectorized backend (the scalar reference would multiply the runtime ~100x;
cross-backend bit-identity is covered by ``tests/test_dse.py``).
"""

from __future__ import annotations

import os

import pytest

pytest.importorskip("numpy")

from repro.analysis.goldens import declared_pins, diff_pin, pin_params, write_pin  # noqa: E402

GOLDENS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

(DSE_PIN,) = [pin for pin in declared_pins() if pin.experiment == "dse"]

PINNED_PATH = os.path.join(GOLDENS_DIR, DSE_PIN.filename)


def test_pinned_file_exists():
    assert os.path.exists(PINNED_PATH), (
        "regenerate with: repro-experiments goldens --write"
    )


def test_dse_sweep_matches_pinned_golden(pin_payload):
    problems = diff_pin(GOLDENS_DIR, DSE_PIN, pin_payload(DSE_PIN, "numpy"))
    assert problems == [], "\n".join(problems[:20])


def test_golden_parameters_span_the_table1_neighbourhood():
    """The pinned space must keep covering the paper's design points."""
    space = pin_params(DSE_PIN)["space"]
    assert {16, 32, 64} <= set(space["pe_dims"])
    assert {32, 64, 128} <= set(space["lreg_words"])
    assert {1024, 1536} <= set(space["igbuf_words"])
    assert {256, 320} <= set(space["wgbuf_words"])


def test_write_golden_round_trips(tmp_path, pin_payload):
    path = write_pin(str(tmp_path), DSE_PIN, pin_payload(DSE_PIN, "numpy"))
    with open(path) as written, open(PINNED_PATH) as pinned:
        assert written.read() == pinned.read()
