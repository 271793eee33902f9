"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import pytest

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.arch.config import PAPER_IMPLEMENTATIONS  # noqa: E402
from repro.core.layer import ConvLayer  # noqa: E402
from repro.workloads.vgg import vgg16_conv_layers  # noqa: E402


@pytest.fixture
def daemon(tmp_path):
    """A real search daemon on an ephemeral port, served from a background
    thread; its engine's cache is ``tmp_path / "cache.sqlite"``."""
    import asyncio
    import threading

    from repro.engine import SearchEngine
    from repro.server.daemon import SearchDaemon

    engine = SearchEngine(cache_path=str(tmp_path / "cache.sqlite"))
    instance = SearchDaemon(
        engine=engine,
        port=0,
        work_dir=str(tmp_path / "runs"),
    )
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def serve():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(instance.start())
        started.set()
        loop.run_until_complete(instance.serve_until_shutdown())
        loop.close()

    thread = threading.Thread(target=serve, name="test-daemon")
    thread.start()
    assert started.wait(timeout=30), "daemon did not start"
    yield instance
    loop.call_soon_threadsafe(instance.request_shutdown)
    thread.join(timeout=30)
    assert not thread.is_alive(), "daemon did not shut down"


@pytest.fixture
def full_sqlite(monkeypatch):
    """Cap every search cache and work queue opened from here on at the
    pages its file holds once initialised (``PRAGMA max_page_count``): the
    first write that needs another page fails with SQLITE_FULL, "database
    or disk is full", as on a full disk."""
    from repro.engine.cache import SqliteStore
    from repro.orchestration.scheduler import WorkQueue

    def capped(initialise):
        def capped_initialise(self):
            initialise(self)
            pages = self._connection.execute("PRAGMA page_count").fetchone()[0]
            self._connection.execute(f"PRAGMA max_page_count={pages}")

        return capped_initialise

    for owner in (SqliteStore, WorkQueue):
        monkeypatch.setattr(owner, "_initialise", capped(owner._initialise))


@pytest.fixture(scope="session")
def vgg_layers():
    """The paper's workload: VGG-16 convolutional layers at batch 3."""
    return vgg16_conv_layers()

@pytest.fixture(scope="session")
def vgg_layer_mid(vgg_layers):
    """A representative mid-network layer (conv3_2: 256 channels, 56x56)."""
    return vgg_layers[5]


@pytest.fixture
def small_layer():
    """A small layer usable by the functional simulator and DAG tools."""
    return ConvLayer("small", batch=1, in_channels=3, in_height=10, in_width=10,
                     out_channels=4, kernel_height=3, kernel_width=3, stride=1, padding=0)


@pytest.fixture
def padded_layer():
    """A small layer with padding and a rectangular input."""
    return ConvLayer("padded", batch=2, in_channels=2, in_height=9, in_width=7,
                     out_channels=3, kernel_height=3, kernel_width=3, stride=1, padding=1)


@pytest.fixture
def strided_layer():
    """A small layer with stride 2 (R < Wk*Hk)."""
    return ConvLayer("strided", batch=1, in_channels=2, in_height=11, in_width=11,
                     out_channels=3, kernel_height=3, kernel_width=3, stride=2, padding=0)


@pytest.fixture(scope="session")
def impl1():
    """Implementation 1 of Table I (16x16 PEs, 66.5 KB effective memory)."""
    return PAPER_IMPLEMENTATIONS[0]


@pytest.fixture(scope="session")
def capacity_66k():
    """66.5 KB of effective on-chip memory, in 16-bit words."""
    return int(66.5 * 1024) // 2


@pytest.fixture(scope="session")
def pin_payload():
    """``pin_payload(pin, backend="auto")``: a pinned payload, computed once.

    The golden tests of every family (write, replay, tamper) share one
    computation per pin and backend, and one engine per backend, for the
    whole session.
    """
    from repro.analysis.goldens import compute_pin
    from repro.engine import SearchEngine, resolve_backend

    engines, payloads = {}, {}

    def payload(pin, backend="auto"):
        backend = resolve_backend(backend)
        key = (pin.experiment, pin.workload, pin.filename, backend)
        if key not in payloads:
            engine = engines.setdefault(backend, SearchEngine(backend=backend))
            payloads[key] = compute_pin(pin, engine=engine)
        return payloads[key]

    return payload


@pytest.fixture
def restrict_pins(monkeypatch):
    """``restrict_pins(*pins)``: make the registry declare only ``pins``.

    Tests of the CLI and merge paths pin the cheap ``tiny`` workload this
    way instead of recomputing every real golden.
    """
    from repro.orchestration.experiments import experiment_names, get_experiment

    def restrict(*pins):
        for name in experiment_names():
            declared = tuple(tuple(pin[1:]) for pin in pins if pin.experiment == name)
            monkeypatch.setattr(get_experiment(name), "pins", declared)

    return restrict
