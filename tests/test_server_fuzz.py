"""Hypothesis fuzzing of the daemon's request decoders.

Whatever bytes a client sends, decoding ends in one of two ways: a
well-formed value, or an error the daemon answers with a 400 (or by closing
the connection).  Any other exception would surface as a 500, and a value
with the wrong types would reach the engine and its cache.

* ``_read_request`` parses one HTTP request off a stream and
  ``_Request.json`` decodes its body;
* ``resolve_dataflow`` / ``resolve_layer`` / ``resolve_capacity`` turn the
  decoded document into what ``SearchService.search`` takes.
"""

import asyncio
import json

from hypothesis import given, settings, strategies as st

from repro.dataflows.registry import dataflow_names
from repro.server.daemon import _BadRequest, _read_request, _Request
from repro.server.protocol import (
    LAYER_FIELDS,
    ProtocolError,
    resolve_capacity,
    resolve_dataflow,
    resolve_layer,
)
from repro.workloads.registry import UnknownWorkloadError, get_workload_spec

# ------------------------------------------------------------------- HTTP

#: Long runs of one byte: deep nesting, huge integers, long strings.
_RUNS = st.tuples(st.sampled_from(b'[{1" \\'), st.integers(0, 20_000)).map(
    lambda run: bytes([run[0]]) * run[1]
)
_BODIES = st.one_of(
    st.binary(max_size=64),
    _RUNS,
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=8), children, max_size=3),
        max_leaves=8,
    ).map(lambda document: json.dumps(document).encode("utf-8")),
)


def _mostly(valid, garbage=st.binary(max_size=12)):
    """``valid`` four times in five, otherwise arbitrary bytes."""
    return st.one_of(valid, valid, valid, valid, garbage)


_REQUEST_LINES = _mostly(
    st.tuples(
        st.sampled_from([b"GET", b"POST"]),
        st.sampled_from([b"/search", b"/stats?x=1", b"/"]),
        st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2"]),
    ).map(b" ".join)
)
_HEADER_LINES = _mostly(
    st.tuples(
        st.sampled_from([b"Host", b"Connection", b"Content-Type"]),
        st.sampled_from([b"x", b"close", b""]),
    ).map(b": ".join)
)


@st.composite
def _raw_requests(draw) -> bytes:
    """HTTP requests that are well-formed part by part, most of the time."""
    body = draw(_BODIES)
    lines = [draw(_REQUEST_LINES), *draw(st.lists(_HEADER_LINES, max_size=3))]
    length = _mostly(st.just(len(body)), st.integers(-5, 2 * len(body) + 5))
    lines.append(b"Content-Length: " + draw(_mostly(length.map(lambda n: str(n).encode()))))
    raw = b"\r\n".join(lines) + b"\r\n\r\n" + body
    return draw(_mostly(st.just(raw), st.integers(0, len(raw)).map(lambda cut: raw[:cut])))


def _read(raw: bytes):
    async def parse():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await _read_request(reader)

    return asyncio.run(parse())


class TestRequestDecoding:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=256), _raw_requests()))
    def test_any_bytes_parse_or_fail_cleanly(self, raw):
        try:
            request = _read(raw)
        except (_BadRequest, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return
        assert request is None and raw == b"" or isinstance(request, _Request)

    @settings(max_examples=200, deadline=None)
    @given(_BODIES)
    def test_any_body_decodes_to_an_object_or_a_protocol_error(self, body):
        try:
            document = _Request("POST", "/search", {}, body).json()
        except ProtocolError:
            return
        assert isinstance(document, dict)


# --------------------------------------------------------------- protocol

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
_SCALARS = st.one_of(st.integers(0, 12), st.booleans(), st.floats(), st.text(max_size=3), st.none())
_BASE_LAYER = {
    "name": "l", "batch": 1, "in_channels": 8, "in_height": 14, "in_width": 14,
    "out_channels": 16, "kernel_height": 3, "kernel_width": 3, "stride": 1, "padding": 1,
}


@st.composite
def _layers(draw) -> dict:
    """A valid inline layer with up to three fields replaced or removed."""
    document = dict(_BASE_LAYER)
    fields = st.sampled_from(LAYER_FIELDS + ("weight_kind",))
    document.update(draw(st.dictionaries(fields, st.one_of(_SCALARS, _JSON), max_size=3)))
    for field in draw(st.lists(fields, max_size=2)):
        document.pop(field, None)
    return document


_WHERE = st.one_of(
    st.fixed_dictionaries({"layer": st.one_of(_layers(), _JSON)}),
    st.fixed_dictionaries(
        {"workload": _mostly(st.sampled_from(["tiny", "tiny:2", "vgg16", "tiny:0", "tiny:x", "nope"]), _JSON)},
        optional={
            "layer_index": st.one_of(st.integers(-2, 14), _SCALARS, _JSON),
            "layer_name": st.one_of(st.sampled_from(["conv1_1", "nope"]), _JSON),
        },
    ),
    st.dictionaries(st.text(max_size=6), _JSON, max_size=3),
)
_REST = st.fixed_dictionaries(
    {},
    optional={
        "dataflow": st.one_of(st.sampled_from(dataflow_names() + ["Nope"]), _JSON),
        "capacity_words": st.one_of(st.integers(-2, 1 << 20), _SCALARS, _JSON),
        "capacity_kib": st.one_of(_SCALARS, _JSON),
    },
)


def _check_layer(document: dict, layer) -> bool:
    assert type(layer.name) is str, layer.name
    for field in LAYER_FIELDS[1:]:
        assert type(getattr(layer, field)) is int, (field, getattr(layer, field))
    if "layer" not in document and "layer_index" in document:
        index = document["layer_index"]
        assert type(index) is int, f"layer_index {index!r} resolved"
        assert layer == get_workload_spec(document["workload"])[index]
    return True


class TestProtocolDecoder:
    @settings(max_examples=300, deadline=None)
    @given(st.tuples(_WHERE, _REST).map(lambda parts: {**parts[0], **parts[1]}))
    def test_resolvers_return_well_typed_values_or_protocol_errors(self, document):
        checks = (
            (resolve_dataflow, lambda value: value.name == document["dataflow"]),
            (resolve_layer, lambda value: _check_layer(document, value)),
            (resolve_capacity, lambda value: type(value) is int and value >= 1),
        )
        for resolve, check in checks:
            try:
                value = resolve(document)
            except (ProtocolError, UnknownWorkloadError):
                continue
            assert check(value), (resolve.__name__, value)
