"""Wire format of the search daemon: JSON documents, bit-exact round-trips.

The daemon's contract is that a served result equals a direct
``SearchEngine`` call *bit for bit*.  JSON can honour that: every number in
a :class:`~repro.dataflows.base.DataflowResult` is an int or a float, both
of which round-trip exactly through Python's ``json`` (floats are emitted
via ``repr``, which is shortest-exact), and tilings are ``{str: int}``
dictionaries.  :func:`result_to_wire` / :func:`result_from_wire` are the
two halves of that round-trip; the client reconstructs genuine
``DataflowResult`` / ``TrafficBreakdown`` dataclasses, so client-side
equality checks against local engine results are meaningful.

Requests name their layer either inline (a shape dictionary) or by
reference into the workload registry (``{"workload": "vgg16",
"layer_index": 3}``), and their capacity either in words or KiB
(converted with the same :func:`~repro.core.layer.kib_to_words` the CLI
uses).  A reference resolves through a small memo of built workloads, so
a warm reference costs a lookup, not a rebuild.  Malformed requests raise
:class:`ProtocolError`, which the daemon maps to HTTP 400 with the message
in the body.
"""

from __future__ import annotations

import functools

from repro.core.layer import ConvLayer, kib_to_words
from repro.core.traffic import TrafficBreakdown
from repro.dataflows.base import DataflowResult

#: ConvLayer constructor fields, in wire order.
LAYER_FIELDS = (
    "name",
    "batch",
    "in_channels",
    "in_height",
    "in_width",
    "out_channels",
    "kernel_height",
    "kernel_width",
    "stride",
    "padding",
)

#: TrafficBreakdown fields, in wire order.
TRAFFIC_FIELDS = ("input_reads", "weight_reads", "output_reads", "output_writes")


class ProtocolError(ValueError):
    """A malformed or unserviceable request document (HTTP 400)."""


def layer_to_wire(layer: ConvLayer) -> dict:
    return {name: getattr(layer, name) for name in LAYER_FIELDS}


def layer_from_wire(document: dict) -> ConvLayer:
    if not isinstance(document, dict):
        raise ProtocolError(f"layer must be an object, got {type(document).__name__}")
    unknown = set(document) - set(LAYER_FIELDS)
    if unknown:
        raise ProtocolError(f"unknown layer fields: {', '.join(sorted(unknown))}")
    missing = set(LAYER_FIELDS[:-2]) - set(document)  # stride/padding default
    if missing:
        raise ProtocolError(f"layer is missing fields: {', '.join(sorted(missing))}")
    # ConvLayer only range-checks its fields; a float or bool shape would be
    # searched (and cached) as if it were a layer.
    if not isinstance(document["name"], str):
        raise ProtocolError(f"layer name must be a string, got {document['name']!r}")
    for name in LAYER_FIELDS[1:]:
        if name in document and not _is_int(document[name]):
            raise ProtocolError(
                f"layer field {name} must be an integer, got {document[name]!r}"
            )
    try:
        return ConvLayer(**document)
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"invalid layer: {error}") from error


def traffic_to_wire(traffic: TrafficBreakdown) -> dict:
    return {name: getattr(traffic, name) for name in TRAFFIC_FIELDS}


def traffic_from_wire(document: dict) -> TrafficBreakdown:
    return TrafficBreakdown(**{name: document[name] for name in TRAFFIC_FIELDS})


def result_to_wire(result: DataflowResult) -> dict:
    return {
        "dataflow": result.dataflow,
        "layer_name": result.layer_name,
        "capacity_words": result.capacity_words,
        "tiling": dict(result.tiling),
        "traffic": traffic_to_wire(result.traffic),
    }


def result_from_wire(document: dict) -> DataflowResult:
    return DataflowResult(
        dataflow=document["dataflow"],
        layer_name=document["layer_name"],
        capacity_words=document["capacity_words"],
        tiling=dict(document["tiling"]),
        traffic=traffic_from_wire(document["traffic"]),
    )


# ---------------------------------------------------------------- requests


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@functools.lru_cache(maxsize=32)
def _built_layers(workload, batch) -> tuple:
    """A registered workload's layers at ``batch``, built once and shared by
    every request that names them (``ConvLayer`` is frozen).  Keyed on the
    registry entry, so a replaced registration is rebuilt; bounded, since
    clients choose the specs; failures are not cached."""
    return tuple(workload.build(batch=batch))


def resolve_dataflow(document: dict):
    """The registry dataflow a request names (``{"dataflow": "Ours"}``)."""
    # Imported here: the registry pulls in every dataflow module.
    from repro.dataflows.registry import get_dataflow

    name = document.get("dataflow")
    if not isinstance(name, str):
        raise ProtocolError("request needs a 'dataflow' name")
    try:
        return get_dataflow(name)
    except KeyError as error:
        raise ProtocolError(str(error.args[0])) from error


def resolve_layer(document: dict) -> ConvLayer:
    """The layer a request describes, inline or by workload reference.

    A reference whose batch (named, or the workload's default) exceeds
    :data:`~repro.server.daemon.MAX_REFERENCE_BATCH` is rejected before
    anything is built.
    """
    # Imported here: the daemon imports this module back.
    from repro.server.daemon import MAX_REFERENCE_BATCH
    from repro.workloads.registry import UnknownWorkloadError, parse_workload_spec

    if "layer" in document:
        return layer_from_wire(document["layer"])
    workload = document.get("workload")
    if not isinstance(workload, str):
        raise ProtocolError(
            "request needs either an inline 'layer' object or a 'workload' "
            "reference with 'layer_index' or 'layer_name'"
        )
    try:
        entry, batch = parse_workload_spec(workload)
        size = entry.default_batch if batch is None else batch
        if size > MAX_REFERENCE_BATCH:
            raise ValueError(
                f"workload {workload!r} names batch {size}; references are "
                f"limited to batch {MAX_REFERENCE_BATCH}"
            )
        layers = _built_layers(entry, batch)
    except (UnknownWorkloadError, ValueError) as error:
        raise ProtocolError(str(error)) from error
    if "layer_index" in document:
        index = document["layer_index"]
        if not _is_int(index) or not 0 <= index < len(layers):
            raise ProtocolError(
                f"layer_index must be an int in [0, {len(layers)}), got {index!r}"
            )
        return layers[index]
    if "layer_name" in document:
        name = document["layer_name"]
        for layer in layers:
            if layer.name == name:
                return layer
        raise ProtocolError(f"workload {workload!r} has no layer named {name!r}")
    raise ProtocolError("workload reference needs 'layer_index' or 'layer_name'")


def resolve_capacity(document: dict) -> int:
    """A request's capacity in words (``capacity_words`` or ``capacity_kib``)."""
    if "capacity_words" in document and "capacity_kib" in document:
        raise ProtocolError("pass capacity_words or capacity_kib, not both")
    if "capacity_words" in document:
        capacity = document["capacity_words"]
        if not _is_int(capacity) or capacity < 1:
            raise ProtocolError(
                f"capacity_words must be a positive integer, got {capacity!r}"
            )
        return capacity
    if "capacity_kib" in document:
        kib = document["capacity_kib"]
        if not isinstance(kib, (int, float)) or isinstance(kib, bool):
            raise ProtocolError(f"capacity_kib must be a positive number, got {kib!r}")
        try:
            words = kib_to_words(kib)
        except (OverflowError, ValueError) as error:
            raise ProtocolError(f"capacity_kib must be finite, got {kib!r}") from error
        if words < 1:
            raise ProtocolError(f"capacity_kib must be at least one word, got {kib!r}")
        return words
    raise ProtocolError("request needs 'capacity_words' or 'capacity_kib'")


def resolve_capacities(document: dict) -> list:
    """A multi-capacity request's word list (``capacities_words`` / ``_kib``)."""
    if "capacities_words" in document and "capacities_kib" in document:
        raise ProtocolError("pass capacities_words or capacities_kib, not both")
    for field, convert in (
        ("capacities_words", lambda value: resolve_capacity({"capacity_words": value})),
        ("capacities_kib", lambda value: resolve_capacity({"capacity_kib": value})),
    ):
        if field in document:
            values = document[field]
            if not isinstance(values, list) or not values:
                raise ProtocolError(f"{field} must be a non-empty list")
            return [convert(value) for value in values]
    raise ProtocolError("request needs 'capacities_words' or 'capacities_kib'")
