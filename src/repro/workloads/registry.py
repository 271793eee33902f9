"""Registry of named, parameterizable workloads.

Every network in the repository is exposed as a :class:`Workload` entry, so
any figure/sweep driver, the CLI and the :class:`~repro.engine.SearchEngine`
can run on any registered network by name::

    from repro.workloads.registry import get_workload, list_workloads

    layers = get_workload("vgg16", batch=4)      # list of ConvLayer
    layers = get_workload("mobilenet_v1")        # modern depthwise workload
    for workload in list_workloads():
        print(workload.name, workload.description)

CLI-style specs carry an optional batch override after a colon
(``"resnet18:8"``); :func:`get_workload_spec` parses them.  Functions that
default to the paper's VGG-16 accept either a layer list or a workload
name/spec via :func:`resolve_layers`.

Registering a new network takes one call::

    register_workload(
        "mynet", "My network (Me et al., 2026)", mynet_conv_layers,
        default_batch=1, tags=("cnn",),
    )

where the builder is ``builder(batch, **params) -> list[ConvLayer]``.  A
builder that repeats one identical block (the LLM families' ``num_layers``
decoder blocks) declares that parameter as ``stacked_by``, so
:meth:`Workload.shape_counts` can count its shapes from one block.
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass, field

from repro.engine.cache import layer_signature
from repro.workloads.alexnet import alexnet_conv_layers
from repro.workloads.generator import random_network, small_test_layers
from repro.workloads.googlenet import googlenet_conv_layers
from repro.workloads.llm import (
    llama_decode_layers,
    llama_prefill_layers,
    mixtral_decode_layers,
)
from repro.workloads.mobilenet import mobilenet_v1_layers
from repro.workloads.resnet import resnet18_conv_layers
from repro.workloads.transformer import bert_base_layers, bert_large_layers
from repro.workloads.vgg import PAPER_BATCH_SIZE, vgg16_conv_layers, vgg16_fc_layers


class UnknownWorkloadError(KeyError):
    """Raised for a workload name that is not in the registry."""

    def __str__(self) -> str:  # KeyError.__str__ would repr() the message
        return self.args[0] if self.args else ""


@dataclass(frozen=True)
class Workload:
    """One registered network: a named, parameterizable layer-list builder."""

    name: str
    description: str
    builder: object = field(repr=False)
    default_batch: int = 1
    tags: tuple = ()
    stacked_by: str = None
    """Builder parameter that sets how many blocks of identical shapes the
    layer list stacks (``"num_layers"``), or ``None`` for a flat list."""

    def build(self, batch: int = None, **params) -> list:
        """Materialise the layer list (``batch=None`` uses the default)."""
        if batch is None:
            batch = self.default_batch
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        return self.builder(batch, **params)

    def shape_counts(self, batch: int = None, **params) -> dict:
        """Unique shapes of :meth:`build`'s layer list, with multiplicities.

        Maps each ``(layer_signature, weight_kind)`` key, in first-seen
        order, to ``(first layer, count)``.  The signature is all that the
        bound and the searches read; the kind decides whose words a layer's
        weight reads are, so a KV-cache matmul never merges into a
        learned-weight layer of the same shape.  A stacked workload builds
        one block (through :meth:`build`) and multiplies its counts by the
        requested depth, which gives the same result as deduping the whole
        list: every block has the same shapes, and the first block holds
        every first-seen layer.
        """
        depth = 1
        if self.stacked_by is not None:
            depth = operator.index(params.get(self.stacked_by, self.parameters()[self.stacked_by]))
            if depth < 1:
                raise ValueError(f"{self.stacked_by} must be >= 1, got {depth}")
            params = dict(params, **{self.stacked_by: 1})
        counts = {}
        for layer in self.build(batch, **params):
            key = (layer_signature(layer), layer.weight_kind)
            first, count = counts.get(key, (layer, 0))
            counts[key] = (first, count + 1)
        return {key: (first, count * depth) for key, (first, count) in counts.items()}

    def parameters(self) -> dict:
        """Tunable builder parameters and their defaults, ``batch`` first.

        Introspected from the builder's signature so the CLI listing and the
        docs have one source of truth.  The first positional parameter is the
        batch override (reported with the registry's ``default_batch``);
        cosmetic (``prefix``) and var-keyword parameters are omitted.
        """
        params = {"batch": self.default_batch}
        signature = inspect.signature(self.builder)
        for index, parameter in enumerate(signature.parameters.values()):
            if index == 0 or parameter.name == "prefix":
                continue
            if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
                continue
            params[parameter.name] = (
                None if parameter.default is parameter.empty else parameter.default
            )
        return params

    def describe_parameters(self) -> str:
        """One-line ``name=default`` rendering of :meth:`parameters`."""
        return " ".join(
            f"{name}={'?' if value is None else value}"
            for name, value in self.parameters().items()
        )


_REGISTRY = {}


def register_workload(
    name: str,
    description: str,
    builder,
    default_batch: int = 1,
    tags: tuple = (),
    replace: bool = False,
    stacked_by: str = None,
) -> Workload:
    """Add ``builder(batch, **params) -> list[ConvLayer]`` under ``name``.

    ``stacked_by`` names the builder parameter that repeats one block of
    identical shapes (see :meth:`Workload.shape_counts`).
    """
    if not name or not name.replace("_", "").isalnum():
        raise ValueError(f"workload names are alphanumeric/underscore, got {name!r}")
    if name in _REGISTRY and not replace:
        raise ValueError(f"workload {name!r} is already registered")
    workload = Workload(
        name=name,
        description=description,
        builder=builder,
        default_batch=default_batch,
        tags=tuple(tags),
        stacked_by=stacked_by,
    )
    _REGISTRY[name] = workload
    return workload


def workload_names() -> list:
    """Sorted names of every registered workload."""
    return sorted(_REGISTRY)


def list_workloads() -> list:
    """All registered :class:`Workload` entries, sorted by name."""
    return [_REGISTRY[name] for name in workload_names()]


def lookup_workload(name: str) -> Workload:
    """The :class:`Workload` registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(workload_names())
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; registered workloads: {known}"
        ) from None


def get_workload(name: str, batch: int = None, **params) -> list:
    """Layer list of the workload registered under ``name``."""
    return lookup_workload(name).build(batch=batch, **params)


def parse_workload_spec(spec: str) -> tuple:
    """``(Workload, batch)`` of a CLI-style ``NAME[:batch]`` spec (``batch`` is
    ``None`` when the spec has none)."""
    name, _, batch_text = spec.partition(":")
    if not batch_text:
        return lookup_workload(name), None
    try:
        batch = int(batch_text)
    except ValueError:
        raise ValueError(
            f"invalid workload spec {spec!r}: batch must be an integer"
        ) from None
    return lookup_workload(name), batch


def get_workload_spec(spec: str, **params) -> list:
    """Layer list for a CLI-style ``NAME[:batch]`` spec (e.g. ``"vgg16:4"``)."""
    workload, batch = parse_workload_spec(spec)
    return workload.build(batch=batch, **params)


def resolve_layers(layers, default: str = None) -> list:
    """Normalise a layers argument: a list passes through, a name/spec is built.

    ``None`` resolves to the ``default`` workload spec (typically ``"vgg16"``,
    the paper's evaluation network).
    """
    if layers is None:
        if default is None:
            raise ValueError("no layers given and no default workload configured")
        layers = default
    if isinstance(layers, str):
        return get_workload_spec(layers)
    return list(layers)


# ---------------------------------------------------------------- built-ins


def _tiny_builder(batch: int) -> list:
    return [layer.with_batch(batch) for layer in small_test_layers()]


def _random_builder(batch: int, seed: int = 0, depth: int = 5, **kwargs) -> list:
    return [layer.with_batch(batch) for layer in random_network(seed, depth=depth, **kwargs)]


def _vgg16_full_builder(batch: int) -> list:
    return vgg16_conv_layers(batch) + vgg16_fc_layers(batch)


register_workload(
    "vgg16",
    "VGG-16 conv layers, the paper's evaluation workload (batch 3)",
    vgg16_conv_layers,
    default_batch=PAPER_BATCH_SIZE,
    tags=("cnn", "paper"),
)
register_workload(
    "vgg16_full",
    "VGG-16 conv + FC layers (FCs as R=1 matmuls)",
    _vgg16_full_builder,
    default_batch=PAPER_BATCH_SIZE,
    tags=("cnn", "matmul"),
)
register_workload(
    "alexnet",
    "AlexNet conv layers: mixed 11x11/5x5/3x3 kernels, strides up to 4",
    alexnet_conv_layers,
    tags=("cnn",),
)
register_workload(
    "resnet18",
    "ResNet-18 conv layers incl. strided 1x1 projection shortcuts",
    resnet18_conv_layers,
    tags=("cnn",),
)
register_workload(
    "mobilenet_v1",
    "MobileNet-V1: per-channel depthwise (Ci=1) + pointwise 1x1 (R=1) layers",
    mobilenet_v1_layers,
    tags=("cnn", "depthwise", "modern"),
)
register_workload(
    "googlenet",
    "GoogLeNet: inception branches mixing 1x1/3x3/5x5 kernels per module",
    googlenet_conv_layers,
    tags=("cnn", "inception", "modern"),
)
register_workload(
    "bert_base",
    "BERT-base encoder: attention + FFN matmuls via from_fc (seq 128)",
    bert_base_layers,
    tags=("transformer", "matmul", "modern"),
)
register_workload(
    "bert_large",
    "BERT-large encoder: 24 layers, hidden 1024, 16 heads (seq 128)",
    bert_large_layers,
    tags=("transformer", "matmul", "modern"),
)
register_workload(
    "llama_decode",
    "Llama-3-8B decode step: skinny GEMMs + GQA KV-cache matmuls (batch=sessions)",
    llama_decode_layers,
    default_batch=32,
    tags=("llm", "decode", "matmul", "modern"),
    stacked_by="num_layers",
)
register_workload(
    "llama_prefill",
    "Llama-3-8B prefill: prompt-ingestion matmuls with grouped-query attention",
    llama_prefill_layers,
    default_batch=1,
    tags=("llm", "prefill", "matmul", "modern"),
    stacked_by="num_layers",
)
register_workload(
    "mixtral_decode",
    "Mixtral-style MoE decode step: GQA attention + top-k routed expert FFNs",
    mixtral_decode_layers,
    default_batch=32,
    tags=("llm", "decode", "moe", "matmul", "modern"),
    stacked_by="num_layers",
)
register_workload(
    "tiny",
    "Hand-picked small layers for smoke tests and CLI dry runs",
    _tiny_builder,
    tags=("synthetic",),
)
register_workload(
    "random",
    "Reproducible random network (params: seed, depth, max_* bounds)",
    _random_builder,
    tags=("synthetic",),
)
