"""Seeded request-trace generator and traffic-mix aggregation.

Connects the paper's per-layer traffic bounds to datacenter-scale serving
questions: instead of asking "what is the optimal dataflow for one layer?",
ask "what is the aggregate optimal-dataflow cost of *this request mix*?".

A :class:`TrafficMixSpec` describes a serving fleet: a catalog of
:class:`ServedModel` entries with Zipf(alpha) popularity (rank order =
catalog order), Poisson request arrivals, and log-uniform-ish prompt/decode
lengths.  :func:`generate_trace` expands it into a deterministic list of
:class:`Request` records -- everything is driven by ``random.Random(seed)``
with integer-only length sampling, so a (spec, seed) pair reproduces the
same trace on every platform and backend.

:func:`aggregate_trace` folds the trace into a small list of
:class:`PhaseLoad` units ("``count`` executions of model M's decode step at
context bucket C with batch B"): decode contexts grow by one token per step,
so steps are bucketed to powers of two and grouped into serving batches of
the model's configured batch size; prefills are bucketed by prompt length
and run per-request.  :func:`weighted_unique_layers` then counts each
load's layers by shape (:meth:`~repro.workloads.registry.Workload.shape_counts`,
one decoder block per load) and merges the counts, yielding the (exemplar
layer, weight) pairs a :class:`~repro.engine.SearchEngine` can answer with a
handful of searches -- a hundred unique shapes stand in for millions of
per-step layer instances, and only a few thousand layers are ever built.

This module is deliberately engine-free: the searching lives in
:mod:`repro.analysis.traffic_report` (the ``traffic`` experiment) and the
mix-weighted DSE objective in :mod:`repro.dse`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workloads.registry import lookup_workload, parse_workload_spec

PREFILL_FOR = {
    "llama_decode": ("llama_prefill", {}),
    "mixtral_decode": ("llama_prefill", {"experts": 8, "top_k": 2}),
}
"""Prefill counterpart (workload name, extra builder params) per decode family.

Mixtral prefill reuses the GQA prefill builder with its MoE FFN parameters,
which keeps prompt-phase MACs exact for routed experts too.
"""


@dataclass(frozen=True)
class ServedModel:
    """One model in the serving catalog.

    ``spec`` is a ``NAME[:batch]`` workload spec whose workload must be a
    decode family (tagged ``"decode"``); the batch is the *serving batch* --
    how many concurrent sessions' decode steps are batched into one step of
    skinny GEMMs.  ``params`` are extra builder overrides as a sorted tuple
    of ``(key, value)`` pairs (hashable, deterministic).
    """

    spec: str
    params: tuple = ()

    def __post_init__(self) -> None:
        name, batch = self.split_spec()
        overrides = dict(self.params)
        if "batch" in overrides or "context" in overrides:
            raise ValueError("batch/context are set by the mix, not model params")
        entry = lookup_workload(name)
        if "decode" not in entry.tags:
            raise ValueError(
                f"traffic mixes serve decode-family workloads; {name!r} has tags "
                f"{entry.tags}"
            )
        if name not in PREFILL_FOR:
            raise ValueError(f"no prefill counterpart registered for {name!r}")
        if batch < 1:
            raise ValueError(f"serving batch must be >= 1, got {batch}")

    def split_spec(self) -> tuple:
        """``(workload_name, serving_batch)`` of the ``NAME[:batch]`` spec."""
        workload, batch = parse_workload_spec(self.spec)
        return workload.name, workload.default_batch if batch is None else batch

    @property
    def name(self) -> str:
        return self.split_spec()[0]

    @property
    def batch(self) -> int:
        return self.split_spec()[1]

    def phase_workload(self, phase: str, tokens: int, batch: int = None) -> tuple:
        """``(workload, batch, builder params)`` of one ``"decode"`` step at
        context ``tokens`` for ``batch`` sessions (default: the serving
        batch), or of one ``"prefill"`` of a ``tokens``-token prompt, which
        runs per request (batch 1)."""
        if phase == "decode":
            batch = self.batch if batch is None else batch
            return lookup_workload(self.name), batch, dict(self.params, context=tokens)
        prefill_name, extra = PREFILL_FOR[self.name]
        workload = lookup_workload(prefill_name)
        allowed = set(workload.parameters())
        params = dict(extra)
        params.update((key, value) for key, value in self.params if key in allowed)
        return workload, 1, dict(params, prompt=tokens)

    def decode_layers(self, context: int, batch: int = None) -> list:
        """Decode-step layers at ``context`` for ``batch`` concurrent sessions."""
        workload, batch, params = self.phase_workload("decode", context, batch)
        return workload.build(batch, **params)

    def prefill_layers(self, prompt: int) -> list:
        """Prompt-ingestion layers for one request of ``prompt`` tokens."""
        workload, batch, params = self.phase_workload("prefill", prompt)
        return workload.build(batch, **params)


def served_model(spec: str, **params) -> ServedModel:
    """Build a :class:`ServedModel` from a spec string and builder overrides."""
    return ServedModel(spec=spec, params=tuple(sorted(params.items())))


@dataclass(frozen=True)
class Request:
    """One serving request of the trace."""

    index: int
    arrival_s: float
    model: int
    """Index into the mix's model catalog."""
    prompt_tokens: int
    decode_tokens: int


@dataclass(frozen=True)
class TrafficMixSpec:
    """A reproducible serving-traffic mix."""

    models: tuple
    """Catalog of :class:`ServedModel`, most popular first (Zipf rank order)."""
    requests: int = 32
    seed: int = 0
    arrival_rate_per_s: float = 8.0
    zipf_alpha: float = 1.0
    prompt_exponents: tuple = (7, 11)
    """Prompt lengths are drawn log-uniformly: bucket exponent ``b`` uniform in
    this inclusive range, then length uniform in ``(2^(b-1), 2^b]``."""
    decode_exponents: tuple = (5, 9)
    """Same scheme for the number of generated tokens per request."""

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("a traffic mix needs at least one served model")
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if not self.arrival_rate_per_s > 0:
            raise ValueError("arrival rate must be positive")
        for label, (low, high) in (
            ("prompt_exponents", self.prompt_exponents),
            ("decode_exponents", self.decode_exponents),
        ):
            if not 1 <= low <= high:
                raise ValueError(f"{label} must satisfy 1 <= low <= high")


def zipf_weights(count: int, alpha: float = 1.0) -> list:
    """Unnormalised Zipf popularity weights ``1 / rank^alpha`` for each rank."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if alpha == 1.0:  # the default stays clear of pow() for exact determinism
        return [1.0 / rank for rank in range(1, count + 1)]
    return [rank ** -alpha for rank in range(1, count + 1)]


def _pick_weighted(rng: random.Random, cumulative: list) -> int:
    draw = rng.random() * cumulative[-1]
    for index, edge in enumerate(cumulative):
        if draw < edge:
            return index
    return len(cumulative) - 1


def _log_uniform_tokens(rng: random.Random, exponents: tuple) -> int:
    """Integer-only log-uniform length: pick a power-of-two bucket, then a
    uniform length inside it (``(2^(b-1), 2^b]``)."""
    bucket = rng.randint(exponents[0], exponents[1])
    return rng.randint(2 ** (bucket - 1) + 1, 2 ** bucket)


def generate_trace(spec: TrafficMixSpec) -> list:
    """Expand a mix spec into its deterministic request trace.

    Draw order per request is fixed (inter-arrival, model, prompt, decode), so
    the trace is a pure function of the spec.
    """
    rng = random.Random(spec.seed)
    weights = zipf_weights(len(spec.models), spec.zipf_alpha)
    cumulative = []
    edge = 0.0
    for weight in weights:
        edge += weight
        cumulative.append(edge)
    clock = 0.0
    trace = []
    for index in range(spec.requests):
        clock += rng.expovariate(spec.arrival_rate_per_s)
        model = _pick_weighted(rng, cumulative)
        prompt = _log_uniform_tokens(rng, spec.prompt_exponents)
        decode = _log_uniform_tokens(rng, spec.decode_exponents)
        trace.append(
            Request(
                index=index,
                arrival_s=clock,
                model=model,
                prompt_tokens=prompt,
                decode_tokens=decode,
            )
        )
    return trace


def bucket_tokens(tokens: int) -> int:
    """Power-of-two bucket a token count falls in (``2^ceil(log2(n))``)."""
    if tokens < 1:
        raise ValueError(f"tokens must be >= 1, got {tokens}")
    bucket = 1
    while bucket < tokens:
        bucket *= 2
    return bucket


def _decode_steps_by_bucket(request: Request) -> dict:
    """Decode steps of one request, split by the context bucket they run in.

    Step ``j`` (1-based) of a request attends over ``prompt + j`` cached
    tokens; counting the overlap of ``(prompt, prompt + decode]`` with each
    power-of-two interval ``(2^(e-1), 2^e]`` needs no per-step loop.
    """
    start, end = request.prompt_tokens, request.prompt_tokens + request.decode_tokens
    steps = {}
    bucket = bucket_tokens(start + 1)
    while bucket // 2 < end:
        low = bucket // 2
        count = min(end, bucket) - max(start, low)
        if count > 0:
            steps[bucket] = count
        bucket *= 2
    return steps


@dataclass(frozen=True)
class PhaseLoad:
    """``count`` executions of one (model, phase, bucket, batch) work unit."""

    model: str
    """The served model's spec string (presentation only)."""
    phase: str
    """``"decode"`` or ``"prefill"``."""
    tokens: int
    """Context bucket (decode) or prompt bucket (prefill)."""
    batch: int
    """Concurrent sessions batched into the unit (always 1 for prefill)."""
    count: int
    """How many times the unit executes over the trace."""


def aggregate_trace(spec: TrafficMixSpec, trace: list) -> list:
    """Fold a trace into deterministic :class:`PhaseLoad` units.

    Decode steps are bucketed by context and packed into serving batches of
    the model's batch size (``n // B`` full batches plus one remainder
    batch); prefills are bucketed by prompt length and run at batch 1.  The
    result is sorted, so downstream aggregation order is reproducible.
    """
    decode_steps = {}
    prefill_requests = {}
    for request in trace:
        for bucket, count in _decode_steps_by_bucket(request).items():
            key = (request.model, bucket)
            decode_steps[key] = decode_steps.get(key, 0) + count
        key = (request.model, bucket_tokens(request.prompt_tokens))
        prefill_requests[key] = prefill_requests.get(key, 0) + 1

    loads = []
    for (model_index, bucket), steps in sorted(decode_steps.items()):
        model = spec.models[model_index]
        full, remainder = divmod(steps, model.batch)
        if full:
            loads.append(
                PhaseLoad(model.spec, "decode", bucket, model.batch, full)
            )
        if remainder:
            loads.append(PhaseLoad(model.spec, "decode", bucket, remainder, 1))
    for (model_index, bucket), count in sorted(prefill_requests.items()):
        model = spec.models[model_index]
        loads.append(PhaseLoad(model.spec, "prefill", bucket, 1, count))
    return loads


def _load_model(spec: TrafficMixSpec, load: PhaseLoad) -> ServedModel:
    for model in spec.models:
        if model.spec == load.model:
            return model
    raise ValueError(f"load references unknown model {load.model!r}")


def load_layers(spec: TrafficMixSpec, load: PhaseLoad) -> list:
    """Materialise the layer list of one :class:`PhaseLoad` unit."""
    model = _load_model(spec, load)
    if load.phase == "decode":
        return model.decode_layers(load.tokens, batch=load.batch)
    return model.prefill_layers(load.tokens)


def sorted_shapes(counts: dict) -> tuple:
    """``(exemplar_layers, weights)`` of a shape census, ordered by its
    ``(layer_signature, weight_kind)`` keys so that weighted sums downstream
    are order-deterministic."""
    keys = sorted(counts)
    return [counts[key][0] for key in keys], [counts[key][1] for key in keys]


def weighted_unique_layers(spec: TrafficMixSpec, loads: list) -> tuple:
    """Fold all loads' layers by shape: ``(exemplar_layers, weights)``.

    ``weights[i]`` counts how many times shape ``i`` executes across the
    whole trace.  Each load's layers are counted by
    :meth:`~repro.workloads.registry.Workload.shape_counts` (one decoder
    block per load, never the whole stack), keyed on ``(layer_signature,
    weight_kind)``: layers of one shape but different kinds -- a KV-cache
    matmul and a projection of equal dimensions -- stay apart, because
    their weight reads are booked to different classes.  Exemplars are the
    first-seen layer of each key, in load order; see :func:`sorted_shapes`
    for the order.
    """
    merged = {}
    for load in loads:
        model = _load_model(spec, load)
        workload, batch, params = model.phase_workload(load.phase, load.tokens, load.batch)
        for key, (layer, count) in workload.shape_counts(batch, **params).items():
            first, weight = merged.get(key, (layer, 0))
            merged[key] = (first, weight + count * load.count)
    return sorted_shapes(merged)


def trace_summary(spec: TrafficMixSpec, trace: list) -> dict:
    """Human/JSON-friendly summary of a generated trace."""
    per_model = [0] * len(spec.models)
    prompt_tokens = decode_tokens = 0
    for request in trace:
        per_model[request.model] += 1
        prompt_tokens += request.prompt_tokens
        decode_tokens += request.decode_tokens
    return {
        "requests": len(trace),
        "span_s": trace[-1].arrival_s if trace else 0.0,
        "requests_per_model": {
            model.spec: count for model, count in zip(spec.models, per_model)
        },
        "prompt_tokens": prompt_tokens,
        "decode_tokens": decode_tokens,
    }
