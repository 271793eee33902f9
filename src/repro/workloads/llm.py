"""LLM serving workloads: decode steps, KV-cache traffic, GQA, and MoE.

The BERT entries in :mod:`repro.workloads.transformer` model encoder
*prefill* only.  Serving traffic in 2026 is dominated by the other phase:
autoregressive *decode*, where each step computes one token per concurrent
session and the attention matmuls read the session's growing KV cache.  All
of it is still matmuls, so the Section III-A ``R = 1`` mapping onto
:meth:`ConvLayer.from_fc` applies and every builder below is exact with
respect to MACs (the MobileNet/BERT precedent):

* the Q/K/V/output projections and FFN matmuls multiply the ``batch``
  current tokens (one per session) by *learned weights* -- skinny
  ``batch x hidden`` GEMMs, tagged ``weight_kind="weights"``;
* the attention score (``q @ K^T``) and context (``a @ V``) matmuls read
  the session's *KV cache*.  With grouped-query attention the ``group =
  heads // kv_heads`` query heads sharing one KV head fold into the row
  dimension, so one ``ConvLayer`` per ``(session, kv_head)`` pair has the
  cached ``head_dim x context`` K (resp. ``context x head_dim`` V) tensor
  as its weight operand -- tagged ``weight_kind="kv_cache"`` so traffic
  reports can split serving-state reads from parameter reads;
* MoE FFNs route the ``batch * top_k`` token-expert assignments over the
  experts with a deterministic balanced split and emit one gate/up/down
  matmul triple per active expert, plus the learned router matmul.

Closed-form MAC/KV accounting lives alongside the builders
(:func:`decode_step_macs`, :func:`kv_cache_words_per_step`) and is pinned
against the built layers by a hypothesis property in the test suite.
"""

from __future__ import annotations

from repro.core.layer import ConvLayer


def resolve_head_dim(hidden: int, heads: int, head_dim: int = None) -> int:
    """Per-head dimension, defaulting to ``hidden // heads``."""
    if head_dim is None:
        if hidden % heads != 0:
            raise ValueError(f"hidden ({hidden}) must be divisible by heads ({heads})")
        head_dim = hidden // heads
    if head_dim < 1:
        raise ValueError(f"head_dim must be >= 1, got {head_dim}")
    return head_dim


def _check_gqa(heads: int, kv_heads: int) -> int:
    """Validate a GQA head layout and return the query-head group size."""
    if heads < 1 or kv_heads < 1:
        raise ValueError(f"heads and kv_heads must be >= 1, got {heads}, {kv_heads}")
    if heads % kv_heads != 0:
        raise ValueError(
            f"heads ({heads}) must be divisible by kv_heads ({kv_heads}) for GQA"
        )
    return heads // kv_heads


def _check_num_layers(num_layers: int) -> None:
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")


def balanced_expert_counts(assignments: int, experts: int) -> list:
    """Deterministic balanced routing: token-expert assignment counts.

    A real router's load depends on the input; for an analytic traffic model
    we want the *representative* (and reproducible) case, so the
    ``assignments = tokens * top_k`` pairs are spread round-robin: every
    expert gets ``assignments // experts`` and the first ``assignments %
    experts`` experts get one more.  The sum is exact, which keeps the MoE
    MAC count exact.
    """
    if experts < 1:
        raise ValueError(f"experts must be >= 1, got {experts}")
    if assignments < 0:
        raise ValueError(f"assignments must be >= 0, got {assignments}")
    base, extra = divmod(assignments, experts)
    return [base + (1 if index < extra else 0) for index in range(experts)]


def _ffn_layers(name: str, tokens: int, hidden: int, ffn_hidden: int) -> list:
    """Gated (SwiGLU-style) FFN: gate + up projections and the down projection."""
    return [
        ConvLayer.from_fc(f"{name}/ffn_gate", tokens, hidden, ffn_hidden),
        ConvLayer.from_fc(f"{name}/ffn_up", tokens, hidden, ffn_hidden),
        ConvLayer.from_fc(f"{name}/ffn_down", tokens, ffn_hidden, hidden),
    ]


def _moe_layers(
    name: str, tokens: int, hidden: int, ffn_hidden: int, experts: int, top_k: int
) -> list:
    """Router matmul plus per-active-expert gated FFN triples."""
    if not 1 <= top_k <= experts:
        raise ValueError(f"top_k must be in [1, experts={experts}], got {top_k}")
    layers = [ConvLayer.from_fc(f"{name}/router", tokens, hidden, experts)]
    counts = balanced_expert_counts(tokens * top_k, experts)
    for expert, rows in enumerate(counts):
        if rows:
            layers.extend(_ffn_layers(f"{name}/e{expert:02d}", rows, hidden, ffn_hidden))
    return layers


def _decoder_layer(
    name: str,
    batch: int,
    context: int,
    hidden: int,
    heads: int,
    kv_heads: int,
    head_dim: int,
    ffn_hidden: int,
    experts: int = None,
    top_k: int = 2,
) -> list:
    """One decode step through one decoder layer, as exact matmuls."""
    group = _check_gqa(heads, kv_heads)
    layers = [
        ConvLayer.from_fc(f"{name}/q_proj", batch, hidden, heads * head_dim),
        ConvLayer.from_fc(f"{name}/k_proj", batch, hidden, kv_heads * head_dim),
        ConvLayer.from_fc(f"{name}/v_proj", batch, hidden, kv_heads * head_dim),
    ]
    for session in range(batch):
        for kv_head in range(kv_heads):
            # The `group` query heads sharing this KV head stack into the row
            # dimension; the stationary operand is this session's cached K
            # (head_dim x context) resp. V (context x head_dim) slice.
            suffix = f"s{session}_kv{kv_head:02d}"
            layers.append(
                ConvLayer.from_fc(
                    f"{name}/scores_{suffix}",
                    group,
                    head_dim,
                    context,
                    weight_kind="kv_cache",
                )
            )
            layers.append(
                ConvLayer.from_fc(
                    f"{name}/context_{suffix}",
                    group,
                    context,
                    head_dim,
                    weight_kind="kv_cache",
                )
            )
    layers.append(ConvLayer.from_fc(f"{name}/o_proj", batch, heads * head_dim, hidden))
    if experts is None:
        layers.extend(_ffn_layers(name, batch, hidden, ffn_hidden))
    else:
        layers.extend(_moe_layers(name, batch, hidden, ffn_hidden, experts, top_k))
    return layers


def llama_decode_layers(
    batch: int = 32,
    context: int = 4096,
    hidden: int = 4096,
    heads: int = 32,
    kv_heads: int = 8,
    head_dim: int = None,
    ffn_hidden: int = 14336,
    num_layers: int = 32,
    prefix: str = "dec",
) -> list:
    """One autoregressive decode step of a dense Llama-style model.

    ``batch`` is the number of concurrent serving sessions (one new token
    each); ``context`` is the KV-cache length every session attends over.
    Defaults follow the Llama-3-8B shape (32 layers, hidden 4096, 32 query /
    8 KV heads, FFN 14336).
    """
    if context < 1:
        raise ValueError(f"context must be >= 1, got {context}")
    _check_num_layers(num_layers)
    head_dim = resolve_head_dim(hidden, heads, head_dim)
    layers = []
    for index in range(num_layers):
        layers.extend(
            _decoder_layer(
                f"{prefix}{index:02d}",
                batch,
                context,
                hidden,
                heads,
                kv_heads,
                head_dim,
                ffn_hidden,
            )
        )
    return layers


def mixtral_decode_layers(
    batch: int = 32,
    context: int = 4096,
    hidden: int = 4096,
    heads: int = 32,
    kv_heads: int = 8,
    head_dim: int = None,
    ffn_hidden: int = 14336,
    num_layers: int = 32,
    experts: int = 8,
    top_k: int = 2,
    prefix: str = "moe",
) -> list:
    """One decode step of a Mixtral-style mixture-of-experts model.

    Identical attention path to :func:`llama_decode_layers`; the dense FFN is
    replaced by a learned router matmul plus ``top_k``-of-``experts`` routed
    gated FFNs under deterministic balanced routing
    (:func:`balanced_expert_counts`).
    """
    if context < 1:
        raise ValueError(f"context must be >= 1, got {context}")
    _check_num_layers(num_layers)
    head_dim = resolve_head_dim(hidden, heads, head_dim)
    layers = []
    for index in range(num_layers):
        layers.extend(
            _decoder_layer(
                f"{prefix}{index:02d}",
                batch,
                context,
                hidden,
                heads,
                kv_heads,
                head_dim,
                ffn_hidden,
                experts=experts,
                top_k=top_k,
            )
        )
    return layers


def llama_prefill_layers(
    batch: int = 1,
    prompt: int = 512,
    hidden: int = 4096,
    heads: int = 32,
    kv_heads: int = 8,
    head_dim: int = None,
    ffn_hidden: int = 14336,
    num_layers: int = 32,
    experts: int = None,
    top_k: int = 2,
    prefix: str = "pre",
) -> list:
    """Prefill (prompt ingestion) of a Llama-style model with GQA.

    Like the BERT encoder but with grouped-query attention: per
    ``(sequence, kv_head)`` pair the ``group * prompt`` query rows multiply
    the shared ``head_dim x prompt`` K^T (then ``prompt x head_dim`` V),
    tagged ``weight_kind="activation"`` -- during prefill K/V are being
    produced, not served from cache.  Attention is modeled dense (the causal
    mask halves the useful MACs but not the shape), matching the BERT
    precedent.  Setting ``experts`` swaps the dense FFN for the MoE router +
    routed expert triples (the Mixtral prefill path), with the
    ``batch * prompt * top_k`` assignments balanced across experts.
    """
    if prompt < 1:
        raise ValueError(f"prompt must be >= 1, got {prompt}")
    _check_num_layers(num_layers)
    head_dim = resolve_head_dim(hidden, heads, head_dim)
    group = _check_gqa(heads, kv_heads)
    tokens = batch * prompt
    layers = []
    for index in range(num_layers):
        name = f"{prefix}{index:02d}"
        layers.append(ConvLayer.from_fc(f"{name}/q_proj", tokens, hidden, heads * head_dim))
        layers.append(
            ConvLayer.from_fc(f"{name}/k_proj", tokens, hidden, kv_heads * head_dim)
        )
        layers.append(
            ConvLayer.from_fc(f"{name}/v_proj", tokens, hidden, kv_heads * head_dim)
        )
        for sequence in range(batch):
            for kv_head in range(kv_heads):
                suffix = f"s{sequence}_kv{kv_head:02d}"
                layers.append(
                    ConvLayer.from_fc(
                        f"{name}/scores_{suffix}",
                        group * prompt,
                        head_dim,
                        prompt,
                        weight_kind="activation",
                    )
                )
                layers.append(
                    ConvLayer.from_fc(
                        f"{name}/context_{suffix}",
                        group * prompt,
                        prompt,
                        head_dim,
                        weight_kind="activation",
                    )
                )
        layers.append(ConvLayer.from_fc(f"{name}/o_proj", tokens, heads * head_dim, hidden))
        if experts is None:
            layers.extend(_ffn_layers(name, tokens, hidden, ffn_hidden))
        else:
            layers.extend(_moe_layers(name, tokens, hidden, ffn_hidden, experts, top_k))
    return layers


# ---------------------------------------------------------- closed forms


def decode_attention_macs(
    batch: int, context: int, heads: int, head_dim: int
) -> int:
    """Attention MACs of one decode step through one decoder layer.

    The score and context matmuls each perform ``context * head_dim`` MACs
    per query head per session: ``2 * batch * heads * head_dim * context``.
    Independent of ``kv_heads`` -- GQA shares cache, not arithmetic.
    """
    return 2 * batch * heads * head_dim * context


def decode_step_macs(
    batch: int,
    context: int,
    hidden: int = 4096,
    heads: int = 32,
    kv_heads: int = 8,
    head_dim: int = None,
    ffn_hidden: int = 14336,
    num_layers: int = 32,
    experts: int = None,
    top_k: int = 2,
) -> int:
    """Closed-form MAC count of one decode step (all decoder layers).

    Per layer: Q/K/V/O projections ``batch * hidden * (2*heads +
    2*kv_heads) * head_dim``, attention
    :func:`decode_attention_macs`, and a gated FFN ``3 * batch * hidden *
    ffn_hidden`` -- or, with ``experts`` set, the router ``batch * hidden *
    experts`` plus ``3 * batch * top_k * hidden * ffn_hidden`` across the
    routed experts (balanced routing preserves the total exactly).  The
    builders are pinned against this by a hypothesis property.
    """
    head_dim = resolve_head_dim(hidden, heads, head_dim)
    projections = batch * hidden * (2 * heads + 2 * kv_heads) * head_dim
    attention = decode_attention_macs(batch, context, heads, head_dim)
    if experts is None:
        ffn = 3 * batch * hidden * ffn_hidden
    else:
        ffn = batch * hidden * experts + 3 * batch * top_k * hidden * ffn_hidden
    return num_layers * (projections + attention + ffn)


def kv_cache_words_per_step(
    batch: int,
    context: int,
    hidden: int = 4096,
    heads: int = 32,
    kv_heads: int = 8,
    head_dim: int = None,
    num_layers: int = 32,
) -> int:
    """KV-cache words a decode step must read: ``2 * B * kv_heads * d * L * ctx``.

    Equals the sum of :attr:`~repro.core.layer.ConvLayer.kv_cache_words`
    over the layers built by :func:`llama_decode_layers` -- each
    ``(session, kv_head)`` pair contributes one K and one V slice of
    ``head_dim * context`` words per decoder layer.
    """
    head_dim = resolve_head_dim(hidden, heads, head_dim)
    return 2 * batch * kv_heads * head_dim * context * num_layers
