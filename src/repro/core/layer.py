"""Convolutional layer description.

The paper (Fig. 1 / Fig. 2) characterises a convolutional layer by the batch
size ``B``, the input channel count ``Ci``, the input spatial size
``Hi x Wi``, the output channel count ``Co``, the kernel spatial size
``Hk x Wk``, the stride ``D`` and (implicitly) zero padding.  Everything in
this repository consumes :class:`ConvLayer` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

WEIGHT_KINDS = ("weights", "kv_cache", "activation")
"""What the layer's weight tensor physically is.

``weights``
    Learned parameters (the default; every CNN/FC layer).
``kv_cache``
    A per-session KV-cache slice: in decode-step attention matmuls the
    "weight" operand is the cached K or V tensor of one session, so its
    DRAM reads are serving-state traffic, not model-parameter traffic.
``activation``
    A transient activation acting as the stationary operand (e.g. the
    score matrix of prefill attention).

The kind never changes the traffic a tiling incurs -- the tiling model is
shape-only -- it only classifies *whose* words the ``weight_reads`` column
of a :class:`~repro.core.traffic.TrafficBreakdown` counts, so analysis can
split learned-weight reads from KV-cache reads (see
:func:`repro.core.traffic.classify_weight_reads`).
"""


@dataclass(frozen=True)
class ConvLayer:
    """Shape description of one convolutional layer.

    Parameters mirror the paper's notation.  ``stride`` is the paper's ``D``
    and ``padding`` is the symmetric zero padding applied to both spatial
    input dimensions (VGG uses padding 1 with 3x3 kernels).

    A fully-connected layer is a convolution with ``Hk = Hi``, ``Wk = Wi``
    and unit output spatial size; use :meth:`from_fc`.

    ``weight_kind`` tags what the weight tensor is (learned weights by
    default, or a KV-cache slice / activation for LLM attention matmuls).
    It is metadata for traffic attribution only: it is excluded from the
    engine's layer signature, so it never affects cache keys or search
    results.  Shape censuses (``Workload.shape_counts``) keep kinds apart,
    so attributed traffic stays exact.
    """

    name: str
    batch: int
    in_channels: int
    in_height: int
    in_width: int
    out_channels: int
    kernel_height: int
    kernel_width: int
    stride: int = 1
    padding: int = 0
    weight_kind: str = "weights"

    def __post_init__(self) -> None:
        positive_fields = {
            "batch": self.batch,
            "in_channels": self.in_channels,
            "in_height": self.in_height,
            "in_width": self.in_width,
            "out_channels": self.out_channels,
            "kernel_height": self.kernel_height,
            "kernel_width": self.kernel_width,
            "stride": self.stride,
        }
        for field_name, value in positive_fields.items():
            if value < 1:
                raise ValueError(f"{field_name} must be >= 1, got {value}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        if self.kernel_height > self.in_height + 2 * self.padding:
            raise ValueError("kernel taller than padded input")
        if self.kernel_width > self.in_width + 2 * self.padding:
            raise ValueError("kernel wider than padded input")
        if self.weight_kind not in WEIGHT_KINDS:
            raise ValueError(
                f"weight_kind must be one of {WEIGHT_KINDS}, got {self.weight_kind!r}"
            )

    # ------------------------------------------------------------------ shapes

    @property
    def out_height(self) -> int:
        """``Ho`` -- number of output rows."""
        return (self.in_height + 2 * self.padding - self.kernel_height) // self.stride + 1

    @property
    def out_width(self) -> int:
        """``Wo`` -- number of output columns."""
        return (self.in_width + 2 * self.padding - self.kernel_width) // self.stride + 1

    @property
    def output_positions(self) -> int:
        """Spatial output positions per channel per image (``Ho * Wo``)."""
        return self.out_height * self.out_width

    # ----------------------------------------------------------------- volumes

    @property
    def num_inputs(self) -> int:
        """Total number of input activations (words) in the layer."""
        return self.batch * self.in_channels * self.in_height * self.in_width

    @property
    def num_weights(self) -> int:
        """Total number of weights (words) in the layer."""
        return self.out_channels * self.in_channels * self.kernel_height * self.kernel_width

    @property
    def num_outputs(self) -> int:
        """Total number of output activations (words) in the layer."""
        return self.batch * self.out_channels * self.output_positions

    @property
    def kv_cache_words(self) -> int:
        """Words of KV-cache state this layer's weight tensor holds.

        Zero unless ``weight_kind == "kv_cache"``; a decode-attention matmul
        built by :func:`~repro.workloads.llm.llama_decode_layers` stores one
        session's cached K (or V) tensor as its weight operand, so the whole
        weight volume is serving state.
        """
        return self.num_weights if self.weight_kind == "kv_cache" else 0

    @property
    def macs(self) -> int:
        """Number of multiply-accumulate operations (Lemma 1 divided by two)."""
        return (
            self.num_outputs
            * self.in_channels
            * self.kernel_height
            * self.kernel_width
        )

    @property
    def dag_internal_nodes(self) -> int:
        """Number of internal + output nodes of the layer DAG (Lemma 1)."""
        return 2 * self.macs

    # ------------------------------------------------------------------- reuse

    @property
    def window_reuse(self) -> float:
        """Sliding-window reuse factor ``R = Wk*Hk / D^2`` (Eq. (2)).

        The reuse cannot exceed the number of sliding windows an input can
        actually fall into, which for a layer with very small output maps is
        bounded by ``Ho * Wo``; Eq. (2) already captures the common case and
        matches the paper, so no extra clamping is applied beyond ``>= 1``.
        """
        return max(1.0, (self.kernel_height * self.kernel_width) / float(self.stride ** 2))

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_fc(
        cls,
        name: str,
        batch: int,
        in_features: int,
        out_features: int,
        weight_kind: str = "weights",
    ) -> "ConvLayer":
        """Describe a fully-connected layer as a 1x1-output convolution.

        The unfolded-matrix view of Section III-A makes an FC layer a plain
        matrix multiplication (``R = 1``).  ``weight_kind`` tags what the
        ``in_features x out_features`` weight operand is -- LLM decode
        attention passes ``"kv_cache"`` because that operand is the cached
        K/V tensor of a serving session rather than learned parameters.
        """
        return cls(
            name=name,
            batch=batch,
            in_channels=in_features,
            in_height=1,
            in_width=1,
            out_channels=out_features,
            kernel_height=1,
            kernel_width=1,
            stride=1,
            padding=0,
            weight_kind=weight_kind,
        )

    def with_batch(self, batch: int) -> "ConvLayer":
        """Return a copy of this layer with a different batch size."""
        return replace(self, batch=batch)

    # ------------------------------------------------------------------- misc

    def input_patch_size(self, out_rows: int, out_cols: int) -> int:
        """Input words needed (per image, per input channel) to produce an
        ``out_rows x out_cols`` output patch (the ``x' * y'`` of Fig. 6)."""
        rows = (out_rows - 1) * self.stride + self.kernel_height
        cols = (out_cols - 1) * self.stride + self.kernel_width
        return rows * cols

    def arithmetic_intensity(self) -> float:
        """MACs per word touched when every tensor is read/written exactly once."""
        total_words = self.num_inputs + self.num_weights + self.num_outputs
        return self.macs / total_words

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"{self.name}: B={self.batch} Ci={self.in_channels} "
            f"{self.in_height}x{self.in_width} -> Co={self.out_channels} "
            f"{self.out_height}x{self.out_width}, kernel "
            f"{self.kernel_height}x{self.kernel_width}, stride {self.stride}, "
            f"pad {self.padding}, {self.macs / 1e6:.1f} MMACs"
        )


def total_macs(layers: list) -> int:
    """Sum of MACs over a list of :class:`ConvLayer`."""
    return sum(layer.macs for layer in layers)


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division used throughout the tiled traffic models."""
    if b <= 0:
        raise ValueError("divisor must be positive")
    return -(-a // b)


def words_to_kib(words: int, bytes_per_word: int = 2) -> float:
    """Convert a word count to KiB (the paper uses 16-bit words)."""
    return words * bytes_per_word / 1024.0


def kib_to_words(kib: float, bytes_per_word: int = 2) -> int:
    """Convert a KiB capacity to a word count (16-bit words by default).

    Rounds down, so a capacity under one word gives 0; an infinite or NaN
    capacity raises ``ValueError``.
    """
    words = kib * 1024.0 / bytes_per_word
    if not math.isfinite(words):
        raise ValueError(f"capacity must be a finite number of KiB, got {kib!r}")
    return int(math.floor(words))
