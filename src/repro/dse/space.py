"""Budget-constrained enumeration of candidate accelerator configurations.

A candidate is a point in the cross product of

* a PE array shape ``p x q`` (both multiples of the 4x4 PE-group grid, with
  ``q <= p <= max_aspect * q`` like the paper's implementations),
* a per-PE LReg capacity (the Psum store),
* an IGBuf capacity and a WGBuf capacity,

kept when its *effective on-chip memory* (Psums + GBufs, the quantity the
paper's bounds are stated in) fits the SRAM budget.  The grids default to
power-of-two ladders around the Table I values, so every paper
implementation's memory split is itself an enumerable candidate.

Enumeration order is canonical -- the nested cross product of the axis lists
in declaration order -- and both paths produce the identical list: the
scalar reference walks nested ``for`` loops (:func:`_enumerate_scalar`), the
vectorized path materializes the same cross product with
:func:`repro.dataflows.grid.meshgrid_ravel` and masks it against the budget
in staged array expressions (:func:`_enumerate_vectorized`).
:func:`enumerate_splits` takes the vectorized path whenever NumPy imports
(``benchmarks/bench_dse.py`` asserts the bit-identity at 10^6-candidate
scale and gates the end-to-end sweep speedup).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.config import AcceleratorConfig

#: PE array side lengths offered along each dimension (Table I uses 16-64).
DEFAULT_PE_DIMS = (8, 16, 32, 64, 128)

#: Per-PE LReg capacities in words (Table I uses 32-128; 2 bytes per word).
DEFAULT_LREG_WORDS = (16, 32, 64, 128, 256)

#: IGBuf capacities in words (Table I uses 1024 and 1536).
DEFAULT_IGBUF_WORDS = (512, 1024, 1536, 2048, 3072)

#: WGBuf capacities in words (Table I uses 256 and 320).
DEFAULT_WGBUF_WORDS = (128, 256, 320, 512, 640)

#: GReg bytes per PE used by the sizing heuristic (Implementation 5's ratio:
#: 36 KB over 2048 PEs).  GRegs are outside the effective-memory budget and
#: outside the first-order objective model, so the heuristic only has to be
#: deterministic and roughly Table-I-shaped.
GREG_BYTES_PER_PE = 18

#: Floor of the GReg heuristic (small arrays still need working broadcast room).
GREG_BYTES_MIN = 8 * 1024


@dataclass(frozen=True)
class CandidateSpace:
    """Axis lists of the config cross product plus the structural rules."""

    pe_dims: tuple = DEFAULT_PE_DIMS
    lreg_words: tuple = DEFAULT_LREG_WORDS
    igbuf_words: tuple = DEFAULT_IGBUF_WORDS
    wgbuf_words: tuple = DEFAULT_WGBUF_WORDS
    group_rows: int = 4
    group_cols: int = 4
    max_aspect: int = 4

    def __post_init__(self) -> None:
        for name in ("pe_dims", "lreg_words", "igbuf_words", "wgbuf_words"):
            values = tuple(int(value) for value in getattr(self, name))
            if not values:
                raise ValueError(f"candidate space axis {name} is empty")
            if any(value < 1 for value in values):
                raise ValueError(f"candidate space axis {name} holds values < 1")
            if list(values) != sorted(set(values)):
                raise ValueError(f"candidate space axis {name} must be sorted and unique")
            object.__setattr__(self, name, values)
        if self.group_rows < 1 or self.group_cols < 1 or self.max_aspect < 1:
            raise ValueError("group dimensions and max_aspect must be >= 1")

    def pe_pairs(self) -> list:
        """``(rows, cols)`` array shapes in canonical (rows, cols) loop order.

        Like Table I the array is at least as tall as wide (``rows >= cols``)
        and no more elongated than ``max_aspect``; both sides must be
        multiples of the PE-group grid.
        """
        pairs = []
        for rows in self.pe_dims:
            if rows % self.group_rows:
                continue
            for cols in self.pe_dims:
                if cols % self.group_cols:
                    continue
                if cols <= rows <= self.max_aspect * cols:
                    pairs.append((rows, cols))
        return pairs

    def as_dict(self) -> dict:
        return {
            "pe_dims": list(self.pe_dims),
            "lreg_words": list(self.lreg_words),
            "igbuf_words": list(self.igbuf_words),
            "wgbuf_words": list(self.wgbuf_words),
            "group_rows": self.group_rows,
            "group_cols": self.group_cols,
            "max_aspect": self.max_aspect,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CandidateSpace":
        return cls(
            pe_dims=tuple(data["pe_dims"]),
            lreg_words=tuple(data["lreg_words"]),
            igbuf_words=tuple(data["igbuf_words"]),
            wgbuf_words=tuple(data["wgbuf_words"]),
            group_rows=data.get("group_rows", 4),
            group_cols=data.get("group_cols", 4),
            max_aspect=data.get("max_aspect", 4),
        )


def config_name(rows: int, cols: int, lreg: int, igbuf: int, wgbuf: int) -> str:
    """Deterministic name of one candidate (doubles as its identity)."""
    return f"dse-{rows}x{cols}-l{lreg}-ig{igbuf}-wg{wgbuf}"


def build_config(space: CandidateSpace, rows: int, cols: int, lreg: int, igbuf: int, wgbuf: int) -> AcceleratorConfig:
    """Materialise one candidate as an :class:`AcceleratorConfig`."""
    return AcceleratorConfig(
        name=config_name(rows, cols, lreg, igbuf, wgbuf),
        pe_rows=rows,
        pe_cols=cols,
        lreg_words_per_pe=lreg,
        igbuf_words=igbuf,
        wgbuf_words=wgbuf,
        greg_bytes=max(GREG_BYTES_MIN, GREG_BYTES_PER_PE * rows * cols),
        group_rows=space.group_rows,
        group_cols=space.group_cols,
    )


def enumerate_splits(budget_words: int, space: CandidateSpace = None) -> list:
    """All ``(rows, cols, lreg, igbuf, wgbuf)`` splits under the budget.

    The list is in canonical enumeration order (PE pairs outermost, WGBuf
    innermost) and identical on both paths; the budget is applied to the
    effective on-chip words ``rows*cols*lreg + igbuf + wgbuf``.  NumPy is
    looked up here, at call time, so importing this module never loads it.
    """
    from repro.dataflows.grid import numpy_available

    if budget_words < 1:
        raise ValueError(f"budget must be at least one on-chip word, got {budget_words}")
    if space is None:
        space = CandidateSpace()
    pairs = space.pe_pairs()
    if not pairs:
        return []
    if numpy_available():
        return _enumerate_vectorized(budget_words, space, pairs)
    return _enumerate_scalar(budget_words, space, pairs)


def _enumerate_scalar(budget_words: int, space: CandidateSpace, pairs: list) -> list:
    """Reference nested-loop enumeration (always available)."""
    splits = []
    for rows, cols in pairs:
        num_pes = rows * cols
        for lreg in space.lreg_words:
            psum = num_pes * lreg
            if psum >= budget_words:
                continue
            for igbuf in space.igbuf_words:
                for wgbuf in space.wgbuf_words:
                    if psum + igbuf + wgbuf <= budget_words:
                        splits.append((rows, cols, lreg, igbuf, wgbuf))
    return splits


def _enumerate_vectorized(budget_words: int, space: CandidateSpace, pairs: list) -> list:
    """NumPy enumeration: staged meshgrids over the candidate cross product.

    Mirrors the scalar loop structure in array form: first the (PE pair,
    LReg) psum grid is masked against the budget, then only the surviving
    combos are crossed with the buffer grids and masked on the full
    footprint.  Flattening in C order keeps flat index ``i`` aligned with
    the ``i``-th candidate of the scalar nested loops, so the returned list
    is bit-identical.
    """
    from repro.dataflows.grid import meshgrid_ravel, require_numpy

    np = require_numpy()

    num_pes_by_pair = np.asarray([rows * cols for rows, cols in pairs], dtype=np.int64)
    pair_index, lreg = meshgrid_ravel(range(len(pairs)), space.lreg_words)
    psum = num_pes_by_pair[pair_index] * lreg
    stage_one = np.flatnonzero(psum < budget_words)
    if stage_one.size == 0:
        return []

    combo_index, igbuf, wgbuf = meshgrid_ravel(
        range(stage_one.size), space.igbuf_words, space.wgbuf_words
    )
    keep = np.flatnonzero(psum[stage_one][combo_index] + igbuf + wgbuf <= budget_words)
    combo = stage_one[combo_index[keep]]
    rows = np.asarray([rows for rows, _ in pairs], dtype=np.int64)[pair_index[combo]]
    cols = np.asarray([cols for _, cols in pairs], dtype=np.int64)[pair_index[combo]]
    # ``tolist`` + ``zip`` converts survivors to plain-int tuples at C speed.
    return list(
        zip(
            rows.tolist(),
            cols.tolist(),
            lreg[combo].tolist(),
            igbuf[keep].tolist(),
            wgbuf[keep].tolist(),
        )
    )


def count_splits(budget_words: int, space: CandidateSpace = None) -> int:
    """``len(enumerate_splits(...))`` without materialising the list.

    The smart explorers report the full space size in
    ``config_count_total`` while only ever enumerating windowed sub-spaces;
    at 10^8-point scale the count must not build 10^8 tuples.  Pure
    arithmetic (a bisect over the sorted WGBuf axis per (pair, LReg,
    IGBuf) combo), so there is no NumPy path to keep bit-identical.
    """
    from bisect import bisect_right

    if budget_words < 1:
        raise ValueError(f"budget must be at least one on-chip word, got {budget_words}")
    if space is None:
        space = CandidateSpace()
    total = 0
    for rows, cols in space.pe_pairs():
        num_pes = rows * cols
        for lreg in space.lreg_words:
            psum = num_pes * lreg
            if psum >= budget_words:
                continue
            remainder = budget_words - psum
            for igbuf in space.igbuf_words:
                if igbuf > remainder:
                    break
                total += bisect_right(space.wgbuf_words, remainder - igbuf)
    return total


def enumerate_configs(budget_words: int, space: CandidateSpace = None) -> list:
    """Candidate :class:`AcceleratorConfig`\\ s under ``budget_words``.

    Canonical enumeration order (that of :func:`enumerate_splits`).
    """
    if space is None:
        space = CandidateSpace()
    return [build_config(space, *split) for split in enumerate_splits(budget_words, space)]
