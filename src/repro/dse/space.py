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
in declaration order -- and :func:`enumerate_splits` walks it in nested
``for`` loops, skipping a (PE pair, LReg) combo whose Psums alone use up
the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    innermost); the budget is applied to the effective on-chip words
    ``rows*cols*lreg + igbuf + wgbuf``.
    """
    if budget_words < 1:
        raise ValueError(f"budget must be at least one on-chip word, got {budget_words}")
    if space is None:
        space = CandidateSpace()
    splits = []
    for rows, cols in space.pe_pairs():
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


def count_splits(budget_words: int, space: CandidateSpace = None) -> int:
    """``len(enumerate_splits(...))`` without materialising the list.

    The smart explorers report the full space size in
    ``config_count_total`` while only ever enumerating windowed sub-spaces;
    at 10^8-point scale the count must not build 10^8 tuples.  Pure
    arithmetic: a bisect over the sorted WGBuf axis per (pair, LReg,
    IGBuf) combo.
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
