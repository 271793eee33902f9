"""Counting memory models for the accelerator's storage hierarchy.

The functional simulator (:mod:`repro.arch.functional`) counts every access
to the DRAM and the GBufs through :class:`CountingMemory` instances.  The
analytic model (:mod:`repro.arch.accelerator`) computes the same counts in
closed form per block shape, and the functional simulator cross-checks
them on small layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.traffic import BYTES_PER_WORD


class CapacityError(RuntimeError):
    """Raised when a memory is asked to hold more words than it can."""


@dataclass
class CountingMemory:
    """A memory level that counts word-granular reads and writes.

    ``capacity_words`` of ``None`` means unbounded (the DRAM).  ``occupancy``
    tracks the currently resident words when the user calls
    :meth:`allocate` / :meth:`release`; the simulators use it for the
    utilisation statistics of Fig. 20.
    """

    name: str
    capacity_words: int = None
    reads: int = 0
    writes: int = 0
    occupancy: int = 0
    peak_occupancy: int = 0
    _occupancy_samples: list = field(default_factory=list, repr=False)

    def read(self, words: int = 1) -> None:
        """Count ``words`` read from this memory."""
        if words < 0:
            raise ValueError("cannot read a negative number of words")
        self.reads += words

    def write(self, words: int = 1) -> None:
        """Count ``words`` written to this memory."""
        if words < 0:
            raise ValueError("cannot write a negative number of words")
        self.writes += words

    def allocate(self, words: int) -> None:
        """Mark ``words`` as resident; raises :class:`CapacityError` on overflow."""
        if words < 0:
            raise ValueError("cannot allocate a negative number of words")
        new_occupancy = self.occupancy + words
        if self.capacity_words is not None and new_occupancy > self.capacity_words:
            raise CapacityError(
                f"{self.name}: requested {new_occupancy} words but capacity is "
                f"{self.capacity_words}"
            )
        self.occupancy = new_occupancy
        self.peak_occupancy = max(self.peak_occupancy, new_occupancy)

    def release(self, words: int) -> None:
        """Release ``words`` previously allocated."""
        if words < 0 or words > self.occupancy:
            raise ValueError("release does not match current occupancy")
        self.occupancy -= words

    def sample_occupancy(self) -> None:
        """Record the current occupancy for average-utilisation statistics."""
        self._occupancy_samples.append(self.occupancy)

    # -------------------------------------------------------------- statistics

    @property
    def accesses(self) -> int:
        """Total reads + writes."""
        return self.reads + self.writes

    @property
    def access_bytes(self) -> int:
        """Total traffic through this memory in bytes."""
        return self.accesses * BYTES_PER_WORD

    def utilization(self) -> float:
        """Average occupancy / capacity over the recorded samples (0 if unbounded)."""
        if self.capacity_words is None or self.capacity_words == 0:
            return 0.0
        if self._occupancy_samples:
            average = sum(self._occupancy_samples) / len(self._occupancy_samples)
        else:
            average = self.peak_occupancy
        return min(1.0, average / self.capacity_words)

    def reset(self) -> None:
        """Zero all counters (capacity is retained)."""
        self.reads = 0
        self.writes = 0
        self.occupancy = 0
        self.peak_occupancy = 0
        self._occupancy_samples.clear()


@dataclass
class MemoryHierarchy:
    """The accelerator's full storage hierarchy as counting memories."""

    dram: CountingMemory
    igbuf: CountingMemory
    wgbuf: CountingMemory
    greg: CountingMemory
    lreg: CountingMemory

    @classmethod
    def for_config(cls, config) -> "MemoryHierarchy":
        """Build the hierarchy for an :class:`~repro.arch.config.AcceleratorConfig`."""
        return cls(
            dram=CountingMemory("DRAM", capacity_words=None),
            igbuf=CountingMemory("IGBuf", capacity_words=config.igbuf_words),
            wgbuf=CountingMemory("WGBuf", capacity_words=config.wgbuf_words),
            greg=CountingMemory("GRegs", capacity_words=config.greg_bytes // BYTES_PER_WORD),
            lreg=CountingMemory("LRegs", capacity_words=config.psum_words),
        )

    def all_levels(self) -> list:
        """Every level, DRAM first."""
        return [self.dram, self.igbuf, self.wgbuf, self.greg, self.lreg]

    def reset(self) -> None:
        for level in self.all_levels():
            level.reset()
