"""Trace record formats."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TraceRecord:
    """One LLC-missing memory access, as the Pin-based tracer would log it."""

    socket: int
    thread: int
    instruction_index: int
    page: int
    is_write: bool


@dataclass
class PhaseTrace:
    """Aggregated access counts of one phase.

    ``counts[s, p]`` is the number of LLC-missing accesses socket ``s``
    issued to page ``p`` during the phase. ``instructions_per_thread`` is
    the phase length in dynamic instructions (one billion in the paper's
    setup).
    """

    phase: int
    counts: np.ndarray
    instructions_per_thread: int
    #: Step C's memo of this phase's access classifications, one entry
    #: per distinct placement (see
    #: :meth:`repro.sim.timing.PhaseTimingModel.classify`).
    classifications: OrderedDict = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.counts.ndim != 2:
            raise ValueError("counts must be (n_sockets, n_pages)")
        if self.instructions_per_thread <= 0:
            raise ValueError("phase length must be positive")

    @property
    def n_sockets(self) -> int:
        return int(self.counts.shape[0])

    @property
    def n_pages(self) -> int:
        return int(self.counts.shape[1])

    @property
    def total_accesses(self) -> int:
        return int(self.counts.sum())

    def accesses_per_socket(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def page_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def touched_mask(self) -> np.ndarray:
        """Boolean (n_sockets, n_pages): who touched what this phase."""
        return self.counts > 0
