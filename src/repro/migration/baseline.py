"""The idealized baseline migration policy (Section IV-C).

To isolate the contribution of the pool as an architectural block from
the specific migration policy, the paper favors the baseline with
*zero-cost, per-socket knowledge of all accesses to every 4 KB page* each
phase. Decisions are free; only the migration itself (shootdowns, copies,
stalls) is charged.

With full knowledge the obvious policy is: home every sufficiently hot
page at the socket that accesses it most, provided the move is clearly
profitable. A hysteresis margin prevents oscillation on evenly shared
pages -- exactly the vagabond pages the baseline architecturally has no
good answer for.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.config import MigrationConfig
from repro.migration.records import MigrationBatch, RegionMove
from repro.obs import OBS
from repro.placement.pagemap import PageMap


class BaselinePolicy:
    """Per-page, perfect-knowledge migration toward the dominant accessor."""

    def __init__(self, config: MigrationConfig,
                 min_accesses_per_page: int = 64,
                 hysteresis: float = 1.25,
                 rng: Optional[np.random.Generator] = None):
        if min_accesses_per_page < 1:
            raise ValueError("min_accesses_per_page must be >= 1")
        if hysteresis < 1.0:
            raise ValueError(f"hysteresis must be >= 1, got {hysteresis}")
        self.config = config
        self.min_accesses = min_accesses_per_page
        self.hysteresis = hysteresis
        self.rng = rng or np.random.default_rng(0)
        self.phases_run = 0

    def decide(self, page_counts: np.ndarray,
               page_map: PageMap) -> MigrationBatch:
        """Choose and apply this phase's migrations.

        ``page_counts`` has shape ``(n_sockets, n_pages)`` and holds the
        oracle per-socket access counts of the ending phase.
        """
        self.phases_run += 1
        batch = MigrationBatch(phase=self.phases_run)
        n_sockets, n_pages = page_counts.shape
        if n_pages != page_map.n_pages:
            raise ValueError(
                f"count matrix covers {n_pages} pages, map has "
                f"{page_map.n_pages}"
            )

        totals = page_counts.sum(axis=0)
        best_count = page_counts.max(axis=0)
        current = page_map.locations.astype(np.int64)
        # Count of accesses served locally if the page stays put. Pages on
        # the pool never occur in the baseline (no pool), but guard anyway.
        on_socket = current >= 0
        current_count = np.zeros(n_pages, dtype=page_counts.dtype)
        cols = np.flatnonzero(on_socket)
        current_count[cols] = page_counts[current[cols], cols]

        profitable = (
            (totals >= self.min_accesses)
            & (best_count.astype(np.float64)
               > current_count.astype(np.float64) * self.hysteresis)
        )
        candidates = np.flatnonzero(profitable)
        if candidates.size == 0:
            return batch

        # Hottest pages first: with a page budget, perfect knowledge spends
        # it where it pays most.
        candidates = candidates[np.argsort(totals[candidates])[::-1]]

        # Perfect knowledge also balances: among sockets whose access
        # counts are near-tied for a page, the rational destination is the
        # one serving the least *remote* traffic -- the home socket's
        # coherent links carry every fill it serves to other sockets, so a
        # zero-cost oracle balances that, not total DRAM load.
        remote_served = np.zeros(n_sockets, dtype=np.float64)
        np.add.at(remote_served, current[cols],
                  (totals[cols] - current_count[cols]).astype(np.float64))

        moved_pages, moved_dest = self._scan(
            page_counts, candidates, current, current_count, best_count,
            totals, remote_served,
        )
        if not moved_pages:
            return batch
        OBS.event("migration.batch", policy="baseline",
                  phase=self.phases_run, pages=len(moved_pages))
        pages = np.array(moved_pages, dtype=np.int64)
        destinations = np.array(moved_dest, dtype=np.int64)
        for destination in np.unique(destinations):
            group = pages[destinations == destination]
            sources = current[group]
            for source in np.unique(sources):
                subset = group[sources == source]
                batch.add(RegionMove(pages=subset, source=int(source),
                                     destination=int(destination)))
            page_map.move(group, int(destination))
        return batch

    def _scan(self, page_counts: np.ndarray, candidates: np.ndarray,
              current: np.ndarray, current_count: np.ndarray,
              best_count: np.ndarray, totals: np.ndarray,
              remote_served: np.ndarray) -> Tuple[List[int], List[int]]:
        """Pick each candidate's destination, hottest first.

        Returns the moved pages and their destinations in scan order.
        The scan is sequential (each move shifts ``remote_served`` for
        later tie-breaks), but the tie structure is not: one pass finds,
        per candidate, the sockets within 10% of its peak count, in
        socket order. A page with a single such socket moves there; a
        tied page goes to the tied socket serving the least remote
        traffic (the first one on equal loads, as ``argmin`` picks).
        The walk itself runs on Python scalars -- IEEE double arithmetic
        is the same as numpy's, so the result is too.
        """
        cand_counts = page_counts[:, candidates]
        tied = cand_counts >= (cand_counts.max(axis=0) * 0.9)[None, :]
        tied_rank, tied_socket = np.nonzero(tied.T)
        tied_counts = cand_counts.T[tied_rank, tied_socket].tolist()
        offsets = np.searchsorted(
            tied_rank, np.arange(candidates.size + 1)).tolist()
        tied_socket = tied_socket.tolist()
        sources = current[candidates]
        source_counts = page_counts[sources, candidates].tolist()
        sources = sources.tolist()
        page_totals = totals[candidates].tolist()
        served = remote_served.tolist()

        budget = self.config.migration_limit_pages
        moved_pages: List[int] = []
        moved_dest: List[int] = []
        for rank, page in enumerate(candidates.tolist()):
            if len(moved_pages) >= budget:
                break
            low, high = offsets[rank], offsets[rank + 1]
            slot = low
            if high - low > 1:
                near = tied_socket[low:high]
                slot += near.index(min(near, key=served.__getitem__))
            destination = tied_socket[slot]
            source = sources[rank]
            if destination == source:
                continue
            total = float(page_totals[rank])
            served[source] -= total - float(source_counts[rank])
            served[destination] += total - float(tied_counts[slot])
            moved_pages.append(page)
            moved_dest.append(destination)
            if OBS.enabled:
                OBS.counter("migration.decisions")
                OBS.counter("migration.pages_moved")
                # Per-page provenance is detail-level: the baseline moves
                # thousands of pages per phase under a scaled budget.
                OBS.detail(
                    "migration.decision", policy="baseline",
                    phase=self.phases_run, page=page, pages=1,
                    source=source, destination=destination,
                    accesses=total,
                    current_accesses=float(current_count[page]),
                    best_accesses=float(best_count[page]),
                    rule=("dominant-accessor" if high - low == 1
                          else "tie-balance"),
                    hysteresis=self.hysteresis,
                )
        return moved_pages, moved_dest
