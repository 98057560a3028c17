"""Per-page numpy reference for the baseline policy's destination scan.

:class:`NumpyScanBaselinePolicy` walks the candidates with numpy
indexing -- one ``flatnonzero``/``argmin`` per tied page and numpy
scalar updates of ``remote_served`` -- the historical form of
:meth:`repro.migration.BaselinePolicy._scan`. It shares the vectorized
preamble and the batch assembly with the production policy and
overrides only the scan, so the equivalence suite compares exactly the
scalar walk against this oracle.
"""

import numpy as np

from repro.migration import BaselinePolicy
from repro.obs import OBS


class NumpyScanBaselinePolicy(BaselinePolicy):
    """The baseline policy with the per-page numpy scan."""

    def _scan(self, page_counts, candidates, current, current_count,
              best_count, totals, remote_served):
        cand_counts = page_counts[:, candidates]
        tied = cand_counts >= (cand_counts.max(axis=0) * 0.9)[None, :]
        tie_degree = tied.sum(axis=0)
        clear_winner = cand_counts.argmax(axis=0)

        budget = self.config.migration_limit_pages
        moved_pages = []
        moved_dest = []
        for rank, page in enumerate(candidates):
            if len(moved_pages) >= budget:
                break
            if tie_degree[rank] == 1:
                destination = int(clear_winner[rank])
            else:
                near_tied = np.flatnonzero(tied[:, rank])
                destination = int(
                    near_tied[np.argmin(remote_served[near_tied])]
                )
            source = int(current[page])
            if destination == source:
                continue
            counts = page_counts[:, page]
            total = float(totals[page])
            remote_served[source] -= total - float(counts[source])
            remote_served[destination] += total - float(counts[destination])
            moved_pages.append(int(page))
            moved_dest.append(destination)
            if OBS.enabled:
                OBS.counter("migration.decisions")
                OBS.counter("migration.pages_moved")
                OBS.detail(
                    "migration.decision", policy="baseline",
                    phase=self.phases_run, page=int(page), pages=1,
                    source=source, destination=destination,
                    accesses=total,
                    current_accesses=float(current_count[page]),
                    best_accesses=float(best_count[page]),
                    rule=("dominant-accessor" if tie_degree[rank] == 1
                          else "tie-balance"),
                    hysteresis=self.hysteresis,
                )
        return moved_pages, moved_dest
