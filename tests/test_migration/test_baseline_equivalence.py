"""The baseline policy's scalar scan against its per-page numpy oracle.

Both forms must produce byte-identical migration batches, final page
maps and ``migration.decision`` provenance records -- on every paper
workload's real traces, on tie-heavy synthetic counts, and when the
page budget cuts the scan short.
"""

import numpy as np
import pytest

from repro.config import MigrationConfig, baseline_config
from repro.migration import BaselinePolicy
from repro.obs import OBS, MemorySink, shutdown
from repro.placement import PageMap
from repro.sim import SimulationSetup, Simulator
from repro.topology import POOL_LOCATION
from repro.workloads import all_workloads
from tests.test_migration.baseline_oracle import NumpyScanBaselinePolicy

N_SOCKETS = 16


def run_policy(policy_cls, phase_counts, locations, limit,
               has_pool=False):
    """Drive one policy over ``phase_counts`` at detail level.

    Returns the batches as (phase, source, destination, page bytes)
    tuples, the final locations, and every emitted record except its
    timestamp (``repr`` keeps int/float/numpy scalar types apart).
    """
    page_map = PageMap(locations.copy(), N_SOCKETS, has_pool)
    policy = policy_cls(MigrationConfig(migration_limit_pages=limit))
    records = []
    OBS.configure(MemorySink(records), level="detail")
    try:
        batches = [policy.decide(counts, page_map)
                   for counts in phase_counts]
    finally:
        shutdown()
    moves = [(batch.phase, move.source, move.destination,
              move.pages.dtype.str, move.pages.tobytes())
             for batch in batches for move in batch.moves]
    stamped = [{key: value for key, value in record.items()
                if key != "t_ns"} for record in records]
    return moves, page_map.locations.tobytes(), repr(stamped)


def assert_equivalent(phase_counts, locations, limit, has_pool=False):
    fast = run_policy(BaselinePolicy, phase_counts, locations, limit,
                      has_pool)
    oracle = run_policy(NumpyScanBaselinePolicy, phase_counts, locations,
                        limit, has_pool)
    assert fast[0] == oracle[0]
    assert fast[1] == oracle[1]
    assert fast[2] == oracle[2]
    return fast


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload",
                         [profile.name for profile in all_workloads()])
def test_paper_workloads_twelve_phases(workload, seed):
    system = baseline_config()
    profile = next(p for p in all_workloads() if p.name == workload)
    setup = SimulationSetup.create(profile, system, n_phases=12, seed=seed)
    simulator = Simulator(system, setup)
    assert_equivalent(
        [trace.counts for trace in setup.traces],
        simulator.initial_page_map().locations,
        simulator.effective_migration_limit,
    )


def tie_heavy_counts(rng, n_pages, n_phases):
    """Counts where most hot pages have two to five exactly or nearly
    tied accessors, so nearly every destination is a tie-break."""
    phases = []
    for _ in range(n_phases):
        counts = rng.integers(0, 4, size=(N_SOCKETS, n_pages))
        for page in range(n_pages):
            sockets = rng.choice(N_SOCKETS, size=rng.integers(2, 6),
                                 replace=False)
            level = int(rng.integers(64, 400))
            counts[sockets, page] = level + rng.integers(0, 3,
                                                         size=sockets.size)
        phases.append(counts.astype(np.int64))
    return phases


def test_tie_heavy_matrix():
    rng = np.random.default_rng(11)
    phases = tie_heavy_counts(rng, 600, 4)
    locations = rng.integers(0, N_SOCKETS, 600).astype(np.int16)
    _, _, records = assert_equivalent(phases, locations, limit=10_000)
    assert records.count("tie-balance") > 1000


def test_budget_bound():
    rng = np.random.default_rng(5)
    phases = tie_heavy_counts(rng, 400, 3)
    locations = rng.integers(0, N_SOCKETS, 400).astype(np.int16)
    moves, _, _ = assert_equivalent(phases, locations, limit=7)
    per_phase = {}
    for phase, _, _, _, pages in moves:
        per_phase[phase] = per_phase.get(phase, 0) + len(pages) // 8
    assert per_phase and all(n == 7 for n in per_phase.values())


def test_pool_resident_sources():
    # As the StarNUMA fallback after a pool failure the policy can see
    # pages still on the pool; both scans must treat them alike.
    rng = np.random.default_rng(3)
    phases = tie_heavy_counts(rng, 300, 2)
    locations = rng.integers(0, N_SOCKETS, 300).astype(np.int16)
    locations[::5] = POOL_LOCATION
    moves, _, _ = assert_equivalent(phases, locations, limit=10_000,
                                    has_pool=True)
    assert any(source == POOL_LOCATION for _, source, _, _, _ in moves)


def test_exact_load_ties():
    # Every page homed on socket 0 and read equally by sockets 1-3:
    # the tied sockets' remote loads start equal and return to equal
    # after every third move, so the scan must take the first minimum.
    n_pages = 90
    counts = np.zeros((N_SOCKETS, n_pages), dtype=np.int64)
    counts[1:4, :] = 100
    locations = np.zeros(n_pages, dtype=np.int16)
    moves, final, _ = assert_equivalent([counts], locations, limit=10_000)
    spread = np.bincount(np.frombuffer(final, dtype=np.int16),
                         minlength=N_SOCKETS)
    assert list(spread[1:4]) == [30, 30, 30]
