"""Tests for phase access classification."""

import numpy as np
import pytest

from repro.placement import PageMap
from repro.sim.classification import (
    block_transfer_fractions,
    classify_phase,
)
from repro.topology import POOL_LOCATION


class TestBlockTransferFractions:
    def test_matches_sharing_model(self, tiny_population):
        from repro.coherence import SharingModel

        fractions = block_transfer_fractions(tiny_population)
        model = SharingModel(coupling=tiny_population.profile.coupling)
        for page in (0, 100, 2000):
            expected = model.block_transfer_fraction(
                int(tiny_population.sharer_count[page]),
                float(tiny_population.write_fraction[page]),
            )
            assert fractions[page] == pytest.approx(expected)

    def test_private_pages_zero(self, tiny_population):
        fractions = block_transfer_fractions(tiny_population)
        private = tiny_population.sharer_count == 1
        assert (fractions[private] == 0).all()


class TestClassifyPhase:
    def classify(self, tiny_population, locations, counts):
        page_map = PageMap(np.asarray(locations, dtype=np.int16), 16, True)
        return classify_phase(counts, page_map, tiny_population)

    def test_conserves_accesses(self, tiny_setup):
        trace = tiny_setup.traces[0]
        locations = np.zeros(trace.n_pages, dtype=np.int16)
        page_map = PageMap(locations, 16, True)
        classification = classify_phase(trace.counts, page_map,
                                        tiny_setup.population)
        reconstructed = (classification.demand.sum()
                         + classification.bt_socket.sum()
                         + classification.bt_pool.sum())
        assert reconstructed == pytest.approx(trace.total_accesses)
        assert classification.total_accesses == pytest.approx(
            trace.total_accesses
        )

    def test_pool_column_collects_pool_pages(self, tiny_setup):
        trace = tiny_setup.traces[0]
        locations = np.full(trace.n_pages, POOL_LOCATION, dtype=np.int16)
        page_map = PageMap(locations, 16, True)
        classification = classify_phase(trace.counts, page_map,
                                        tiny_setup.population)
        assert classification.demand[:, :16].sum() == 0
        assert classification.demand_to_pool() > 0
        assert classification.bt_socket.sum() == 0

    def test_socket_homes_collect_bt(self, tiny_setup):
        trace = tiny_setup.traces[0]
        locations = np.zeros(trace.n_pages, dtype=np.int16)
        page_map = PageMap(locations, 16, True)
        classification = classify_phase(trace.counts, page_map,
                                        tiny_setup.population)
        assert classification.bt_pool.sum() == 0
        assert classification.bt_socket.sum() > 0
        # All socket-homed transfers land in the home-0 column.
        assert classification.bt_socket[:, 1:].sum() == 0

    def test_writes_bounded_by_demand(self, tiny_setup):
        trace = tiny_setup.traces[0]
        locations = np.zeros(trace.n_pages, dtype=np.int16)
        page_map = PageMap(locations, 16, True)
        classification = classify_phase(trace.counts, page_map,
                                        tiny_setup.population)
        assert (classification.demand_writes
                <= classification.demand + 1e-9).all()

    def test_pool_owner_load_conserved(self, tiny_setup):
        trace = tiny_setup.traces[0]
        locations = np.full(trace.n_pages, POOL_LOCATION, dtype=np.int16)
        page_map = PageMap(locations, 16, True)
        classification = classify_phase(trace.counts, page_map,
                                        tiny_setup.population)
        assert classification.bt_pool_owner.sum() == pytest.approx(
            classification.bt_pool.sum()
        )

    def test_rejects_mismatched_map(self, tiny_setup):
        trace = tiny_setup.traces[0]
        page_map = PageMap(np.zeros(10, dtype=np.int16), 16, True)
        with pytest.raises(ValueError):
            classify_phase(trace.counts, page_map, tiny_setup.population)


class TestClassificationMemo:
    @pytest.fixture
    def world(self, tiny_profile):
        from repro.config import starnuma_config
        from repro.placement import first_touch_placement
        from repro.sim import PhaseTimingModel, SimulationSetup
        from repro.topology import RouteTable, Topology

        system = starnuma_config()
        setup = SimulationSetup.create(tiny_profile, system, n_phases=2,
                                       seed=4)
        topology = Topology(system)
        model = PhaseTimingModel(system, topology, RouteTable(topology),
                                 setup.population)
        page_map = first_touch_placement(setup.population.sharer_mask, 16,
                                         True, np.random.default_rng(1))
        return dict(system=system, setup=setup, model=model,
                    trace=setup.traces[0], page_map=page_map)

    def test_same_content_returns_identical_object(self, world):
        model, trace = world["model"], world["trace"]
        first = model.classify(trace, world["page_map"])
        assert model.classify(trace, world["page_map"]) is first
        # A copy with the same locations is the same placement.
        assert model.classify(trace, world["page_map"].copy()) is first
        assert len(trace.classifications) == 1

    def test_matches_direct_classification(self, world):
        model, trace, page_map = (world["model"], world["trace"],
                                  world["page_map"])
        memoized = model.classify(trace, page_map)
        direct = classify_phase(trace.counts, page_map,
                                model.population)
        for name in ("demand", "demand_writes", "bt_socket", "bt_pool",
                     "bt_pool_owner"):
            assert getattr(memoized, name).tobytes() == \
                getattr(direct, name).tobytes()
        assert memoized.total_accesses == direct.total_accesses

    def test_one_page_moved_misses(self, world):
        model, trace = world["model"], world["trace"]
        first = model.classify(trace, world["page_map"])
        moved = world["page_map"].copy()
        moved.move(np.array([0]), POOL_LOCATION
                   if moved.location_of(0) != POOL_LOCATION else 1)
        second = model.classify(trace, moved)
        assert second is not first
        assert len(trace.classifications) == 2

    def test_other_replication_plan_misses(self, world):
        from repro.replication import ReplicationPlan
        from repro.sim import PhaseTimingModel

        model, trace = world["model"], world["trace"]
        bare = model.classify(trace, world["page_map"])
        n_pages = trace.n_pages
        plans = [ReplicationPlan.empty(n_pages),
                 ReplicationPlan.empty(n_pages)]
        results = [
            PhaseTimingModel(model.system, model.topology, model.routes,
                             model.population, replication=plan)
            .classify(trace, world["page_map"])
            for plan in plans
        ]
        assert results[0] is not bare
        assert results[1] is not results[0]
        assert len(trace.classifications) == 3

    def test_arrays_are_read_only(self, world):
        classification = world["model"].classify(world["trace"],
                                                 world["page_map"])
        for array in (classification.demand, classification.demand_writes,
                      classification.bt_socket, classification.bt_pool,
                      classification.bt_pool_owner):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.0

    def test_memo_is_bounded(self, world):
        from repro.sim.timing import CLASSIFICATION_MEMO_ENTRIES

        model, trace = world["model"], world["trace"]
        page_map = world["page_map"].copy()
        for page in range(CLASSIFICATION_MEMO_ENTRIES + 3):
            page_map.move(np.array([page]), POOL_LOCATION)
            model.classify(trace, page_map)
        assert len(trace.classifications) == CLASSIFICATION_MEMO_ENTRIES

    def test_hit_and_miss_counters(self, world):
        from repro.obs import OBS, MemorySink, shutdown

        records = []
        OBS.configure(MemorySink(records))
        try:
            for _ in range(3):
                world["model"].classify(world["trace"], world["page_map"])
        finally:
            shutdown()
        metrics = {r["name"]: r["value"] for r in records
                   if r["kind"] == "metric"}
        assert metrics["sim.classify.memo_miss"] == 1
        assert metrics["sim.classify.memo_hit"] == 2

    def test_cold_and_warm_runs_time_identically(self, tiny_profile,
                                                 base_system):
        from repro.config import starnuma_config
        from repro.sim import SimulationSetup, Simulator
        from repro.trace import PhaseTrace

        setup = SimulationSetup.create(tiny_profile, base_system,
                                       n_phases=4, seed=9)
        calibration = Simulator(base_system, setup).calibrate()

        def timings(setup):
            return [repr(Simulator(system, setup).run(
                calibration=calibration, warmup_phases=1).phases)
                for system in (base_system, starnuma_config())]

        timings(setup)  # fills every trace's memo
        assert all(trace.classifications for trace in setup.traces)
        warm = timings(setup)
        fresh = SimulationSetup(
            profile=setup.profile, population=setup.population,
            traces=[PhaseTrace(trace.phase, trace.counts,
                               trace.instructions_per_thread)
                    for trace in setup.traces],
            seed=setup.seed,
        )
        assert timings(fresh) == warm
