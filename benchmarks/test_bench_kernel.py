"""Microbenchmarks of the phase timing kernel (vector vs scalar oracle).

Unlike the figure benchmarks, these measure the kernel itself -- one
phase evaluation at a pinned IPC (a single utilization -> waiting-time
-> AMAT pass) and the full damped fixed point -- with trace synthesis,
calibration, and Step B excluded. The scalar side is the per-route
oracle of the equivalence suite (``tests/test_sim/scalar_oracle.py``);
``benchmarks/compare_bench.py`` gates the scalar/vector ratio of each
pair's fastest round against ``BENCH_fig8.json``. Run with
``--benchmark-json``::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_kernel.py \
        --benchmark-json bench-kernel.json
"""

import pytest

from repro.config import starnuma_config
from repro.placement import first_touch_placement
from repro.sim import SimulationSetup, Simulator
from repro.sim.timing import PhaseTimingModel
from repro.workloads import WORKLOADS

from tests.test_sim.scalar_oracle import ScalarPhaseTimingModel


@pytest.fixture(scope="module")
def world():
    """One StarNUMA phase ready to evaluate: model, trace, map, fit."""
    star = starnuma_config()
    setup = SimulationSetup.create(WORKLOADS["sssp"], star, n_phases=3,
                                   seed=1)
    simulator = Simulator(star, setup)
    calibration = simulator.calibrate()
    page_map = first_touch_placement(setup.population.sharer_mask,
                                     star.n_sockets, has_pool=True)
    return star, setup, simulator, calibration, page_map


def _model(world, kernel: str) -> PhaseTimingModel:
    star, setup, simulator, _, _ = world
    model_class = {"vector": PhaseTimingModel,
                   "scalar": ScalarPhaseTimingModel}[kernel]
    return model_class(star, simulator.topology, simulator.routes,
                       setup.population)


def test_bench_single_evaluate_vector(world, benchmark):
    _, setup, _, calibration, page_map = world
    model = _model(world, "vector")
    trace = setup.traces[1]
    pinned = setup.population.profile.ipc_16
    timing = benchmark(
        lambda: model.evaluate(trace, page_map, calibration,
                               fixed_ipc=pinned)
    )
    assert timing.amat_ns > 0


def test_bench_single_evaluate_scalar(world, benchmark):
    _, setup, _, calibration, page_map = world
    model = _model(world, "scalar")
    trace = setup.traces[1]
    pinned = setup.population.profile.ipc_16
    timing = benchmark(
        lambda: model.evaluate(trace, page_map, calibration,
                               fixed_ipc=pinned)
    )
    assert timing.amat_ns > 0


def test_bench_fixed_point_vector(world, benchmark):
    _, setup, _, calibration, page_map = world
    model = _model(world, "vector")
    trace = setup.traces[1]
    timing = benchmark(
        lambda: model.evaluate(trace, page_map, calibration)
    )
    assert timing.converged


def test_bench_fixed_point_scalar(world, benchmark):
    _, setup, _, calibration, page_map = world
    model = _model(world, "scalar")
    trace = setup.traces[1]
    timing = benchmark(
        lambda: model.evaluate(trace, page_map, calibration)
    )
    assert timing.converged
