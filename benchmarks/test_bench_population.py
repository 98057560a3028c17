"""Microbenchmark of the page population build (vector vs per-block oracle).

Times ``build_population`` for ``masstree`` (16 sockets, seed 1), whose
widely shared classes make it the slowest catalog population for a
per-page draw. The oracle side swaps in the per-block sharer-set draw
and ``bin().count`` popcount of
``tests/test_workloads/population_oracle.py``; everything else is the
same code. ``benchmarks/compare_bench.py`` gates the oracle/vector ratio
of the fastest rounds against ``BENCH_fig8.json``::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_population.py \
        --benchmark-json bench-population.json
"""

from repro.workloads import WORKLOADS, build_population

from tests.test_workloads.population_oracle import build_population_oracle


def test_bench_build_population_vector(benchmark):
    population = benchmark(build_population, WORKLOADS["masstree"], seed=1)
    assert population.n_pages == WORKLOADS["masstree"].n_pages_sim


def test_bench_build_population_scalar(benchmark):
    population = benchmark(build_population_oracle, WORKLOADS["masstree"],
                           seed=1)
    assert population.n_pages == WORKLOADS["masstree"].n_pages_sim
