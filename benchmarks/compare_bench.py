"""Compare fresh oracle-vs-vector benchmarks against the committed baseline.

Usage::

    python benchmarks/compare_bench.py BENCH_fig8.json bench-kernel.json

Absolute timings are machine-dependent, so the gate is
machine-normalized: within each file the speedup is the ratio of the
scalar-oracle time to the vector time of the same case: the Step C
kernel (``test_bench_fixed_point_*``, ``test_bench_single_evaluate_*``
from ``benchmarks/test_bench_kernel.py``) and the page population build
(``test_bench_build_population_*`` from
``benchmarks/test_bench_population.py``). A fresh run regresses when
its speedup falls more than ``--threshold`` (default 25%) below the
baseline's speedup for any case present in the baseline. Absolute times
are printed for context but never fail the gate.

Each side's time is its fastest round (``stats.min``). On a shared
2-vCPU host the vector kernel's median moved between 8.6 and 24 ms
across four runs of the same code, because scheduler and BLAS-thread
interference only ever add time; the minimum ratio stayed within
1.65-1.92x (single evaluate) and 5.16-5.62x (fixed point).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

#: Cases gated, each benchmarked as ``<case>_scalar``/``<case>_vector``.
CASES = ("test_bench_fixed_point", "test_bench_single_evaluate",
         "test_bench_build_population")


def load_minimums(path: str) -> Dict[str, float]:
    with open(path) as handle:
        data = json.load(handle)
    return {b["name"]: float(b["stats"]["min"])
            for b in data["benchmarks"]}


def speedups(minimums: Dict[str, float]) -> Dict[str, float]:
    """Case -> scalar-oracle/vector ratio of the fastest rounds."""
    out = {}
    for case in CASES:
        scalar = minimums.get(f"{case}_scalar")
        vector = minimums.get(f"{case}_vector")
        if scalar and vector:
            out[case] = scalar / vector
            print(f"  {case}: scalar {scalar * 1e3:.2f} ms, "
                  f"vector {vector * 1e3:.2f} ms")
    return out


def compare(baseline: Dict[str, float], fresh: Dict[str, float],
            threshold: float) -> Tuple[List[str], List[str]]:
    lines, failures = [], []
    for case in sorted(baseline):
        if case not in fresh:
            lines.append(f"  {case}: missing from fresh run")
            failures.append(case)
            continue
        floor = baseline[case] * (1.0 - threshold)
        status = "ok" if fresh[case] >= floor else "REGRESSION"
        lines.append(
            f"  {case}: baseline {baseline[case]:.2f}x fresh "
            f"{fresh[case]:.2f}x (floor {floor:.2f}x) {status}"
        )
        if fresh[case] < floor:
            failures.append(case)
    return lines, failures


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("fresh", help="freshly produced benchmark JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative speedup drop (default 0.25)")
    args = parser.parse_args(argv)

    print(f"baseline ({args.baseline}):")
    base = speedups(load_minimums(args.baseline))
    print(f"fresh ({args.fresh}):")
    new = speedups(load_minimums(args.fresh))
    if not base:
        print(f"no scalar/vector pairs in {args.baseline}",
              file=sys.stderr)
        return 2

    print("scalar-oracle-vs-vector speedup (machine-normalized):")
    lines, failures = compare(base, new, args.threshold)
    print("\n".join(lines))
    if failures:
        print(f"FAIL: speedup regression in {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("PASS: no machine-normalized regression")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
