"""Regenerate the reference outputs the benchmark checks against.

Run from the root of a checkout::

    python3 perfbench/make_refs.py

It writes ``perfbench/refs/fig8_seed1.json`` (the three Fig. 8 tables
at the default seed) and ``perfbench/refs/serve_digests.json`` (the
digest of every scenario the ``serve`` workload can submit), computing
each through the same function the program uses. Rerun it only when a
change is meant to alter the model's output, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import ledger  # noqa: E402
import loadgen  # noqa: E402


def main() -> int:
    from repro.cli import _serve_run_scenario
    from repro.experiments import fig08
    from repro.experiments.context import ExperimentContext
    from repro.experiments.export import _flatten, result_to_dict
    from repro.serve.scenario import Scenario

    refs = HERE / "refs"
    refs.mkdir(exist_ok=True)
    outcome = fig08.run(ExperimentContext(seed=1))
    tables = {part.experiment: result_to_dict(part)
              for part in _flatten(outcome)}
    (refs / "fig8_seed1.json").write_text(json.dumps(tables, indent=1))

    digests = {}
    for seed in loadgen.SCENARIO_SEEDS:
        for experiment in loadgen.EXPERIMENTS:
            for workload in loadgen.WORKLOADS:
                result = _serve_run_scenario(Scenario(
                    experiment=experiment, seed=seed,
                    workloads=(workload,)))
                # The served result crosses JSON on its way out.
                result = json.loads(json.dumps(result))
                key = loadgen.scenario_key(experiment, workload, seed)
                digests[key] = ledger.digest(result)
                print(key, digests[key][:12], flush=True)
    (refs / "serve_digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
