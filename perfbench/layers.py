"""Per-layer figures of one traced run, from its spans.

A layer's time is the self time of its spans: the span's duration
minus the part its child spans cover. Counts come from the spans'
attributes. Layers a workload bypasses read 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Optional

#: Spans that mark a unit of work rather than a layer: the benchmark's
#: timed call, a runner task, a serve job. Their self time is time in
#: that unit that no layer's span covers.
DISPATCH = ("bench.rep", "runner.task", "serve.job")

#: Every per-layer metric, in BENCHMARK.json order, with its unit.
UNITS = {
    "workloads.population_s": "s",
    "workloads.population_calls": "count",
    "trace.synthesize_s": "s",
    "migration.decide_baseline_s": "s",
    "migration.decide_starnuma_s": "s",
    "migration.decide_calls": "count",
    "migration.pages_moved": "pages",
    "migration.pages_to_pool": "pages",
    "sim.init_s": "s",
    "sim.step_b_s": "s",
    "sim.classify_s": "s",
    "sim.solve_s": "s",
    "sim.run_s": "s",
    "sim.calibrate_s": "s",
    "sim.phase_evals": "count",
    "sim.fp_iters": "count",
    "sim.unconverged": "count",
    "experiments.self_s": "s",
    "experiments.population_reuse": "ratio",
    "runner.task_p50_s": "s",
    "runner.task_max_s": "s",
    "runner.idle_s": "s",
    "runner.attempts": "count",
    "runner.requeued": "count",
    "durable.fsync_count": "count",
    "durable.fsync_s": "s",
    "export.write_s": "s",
    "store.ingest_s": "s",
    "store.rows": "count",
    "store.query_s": "s",
    "serve.submit_p50_ms": "ms",
    "serve.cached_p50_ms": "ms",
    "serve.queue_wait_p50_s": "s",
    "serve.cache_hit_ratio": "ratio",
    "serve.coalesced": "count",
    "serve.shed": "count",
    "serve.started": "count",
    "client.late_p50_s": "s",
    "client.late_max_s": "s",
    "host.steal_s": "s",
    "host.probe_s": "s",
    "unattributed_s": "s",
    "unattributed_pct": "%",
    "unattributed_worker_max_s": "s",
    "trace_overhead_pct": "%",
    "failed_ratio": "ratio",
}


def median_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _named(spans: List[dict], name: str) -> List[dict]:
    return [span for span in spans if span["name"] == name]


def _self(spans: List[dict], name: str) -> float:
    return sum(span["self"] for span in _named(spans, name))


def _dur(spans: List[dict], name: str) -> float:
    return sum(span["dur"] for span in _named(spans, name))


def model_layers(spans: List[dict]) -> Dict[str, float]:
    """Step A/B/C, experiments, runner, durability and store layers."""
    m: Dict[str, float] = {}
    population = _named(spans, "workloads.population")
    m["workloads.population_s"] = _self(spans, "workloads.population")
    m["workloads.population_calls"] = len(population)
    m["trace.synthesize_s"] = _self(spans, "trace.synthesize")

    decides = (_named(spans, "migration.decide_baseline")
               + _named(spans, "migration.decide_starnuma"))
    m["migration.decide_baseline_s"] = _self(spans,
                                             "migration.decide_baseline")
    m["migration.decide_starnuma_s"] = _self(spans,
                                             "migration.decide_starnuma")
    m["migration.decide_calls"] = len(decides)
    m["migration.pages_moved"] = sum(s["attrs"].get("pages", 0)
                                     for s in decides)
    m["migration.pages_to_pool"] = sum(s["attrs"].get("to_pool", 0)
                                       for s in decides)

    evaluations = _named(spans, "sim.evaluate")
    m["sim.init_s"] = _self(spans, "sim.init")
    m["sim.step_b_s"] = _self(spans, "sim.step_b")
    m["sim.classify_s"] = _self(spans, "sim.classify")
    m["sim.solve_s"] = _self(spans, "sim.evaluate")
    m["sim.run_s"] = _self(spans, "sim.run")
    m["sim.calibrate_s"] = _self(spans, "sim.calibrate")
    m["sim.phase_evals"] = len(evaluations)
    m["sim.fp_iters"] = sum(s["attrs"].get("iters", 0) for s in evaluations)
    m["sim.unconverged"] = sum(1 for s in evaluations
                               if s["attrs"].get("converged") is False)

    m["experiments.self_s"] = _self(spans, "experiments.run")
    distinct = {s["attrs"].get("workload") for s in population}
    m["experiments.population_reuse"] = (len(population) / len(distinct)
                                         if distinct else 0.0)

    tasks = _named(spans, "runner.task")
    m["runner.task_p50_s"] = median_or_zero(s["dur"] for s in tasks)
    m["runner.task_max_s"] = max((s["dur"] for s in tasks), default=0.0)
    idle = 0.0
    for sweep in _named(spans, "runner.sweep"):
        if sweep["attrs"].get("jobs", 1) <= 1:
            continue
        busy: Dict[int, float] = {}
        for task in tasks:
            if sweep["start"] <= task["start"] and task["end"] <= sweep["end"]:
                busy[task["pid"]] = busy.get(task["pid"], 0.0) + task["dur"]
        idle += sweep["dur"] - max(busy.values(), default=0.0)
    m["runner.idle_s"] = idle
    m["runner.attempts"] = sum(s["attrs"].get("attempts", 0) for s in tasks)
    m["runner.requeued"] = sum(s["attrs"].get("requeued", 0)
                               for s in _named(spans, "runner.sweep"))

    m["durable.fsync_count"] = len(_named(spans, "durable.fsync"))
    m["durable.fsync_s"] = _dur(spans, "durable.fsync")
    m["export.write_s"] = _dur(spans, "export.write")
    m["store.ingest_s"] = _dur(spans, "store.ingest")
    m["store.query_s"] = _dur(spans, "store.query")
    return m


def unattributed(spans: List[dict], main_pid: Optional[int]
                 ) -> Dict[str, object]:
    """Dispatch self time: the total, and per worker process."""
    per_pid: Dict[int, float] = {}
    for span in spans:
        if span["name"] in DISPATCH:
            per_pid[span["pid"]] = per_pid.get(span["pid"], 0.0) \
                + span["self"]
    workers = {pid: value for pid, value in per_pid.items()
               if pid != main_pid}
    return {"total": sum(per_pid.values()), "workers": workers}


def queue_waits(spans: List[dict]) -> List[float]:
    """Serve: admission of a new job to the start of its worker."""
    admitted = {s["attrs"].get("job"): s["end"]
                for s in _named(spans, "serve.submit")
                if s["attrs"].get("disposition") == "accepted"}
    return [s["start"] - admitted[s["attrs"]["job"]]
            for s in _named(spans, "serve.job")
            if s["attrs"].get("job") in admitted]


def zeroed() -> Dict[str, float]:
    return {name: 0.0 for name in UNITS}
