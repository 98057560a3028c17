"""Span tracing applied from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer
(module functions, class methods, ``os.fsync``) in place, so nothing
under ``src/`` changes. Every call records one span: name, pid, thread,
start, end, the id of the span that caused it, and a few counts taken
from the call's arguments or result.

Spans stay in memory and are appended to ``spans-<pid>.jsonl`` in the
trace directory whenever a span listed in :data:`FLUSH_AT` or an
outermost span closes. Runner and serve workers are fork children that
leave through ``os._exit`` (no ``atexit``) and may be killed, so they
flush after every task; at worst the task in flight is lost.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Spans whose close writes the buffer out even when nested.
FLUSH_AT = frozenset({"runner.task", "serve.job"})

Attrs = Callable[[tuple, dict, Any], Dict[str, object]]


class Tracer:
    """Records spans per thread and writes them out per process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A fork child keeps none of the parent's buffered spans: the
        # parent writes those itself.
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._buffer: List[list] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Attrs] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs else {}
                with tracer._lock:
                    tracer._buffer.append([
                        tracer.pid, threading.get_ident(), span_id, parent,
                        name, start, end, extra])
                if not stack or name in FLUSH_AT:
                    tracer.flush()

        return traced

    def flush(self) -> None:
        with self._lock:
            records, self._buffer = self._buffer, []
        if not records:
            return
        data = "".join(json.dumps(record) + "\n" for record in records)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data.encode())
        finally:
            os.close(fd)


# -- installing the wrappers --------------------------------------------------


def _rebind(original: Callable, wrapped: Callable,
            only_module: Optional[str] = None) -> None:
    """Point every ``repro`` module global (or registry entry) at
    ``wrapped`` where it held ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        if only_module is not None and module_name != only_module:
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapped)
            elif isinstance(value, dict) and module_name == \
                    "repro.experiments" and attribute == "EXPERIMENTS":
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = wrapped


def _wrap_function(tracer: Tracer, module: Any, name: str, span: str,
                   attrs: Optional[Attrs] = None,
                   only_module: Optional[str] = None) -> None:
    original = getattr(module, name)
    _rebind(original, tracer.wrap(span, original, attrs), only_module)


def _wrap_method(tracer: Tracer, cls: type, name: str, span: str,
                 attrs: Optional[Attrs] = None) -> None:
    setattr(cls, name, tracer.wrap(span, getattr(cls, name), attrs))


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points; call before any work starts."""
    import repro.cli  # noqa: F401 -- loads the modules to rebind
    import repro.experiments as experiments
    import repro.experiments.export as export
    import repro.runner.supervisor as supervisor
    import repro.runner.sweep as sweep
    import repro.serve.cache as serve_cache
    import repro.serve.jobs as serve_jobs
    import repro.serve.journal as serve_journal
    import repro.sim.classification as classification
    import repro.store.ingest as store_ingest
    import repro.store.query as store_query
    import repro.workloads.population as population
    from repro.migration import BaselinePolicy, StarNumaPolicy
    from repro.sim.engine import Simulator
    from repro.sim.timing import PhaseTimingModel
    from repro.trace import TraceSynthesizer

    # repro.workloads / repro.trace: Step A.
    _wrap_function(tracer, population, "build_population",
                   "workloads.population",
                   lambda a, k, r: {"workload": a[0].name})
    _wrap_method(tracer, TraceSynthesizer, "synthesize", "trace.synthesize")

    # repro.migration: the per-phase decisions of Step B.
    def batch_counts(a, k, r):
        if r is None:
            return {}
        return {"pages": r.n_pages, "to_pool": r.pages_to_pool}

    _wrap_method(tracer, BaselinePolicy, "decide",
                 "migration.decide_baseline", batch_counts)
    _wrap_method(tracer, StarNumaPolicy, "decide",
                 "migration.decide_starnuma", batch_counts)

    # repro.sim: the Step B loop, Step C per phase, run aggregation.
    _wrap_method(tracer, Simulator, "__init__", "sim.init")
    _wrap_method(tracer, Simulator, "checkpoints", "sim.step_b")
    _wrap_method(tracer, Simulator, "run", "sim.run")
    _wrap_method(tracer, Simulator, "calibrate", "sim.calibrate")

    def timing_counts(a, k, r):
        if r is None:
            return {}
        return {"iters": r.fixed_point_iterations,
                "converged": bool(r.converged)}

    _wrap_method(tracer, PhaseTimingModel, "evaluate", "sim.evaluate",
                 timing_counts)
    _wrap_function(tracer, classification, "classify_phase",
                   "sim.classify", only_module="repro.sim.timing")

    # repro.experiments: every registered experiment runner.
    for experiment, runner_fn in list(experiments.EXPERIMENTS.items()):
        _rebind(runner_fn, tracer.wrap(
            "experiments.run", runner_fn,
            lambda a, k, r, experiment=experiment:
            {"experiment": experiment}))

    # Export, checkpoint and durability.
    _wrap_function(tracer, export, "export_all", "export.export_all")
    _wrap_function(tracer, export, "write_result", "export.write")
    _wrap_method(tracer, sweep.SweepCheckpoint, "_write",
                 "runner.checkpoint_write")
    os.fsync = tracer.wrap("durable.fsync", os.fsync)

    # repro.runner: the sweep, each task attempt loop, each worker.
    def sweep_counts(a, k, r):
        health = getattr(a[0], "last_health", None)
        return {"jobs": a[0].jobs,
                "requeued": health.tasks_requeued if health else 0}

    _wrap_method(tracer, sweep.SweepRunner, "run", "runner.sweep",
                 sweep_counts)
    _wrap_function(tracer, sweep, "_attempt_task", "runner.task",
                   lambda a, k, r: {
                       "task": a[0],
                       "attempts": r.attempts if r is not None else 0})
    _wrap_function(tracer, supervisor, "_worker_main", "runner.worker")

    # repro.store.
    _wrap_function(tracer, store_ingest, "ingest_path", "store.ingest")
    _wrap_function(tracer, store_query, "run_table", "store.query")

    # repro.serve: admission, cache, journal and the job worker.
    _wrap_method(tracer, serve_jobs.JobManager, "submit", "serve.submit",
                 lambda a, k, r: {"disposition": r[0], "job": r[1].job_id}
                 if r is not None else {})
    _wrap_method(tracer, serve_cache.ResultCache, "get", "serve.cache_get")
    _wrap_method(tracer, serve_cache.ResultCache, "put", "serve.cache_put")
    _wrap_method(tracer, serve_journal.JobJournal, "append",
                 "serve.journal_append")
    _wrap_function(tracer, serve_jobs, "_job_worker_main", "serve.job",
                   lambda a, k, r: {"job": a[0]})
    _wrap_function(tracer, repro.cli, "_serve_run_scenario",
                   "serve.run_scenario")


def load_spans(trace_dir: Path) -> List[dict]:
    """Every span written under ``trace_dir``, as dicts."""
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            pid, tid, span_id, parent, name, start, end, extra = \
                json.loads(line)
            spans.append({"pid": pid, "tid": tid, "id": span_id,
                          "parent": parent, "name": name, "start": start,
                          "end": end, "attrs": extra})
    return spans


def with_self_times(spans: List[dict]) -> List[dict]:
    """Add ``dur`` and ``self`` (duration minus the part covered by
    child spans) to each span. Children run on their parent's thread,
    so they never overlap one another."""
    children: Dict[tuple, float] = {}
    for span in spans:
        span["dur"] = span["end"] - span["start"]
        if span["parent"]:
            key = (span["pid"], span["parent"])
            children[key] = children.get(key, 0.0) + span["dur"]
    for span in spans:
        span["self"] = span["dur"] - children.get(
            (span["pid"], span["id"]), 0.0)
    return spans
