"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing
off; ``--trace 1`` runs the workload once untraced and once with the
layer tracer, and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
run context and, for traced runs, the layer table. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import ledger as checks  # noqa: E402
import loadgen  # noqa: E402
import tracer  # noqa: E402

#: Nominal length of one repetition with its process start. A run
#: makes as many as fit in ``--seconds``, so the count depends on
#: ``--seconds`` alone and every run of a workload does equal work.
NOMINAL_REP_S = {"fig8": 12.0, "sweep": 25.0}
#: Model seeds of a run's repetitions: --seed, --seed + 1000, ...
REP_SEED_STRIDE = 1000
#: Fresh starts per run for ``setup_s``, after one discarded warm-up.
SETUP_STARTS = 5
#: The whole run is abandoned, without a result, past this many seconds.
WATCHDOG_S = 175
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "job_p50_s",
              "job_tail_s", "speedup_err_pct")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "job_p50_s": "s", "job_tail_s": "s",
             "speedup_err_pct": "%"}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


class Procs:
    """Every child process this run starts, so all are stopped."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.live: List[subprocess.Popen] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", os.environ.get("PYTHONPATH")]))

    def start(self, argv: List[str], log: Path,
              stdout=subprocess.PIPE) -> subprocess.Popen:
        with open(log, "ab") as handle:
            # Each child leads its own process group, so stopping it
            # also stops the workers it forked.
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=stdout, stderr=handle,
                                    text=True, start_new_session=True)
        self.live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen, timeout: float):
        """Wait for ``proc``; return (exit code, rusage of its tree)."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.live.remove(proc)
                if proc.stdout is not None:
                    proc.stdout.close()
                return proc.returncode, usage
            if time.monotonic() > deadline:
                proc.kill()
                deadline = time.monotonic() + 10
            time.sleep(0.01)

    def stop_all(self) -> None:
        for proc in list(self.live):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                proc.wait(10)
            except subprocess.TimeoutExpired:
                pass
            self.live.remove(proc)


# -- small helpers ------------------------------------------------------------


def steal_s() -> float:
    """Guest steal time of the host so far, in seconds."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def proc_cpu_s(pid: int) -> float:
    """User plus system time of ``pid`` and its reaped children."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = sum(int(value) for value in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def tail(values: List[float]):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it, or the maximum when there are fewer than 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def rusage_cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def python() -> str:
    return sys.executable or "python3"


def run_context(procs: Procs, work: Path) -> dict:
    proc = procs.start([python(), str(HERE / "workload.py"), "context"],
                       work / "context.log")
    text = proc.stdout.read()
    code, _ = procs.reap(proc, 60)
    if code != 0:
        raise BenchError(f"context probe exited {code}")
    return json.loads(text)


# -- fig8 and sweep: one fresh process per repetition -------------------------


def ready_sample(procs: Procs, work: Path, workload: str, seed: int) -> float:
    argv = [python(), str(HERE / "workload.py"), "ready", workload,
            "--seed", str(seed)]
    started = time.monotonic()
    proc = procs.start(argv, work / "ready.log")
    line = proc.stdout.readline().strip()
    elapsed = time.monotonic() - started
    code, _ = procs.reap(proc, 60)
    if line != "ready" or code != 0:
        raise BenchError(f"set-up probe failed (exit {code}); see "
                         f"{work / 'ready.log'}")
    return elapsed


def setup_samples(start_one) -> List[float]:
    start_one()  # warm-up: fills the bytecode cache, page cache
    return [start_one() for _ in range(SETUP_STARTS)]


def one_rep(procs: Procs, work: Path, workload: str, seed: int,
            index: int, trace_dir: Optional[Path] = None) -> dict:
    out = work / f"rep-{index}.json"
    rep_work = work / f"rep-{index}"
    rep_work.mkdir()
    argv = [python(), str(HERE / "workload.py"), "rep", workload,
            "--seed", str(seed), "--out", str(out), "--work", str(rep_work)]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    proc = procs.start(argv, work / "rep.log")
    proc.stdout.read()
    code, usage = procs.reap(proc, 170)
    if code != 0 or not out.exists():
        raise BenchError(f"{workload} repetition exited {code}; see "
                         f"{work / 'rep.log'}")
    figures = json.loads(out.read_text())
    figures["cpu_s"] = rusage_cpu(usage) - figures["cpu_start_s"]
    figures["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    figures["pid"] = proc.pid
    return figures


def batch_end_to_end(procs: Procs, work: Path, workload: str, seed: int,
                     seconds: int, totals: checks.Ledger) -> dict:
    setup = setup_samples(lambda: ready_sample(procs, work, workload, seed))
    reps_n = max(1, int(seconds // NOMINAL_REP_S[workload]))
    # Each repetition runs another model seed drawn from --seed, so a
    # run averages over inputs instead of repeating one.
    reps = [one_rep(procs, work, workload, seed + REP_SEED_STRIDE * i, i)
            for i in range(reps_n)]
    walls = [rep["wall_s"] for rep in reps]
    for rep in reps:
        totals.merge(rep["ledger"])
    tail_value, tail_pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(walls),
        "cpu_s": statistics.median(rep["cpu_s"] for rep in reps),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_value,
        "speedup_err_pct": statistics.mean(
            checks.speedup_err_pct(rep["means"]) for rep in reps),
    }
    notes = {"reps": reps_n, "job_tail_percentile": tail_pct,
             "job_samples": len(walls), "setup_samples": setup}
    return {"metrics": metrics, "notes": notes}


def batch_traced(procs: Procs, work: Path, workload: str, seed: int,
                 totals: checks.Ledger) -> dict:
    plain = one_rep(procs, work, workload, seed, 0)
    trace_dir = work / "trace"
    steal_before = steal_s()
    traced = one_rep(procs, work, workload, seed, 1, trace_dir)
    steal = steal_s() - steal_before
    for rep in (plain, traced):
        totals.merge(rep["ledger"])
    spans = tracer.with_self_times(tracer.load_spans(trace_dir))
    metrics = layers.zeroed()
    metrics.update(layers.model_layers(spans))
    metrics["store.rows"] = traced.get("store_rows", 0)
    loose = layers.unattributed(spans, traced["pid"])
    wall = traced["wall_s"]
    metrics["unattributed_s"] = loose["total"]
    metrics["unattributed_pct"] = 100.0 * loose["total"] / wall
    metrics["unattributed_worker_max_s"] = max(loose["workers"].values(),
                                               default=0.0)
    metrics["trace_overhead_pct"] = 100.0 * (wall / plain["wall_s"] - 1.0)
    metrics["host.steal_s"] = steal
    notes = {"traced_wall_s": wall, "untraced_wall_s": plain["wall_s"],
             "unattributed_per_worker_s": loose["workers"]}
    return {"metrics": metrics, "notes": notes, "spans": spans}


# -- serve: a server process driven by the open-loop client -------------------


class Server:
    """One ``starnuma serve`` process with its own journal and cache."""

    def __init__(self, procs: Procs, work: Path, name: str,
                 trace_dir: Optional[Path] = None) -> None:
        self.procs = procs
        self.dir = work / name
        self.dir.mkdir()
        self.sock = str((self.dir / "s.sock").relative_to(procs.root))
        serve_args = ["--uds", self.sock,
                      "--journal", str(self.dir / "journal.jsonl"),
                      "--cache-dir", str(self.dir / "cache"),
                      "--workers", str(len(os.sched_getaffinity(0)))]
        if trace_dir is None:
            argv = [python(), "-m", "repro", "serve", *serve_args]
        else:
            argv = [python(), str(HERE / "workload.py"), "serve-server",
                    str(trace_dir), *serve_args]
        self.started = time.monotonic()
        self.proc = procs.start(argv, self.dir / "server.log",
                                stdout=subprocess.DEVNULL)

    def wait_healthy(self, timeout: float = 60.0) -> float:
        """Seconds from process start until ``/healthz`` answers 200."""
        deadline = self.started + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            try:
                status, _ = loadgen.request(self.sock, "GET", "/healthz",
                                            timeout=2.0)
                if status == 200:
                    return time.monotonic() - self.started
            except OSError:
                pass
            time.sleep(0.005)
        raise BenchError(f"server never became healthy; see "
                         f"{self.dir / 'server.log'}")

    def stop(self):
        """SIGTERM (graceful drain), then (exit code, tree rusage)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.procs.reap(self.proc, 30)


def serve_setup_sample(procs: Procs, work: Path, counter: List[int]) -> float:
    counter[0] += 1
    server = Server(procs, work, f"setup-{counter[0]}")
    try:
        return server.wait_healthy()
    finally:
        server.stop()


def serve_once(procs: Procs, work: Path, name: str, seed: int,
               seconds: int, totals: checks.Ledger,
               trace_dir: Optional[Path] = None) -> dict:
    digests = json.loads((HERE / "refs" / "serve_digests.json").read_text())
    subs = loadgen.schedule(seed, loadgen.rounds_for(seconds))
    server = Server(procs, work, name, trace_dir)
    server.wait_healthy()
    cpu_ready = proc_cpu_s(server.proc.pid)
    steal_before = steal_s()
    seen = loadgen.drive(server.sock, subs, digests, totals)
    steal = steal_s() - steal_before
    _, stats = loadgen.request(server.sock, "GET", "/v1/stats")
    code, usage = server.stop()
    if code != 0:
        raise BenchError(f"server exited {code}; see {server.dir}")
    return {"seen": seen, "stats": stats, "subs": subs, "steal_s": steal,
            "cpu_s": rusage_cpu(usage) - cpu_ready,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "pid": server.proc.pid}


def served_means(results: Dict[str, dict]) -> Dict[str, float]:
    """Fig. 8 and Fig. 10 means rebuilt from single-workload jobs."""
    by_experiment: Dict[str, List[dict]] = {}
    for key, result in sorted(results.items()):
        experiment = key.split("|")[0]
        by_experiment.setdefault(experiment, []).append(result)
    means: Dict[str, float] = {}
    fig8 = by_experiment.get("fig8", [])
    if fig8:
        means.update(checks.fig8_errors(
            [row for r in fig8 for row in r["results"][0]["rows"]],
            [row for r in fig8 for row in r["results"][1]["rows"]]))
    fig10 = [r["results"][0] for r in by_experiment.get("fig10", [])]
    if fig10:
        merged = {"headers": fig10[0]["headers"],
                  "rows": [row for table in fig10 for row in table["rows"]]}
        means.update(checks.column_means(merged,
                                         checks.SWEEP_COLUMNS["fig10"]))
    return means


def serve_end_to_end(procs: Procs, work: Path, seed: int, seconds: int,
                     totals: checks.Ledger) -> dict:
    counter = [0]
    setup = setup_samples(lambda: serve_setup_sample(procs, work, counter))
    run = serve_once(procs, work, "run", seed, seconds, totals)
    seen = run["seen"]
    if not seen.latencies:
        raise BenchError("no served job completed")
    latencies = list(seen.latencies.values())
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": seen.last_observed - seen.first_due,
        "cpu_s": run["cpu_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_value,
        "speedup_err_pct": checks.speedup_err_pct(served_means(seen.results)),
    }
    notes = {"submissions": len(run["subs"]),
             "job_tail_percentile": tail_pct,
             "job_samples": len(latencies),
             "dispositions": seen.dispositions, "setup_samples": setup,
             "steal_s": run["steal_s"]}
    return {"metrics": metrics, "notes": notes}


def serve_traced(procs: Procs, work: Path, seed: int, seconds: int,
                 totals: checks.Ledger) -> dict:
    plain = serve_once(procs, work, "plain", seed, seconds, totals)
    trace_dir = work / "trace"
    run = serve_once(procs, work, "traced", seed, seconds, totals, trace_dir)
    spans = tracer.with_self_times(tracer.load_spans(trace_dir))
    seen, stats = run["seen"], run["stats"]
    metrics = layers.zeroed()
    metrics.update(layers.model_layers(spans))
    metrics["serve.submit_p50_ms"] = layers.median_or_zero(
        seen.submit_ms.get("accepted", []))
    metrics["serve.cached_p50_ms"] = layers.median_or_zero(
        seen.submit_ms.get("cached", []))
    metrics["serve.queue_wait_p50_s"] = layers.median_or_zero(
        layers.queue_waits(spans))
    cache = stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    metrics["serve.cache_hit_ratio"] = (cache.get("hits", 0) / lookups
                                        if lookups else 0.0)
    metrics["serve.coalesced"] = stats.get("coalesced", 0)
    admission = stats.get("admission", {})
    metrics["serve.shed"] = sum(value for key, value in admission.items()
                                if key.startswith("shed_"))
    metrics["serve.started"] = stats.get("started", 0)
    metrics["client.late_p50_s"] = layers.median_or_zero(seen.late)
    metrics["client.late_max_s"] = max(seen.late, default=0.0)
    metrics["host.steal_s"] = run["steal_s"]
    loose = layers.unattributed(spans, run["pid"])
    wall = seen.last_observed - seen.first_due
    metrics["unattributed_s"] = loose["total"]
    metrics["unattributed_pct"] = 100.0 * loose["total"] / wall
    metrics["unattributed_worker_max_s"] = max(loose["workers"].values(),
                                               default=0.0)
    # The schedule fixes serve's wall time, so the overhead is measured
    # on the CPU time of the server and its job workers.
    metrics["trace_overhead_pct"] = 100.0 * (run["cpu_s"] / plain["cpu_s"]
                                             - 1.0)
    notes = {"traced_cpu_s": run["cpu_s"], "untraced_cpu_s": plain["cpu_s"],
             "unattributed_per_worker_s": loose["workers"],
             "dispositions": seen.dispositions}
    return {"metrics": metrics, "notes": notes, "spans": spans}


# -- report -------------------------------------------------------------------


def layer_table(spans: List[dict]) -> List[str]:
    """Self time, total time and calls per span name, by self time."""
    rows: Dict[str, List[float]] = {}
    for span in spans:
        row = rows.setdefault(span["name"], [0.0, 0.0, 0])
        row[0] += span["self"]
        row[1] += span["dur"]
        row[2] += 1
    lines = [f"{'span':28s} {'self_s':>10s} {'total_s':>10s} {'calls':>7s}"]
    for name, (own, total, calls) in sorted(rows.items(),
                                            key=lambda item: -item[1][0]):
        lines.append(f"{name:28s} {own:10.3f} {total:10.3f} {calls:7d}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig8", "sweep", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout holding "
              "src/repro", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _watchdog)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(WATCHDOG_S)

    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    procs = Procs(root)
    totals = checks.Ledger()
    steal_before = steal_s()
    try:
        context = run_context(procs, work)
        if args.workload == "serve":
            run = (serve_traced if args.trace else serve_end_to_end)(
                procs, work, args.seed, args.seconds, totals)
        elif args.trace:
            run = batch_traced(procs, work, args.workload, args.seed, totals)
        else:
            run = batch_end_to_end(procs, work, args.workload, args.seed,
                                   args.seconds, totals)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        _print_logs(work)
        return 1
    finally:
        signal.alarm(0)
        procs.stop_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass

    notes = run["notes"]
    notes["steal_s"] = steal_s() - steal_before
    notes["context"] = context
    if args.trace:
        run["metrics"]["host.probe_s"] = context["host_probe_s"]
    notes["failures"] = totals.details
    if "spans" in run:
        print("\n".join(layer_table(run["spans"])))
    print("notes " + json.dumps(notes, sort_keys=True))

    units = layers.UNITS if args.trace else E2E_UNITS
    if args.trace:
        run["metrics"]["failed_ratio"] = totals.failed / max(1,
                                                             totals.attempted)
    result = {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": float(run["metrics"][name]),
                           "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def _watchdog(signum, frame):
    raise BenchError(f"run exceeded {WATCHDOG_S} s")


def _terminated(signum, frame):
    raise BenchError("terminated")


def _print_logs(work: Path) -> None:
    for log in sorted(work.rglob("*.log")):
        text = log.read_text(errors="replace")[-2000:]
        if text.strip():
            print(f"--- {log.name}\n{text}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
