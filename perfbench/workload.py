"""The process under test: one fresh interpreter per measured run.

Usage (from the root of a checkout; ``run.py`` starts these)::

    python3 perfbench/workload.py context
    python3 perfbench/workload.py ready WORKLOAD --seed N
    python3 perfbench/workload.py rep fig8 --seed N --out FILE [--trace-dir DIR]
    python3 perfbench/workload.py rep sweep --seed N --out FILE --work DIR [--trace-dir DIR]
    python3 perfbench/workload.py serve-server TRACE_DIR SERVE_ARGS...

``context`` prints the versions and thread settings of the run as JSON.
``ready`` imports what the workload needs, builds its context, prints
``ready`` and exits: one set-up sample. ``rep`` does the same, then
runs and checks one repetition of the workload and writes its figures
to ``--out``. ``serve-server`` starts ``starnuma serve`` with the
layer tracer installed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import ledger as checks  # noqa: E402

SWEEP_EXPERIMENTS = ("fig10", "fig11", "fig12")
FIG8_REFERENCE = HERE / "refs" / "fig8_seed1.json"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host_probe_s() -> float:
    """Median time of a fixed NumPy-and-Python kernel owned by the
    benchmark. The program never runs it, so across runs it tracks only
    the host: a VM whose neighbours slow it reads high here too."""
    import numpy

    rng = numpy.random.default_rng(0)
    a, b = rng.random(200_000), rng.random(200_000)
    index = rng.integers(0, 200_000, 200_000)

    def kernel() -> float:
        start = time.perf_counter()
        for _ in range(20):
            c = (a * b + numpy.sqrt(a))[index]
            c.sort()
        counts: dict = {}
        for i in range(150_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        return time.perf_counter() - start

    kernel()
    return sorted(kernel() for _ in range(3))[1]


def run_context() -> dict:
    """Versions, thread settings and host speed, to compare runs by."""
    import numpy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # noqa: BLE001 -- informational only
        pass
    return {
        "nproc": nproc(),
        "threads_env": {name: os.environ.get(name)
                        for name in THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "host_probe_s": host_probe_s(),
    }


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _quiet_cli(argv):
    """Run one ``starnuma`` command in-process; return (code, stdout)."""
    from repro import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


# -- fig8 ---------------------------------------------------------------------


def prepare_fig8(seed: int):
    from repro.experiments import fig08
    from repro.experiments.context import ExperimentContext
    from repro.experiments.export import _flatten, result_to_dict

    context = ExperimentContext(seed=seed)
    return fig08, context, _flatten, result_to_dict


def rep_fig8(seed: int, ledger: checks.Ledger, timed) -> dict:
    fig08, context, flatten, to_dict = prepare_fig8(seed)
    reference = (json.loads(FIG8_REFERENCE.read_text())
                 if seed == 1 else None)
    print("ready", flush=True)
    found = {}

    def check(outcome) -> object:
        tables = {part.experiment: to_dict(part)
                  for part in flatten(outcome)}
        found["tables"] = tables
        return checks.check_fig8(tables, reference)

    start = time.monotonic()
    cpu_start = _cpu_self()
    timed(lambda: ledger.run("fig8", lambda: fig08.run(context), check))
    wall = time.monotonic() - start
    errors = {}
    if "tables" in found:
        errors = checks.fig8_errors(found["tables"]["fig8a"]["rows"],
                                    found["tables"]["fig8b"]["rows"])
    return {"wall_s": wall, "cpu_start_s": cpu_start, "means": errors}


# -- sweep --------------------------------------------------------------------


def prepare_sweep(seed: int):
    import repro.cli  # noqa: F401 -- the store commands run in-process
    from repro.experiments.context import ExperimentContext
    from repro.experiments.export import export_all

    return export_all, ExperimentContext(seed=seed)


def rep_sweep(seed: int, work: Path, ledger: checks.Ledger, timed) -> dict:
    export_all, context = prepare_sweep(seed)
    print("ready", flush=True)
    out_dir, db = work / "export", work / "store.sqlite"
    exported = {}

    def check_export(written) -> object:
        if sorted(written) != sorted(SWEEP_EXPERIMENTS):
            return f"exported {sorted(written)}"
        for experiment, stem in written.items():
            table = json.loads((out_dir / f"{stem}.json").read_text())
            if not all(checks.finite(v) and v > 0
                       for row in table["rows"] for v in row[1:]):
                return f"non-finite speedup in {experiment}"
            exported[experiment] = table
        return None

    def body() -> None:
        ledger.run("export", lambda: export_all(
            str(out_dir), context, list(SWEEP_EXPERIMENTS), jobs=nproc()),
            check_export)
        ledger.run("store ingest", lambda: _quiet_cli(
            ["store", "ingest", "--db", str(db), str(out_dir)]),
            lambda result: None if result[0] == 0 else f"exit {result[0]}")
        for experiment, table in exported.items():
            ledger.run(
                f"query table {experiment}",
                lambda experiment=experiment: _quiet_cli(
                    ["query", "--db", str(db), "--format", "json", "table",
                     experiment]),
                lambda result, table=table:
                None if result[0] == 0 and json.loads(result[1]) == table
                else "differs from the exported JSON")

    start = time.monotonic()
    cpu_start = _cpu_self()
    timed(body)
    wall = time.monotonic() - start

    means = {}
    for experiment, table in exported.items():
        means.update(checks.column_means(
            table, checks.SWEEP_COLUMNS[experiment]))
    store_rows = 0
    if db.exists():
        import sqlite3

        with contextlib.closing(sqlite3.connect(str(db))) as conn:
            store_rows = conn.execute(
                "SELECT COUNT(*) FROM run_rows").fetchone()[0]
    return {"wall_s": wall, "cpu_start_s": cpu_start, "means": means,
            "store_rows": store_rows}


# -- entry point --------------------------------------------------------------


def _tracer(trace_dir):
    if trace_dir is None:
        return None
    import tracer

    active = tracer.Tracer(Path(trace_dir))
    tracer.install(active)
    return active


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["context"]:
        print(json.dumps(run_context()))
        return 0
    if argv[:1] == ["serve-server"]:
        _tracer(argv[1])
        from repro import cli

        return cli.main(["serve", *argv[2:]])

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("ready", "rep"))
    parser.add_argument("workload", choices=("fig8", "sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--work")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    if args.mode == "ready":
        if args.workload == "fig8":
            prepare_fig8(args.seed)
        else:
            prepare_sweep(args.seed)
        print("ready", flush=True)
        return 0

    active = _tracer(args.trace_dir)
    ledger = checks.Ledger()

    def timed(body):
        return body()

    if active is not None:
        timed = active.wrap("bench.rep", timed)
    if args.workload == "fig8":
        figures = rep_fig8(args.seed, ledger, timed)
    else:
        figures = rep_sweep(args.seed, Path(args.work), ledger, timed)
    figures["ledger"] = ledger.to_dict()
    Path(args.out).write_text(json.dumps(figures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
