"""Open-loop load generator for the ``serve`` workload.

One process, two threads (the submitter and one poller), at most one
open connection each. Submissions go out on a fixed schedule whatever
the server's state, each from its own user (``X-Client-Id``), so the
per-client cap never binds. Every request is timed from when it was
due, so a stall also delays what was scheduled behind it.

Each round submits every (experiment, workload) pair of
:data:`EXPERIMENTS` x :data:`WORKLOADS` once, plus
:data:`REPEATS` repeats of earlier submissions: half of the one just
before (usually still running, so coalesced) and half of one at least
nine slots, about 11 s, back (usually finished, so a cache read). Repeats are a quarter
of all submissions, well away from one half, so the median and tail
fall among computed jobs rather than between millisecond hits and
second-long computes.

A round is three passes, one per experiment, each submitting all eight
workloads in the cost pattern of :data:`PATTERN`, so heavy jobs never
bunch up and every run offers the same load profile. Where jobs queue
behind each other, bunching would move the median by more than any
change to the program. The scenario seeds rotate over the pairs, so
each of the four serves six jobs of a round: a job's cost depends on
its seed, and one seed per run moved the median by a third between
runs. The benchmark seed picks the rotation, the order of the
experiments, which workload of a cost class fills each slot, and the
repeat targets.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import ledger as checks

EXPERIMENTS = ("fig8", "fig10", "table3")
#: The workloads by the measured cost of one single-workload job:
#: about 1.7-2.0 s, 1.1-1.4 s and 0.2-0.8 s on one core.
COST_CLASSES = {"heavy": ("sssp", "masstree", "tc"),
                "medium": ("bfs", "cc"),
                "light": ("fmi", "tpcc", "poa")}
WORKLOADS = tuple(name for names in COST_CLASSES.values() for name in names)
#: Slot order of one pass: heavy jobs alternate with lighter ones.
PATTERN = ("heavy", "light", "medium", "heavy", "light", "medium",
           "heavy", "light")
#: Scenario seeds a round may use; the reference digests cover all.
SCENARIO_SEEDS = (1, 2, 3, 4)
#: Fixed arrival spacing. 32 submissions of which 24 compute, at about
#: 1.5 s of worker time each, keep two workers about 40% busy. Denser
#: arrivals overlap more jobs, and two jobs with their BLAS threads on
#: two vCPUs slow each other by an amount that follows the host's
#: drift: at 0.9 s and 1.2 s the median moved by up to a third from
#: run to run on a 2-vCPU VM; see README.md.
INTERVAL_S = 1.5
REPEATS = 8
ROUND_SUBMISSIONS = len(EXPERIMENTS) * len(WORKLOADS) + REPEATS
#: Poll period for every outstanding job, well inside the server's
#: 10 s linger lease, so no job is cancelled for lack of interest.
POLL_S = 0.1
#: A submission not settled this long after it was due timed out.
TIMEOUT_S = 120.0
TERMINAL = {"completed", "failed", "cancelled", "quarantined"}


def scenario_key(experiment: str, workload: str, seed: int) -> str:
    return f"{experiment}|{workload}|{seed}"


@dataclass
class Submission:
    index: int
    due_s: float
    experiment: str
    workload: str
    seed: int
    repeat: bool

    @property
    def key(self) -> str:
        return scenario_key(self.experiment, self.workload, self.seed)

    def body(self) -> dict:
        return {"experiment": self.experiment, "seed": self.seed,
                "workloads": [self.workload]}


def rounds_for(seconds: float) -> int:
    """Whole rounds that fit in ``seconds`` (at least one)."""
    per_round = ROUND_SUBMISSIONS * INTERVAL_S
    return max(1, min(len(SCENARIO_SEEDS), int(seconds // per_round)))


def schedule(seed: int, rounds: int) -> List[Submission]:
    """The submissions of one run, a pure function of the seed."""
    rng = random.Random(seed)
    rotation = rng.randrange(len(SCENARIO_SEEDS))
    out: List[Submission] = []
    for round_index in range(rounds):
        def seed_of(experiment: str, workload: str) -> int:
            # Latin square: balanced within a round, and no pair meets
            # the same seed in two rounds.
            slot = (EXPERIMENTS.index(experiment) + WORKLOADS.index(workload)
                    + rotation + round_index) % len(SCENARIO_SEEDS)
            return SCENARIO_SEEDS[slot]

        pairs = []
        for experiment in rng.sample(EXPERIMENTS, len(EXPERIMENTS)):
            classes = {cost: rng.sample(names, len(names))
                       for cost, names in COST_CLASSES.items()}
            pairs += [(experiment, classes[cost].pop()) for cost in PATTERN]
        pairs.reverse()
        fresh: List[Submission] = []
        for slot in range(ROUND_SUBMISSIONS):
            index = len(out)
            due = index * INTERVAL_S
            if slot % 4 == 3:
                if (slot // 4) % 2 == 0:
                    target = fresh[-1]
                else:
                    back = [s for s in fresh if s.index <= index - 9]
                    target = rng.choice(back[-4:] or fresh[:1])
                out.append(Submission(index, due, target.experiment,
                                      target.workload, target.seed, True))
            else:
                experiment, workload = pairs.pop()
                sub = Submission(index, due, experiment, workload,
                                 seed_of(experiment, workload), False)
                fresh.append(sub)
                out.append(sub)
    return out


def result_check(digests: Dict[str, str], key: str):
    """The check of one served result against its reference digest."""
    def check(result: dict) -> Optional[str]:
        expected = digests.get(key)
        if expected is None:
            return f"no reference digest for {key}"
        if checks.digest(result) != expected:
            return f"result of {key} differs from its reference"
        return None
    return check


class _UnixConnection(http.client.HTTPConnection):
    def __init__(self, path: str, timeout: float) -> None:
        super().__init__("localhost", timeout=timeout)
        self._path = path

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self._path)
        self.sock = sock


def request(path: str, method: str, target: str,
            body: Optional[dict] = None, client: Optional[str] = None,
            timeout: float = 10.0):
    """One HTTP request over the server's Unix socket: (status, json)."""
    conn = _UnixConnection(path, timeout)
    try:
        headers = {"Content-Type": "application/json"}
        if client is not None:
            headers["X-Client-Id"] = client
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, target, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, json.loads(data or b"{}")
    finally:
        conn.close()


@dataclass
class Drive:
    """What the client saw during one run."""

    latencies: Dict[int, float] = field(default_factory=dict)
    late: List[float] = field(default_factory=list)
    submit_ms: Dict[str, List[float]] = field(default_factory=dict)
    dispositions: Dict[str, int] = field(default_factory=dict)
    results: Dict[str, dict] = field(default_factory=dict)
    first_due: float = 0.0
    last_observed: float = 0.0


def drive(sock_path: str, subs: List[Submission], digests: Dict[str, str],
          ledger: checks.Ledger) -> Drive:
    """Submit ``subs`` on schedule and settle each one in ``ledger``."""
    seen = Drive()
    lock = threading.Lock()
    waiting: Dict[str, List[Submission]] = {}
    submitted = threading.Event()
    abandoned = threading.Event()
    start = time.monotonic() + 0.2
    seen.first_due = start

    def settle(sub: Submission, status: int, body: dict,
               observed: float) -> None:
        # Called with ``lock`` held: the ledger and ``seen`` are shared.
        before = ledger.failed
        ledger.http(f"job {sub.index} {sub.key}", status, body,
                    result_check(digests, sub.key))
        if ledger.failed == before:
            seen.latencies[sub.index] = observed - (start + sub.due_s)
            seen.results.setdefault(sub.key, body["result"])
        seen.last_observed = max(seen.last_observed, observed)

    def poll() -> None:
        while True:
            with lock:
                jobs = list(waiting)
                done = submitted.is_set() and not jobs
            if done or abandoned.is_set():
                return
            cycle = time.monotonic()
            for job in jobs:
                try:
                    status, body = request(sock_path, "GET",
                                           f"/v1/jobs/{job}")
                except OSError as exc:
                    status, body = 599, {"error": repr(exc)}
                observed = time.monotonic()
                with lock:
                    subs_of_job = waiting.get(job, [])
                    if status == 200 and body.get("state") not in TERMINAL:
                        expired = [s for s in subs_of_job if observed >
                                   start + s.due_s + TIMEOUT_S]
                        for sub in expired:
                            ledger.fail("timeout", f"job {sub.index}")
                            subs_of_job.remove(sub)
                        if not subs_of_job:
                            waiting.pop(job, None)
                        continue
                    waiting.pop(job, None)
                    for sub in subs_of_job:
                        settle(sub, status, body, observed)
            time.sleep(max(0.0, POLL_S - (time.monotonic() - cycle)))

    poller = threading.Thread(target=poll, name="poller")
    poller.start()
    try:
        for sub in subs:
            due = start + sub.due_s
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            seen.late.append(sent - due)
            try:
                status, body = request(sock_path, "POST", "/v1/jobs",
                                       sub.body(), client=f"user-{sub.index}")
            except OSError as exc:
                status, body = 599, {"error": repr(exc)}
            answered = time.monotonic()
            disposition = body.get("disposition", f"http-{status}")
            seen.dispositions[disposition] = \
                seen.dispositions.get(disposition, 0) + 1
            seen.submit_ms.setdefault(disposition, []).append(
                1000.0 * (answered - sent))
            with lock:
                if status in (200, 201) and body.get("state") not in TERMINAL:
                    waiting.setdefault(body["job"], []).append(sub)
                else:
                    settle(sub, status, body, answered)
    except BaseException:
        abandoned.set()
        raise
    finally:
        submitted.set()
        poller.join()
    return seen
