"""Operation accounting and output checks shared by every workload.

Every operation a workload attempts goes through one :class:`Ledger`
exactly once, ending either ``ok`` or in one failure kind: it raised,
timed out, was shed (HTTP 429/503), was cancelled, or returned wrong
output. A result that deviates from the paper is not a failure; that
distance is ``speedup_err_pct``.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Callable, Dict, List, Optional, Sequence

FAILURE_KINDS = ("raised", "timeout", "shed", "cancelled", "wrong")

#: Relative tolerance of the reference comparisons. The model is
#: deterministic; the tolerance only absorbs last-bit differences
#: between BLAS kernels on other CPUs.
REL_TOL = 1e-9

#: Published means (paper, Figs. 8 and 10-12) the accuracy metric
#: compares against.
PAPER = {
    "fig8.t16_mean": 1.54, "fig8.t0_mean": 1.35, "fig8.t16_max": 2.17,
    "fig8.amat_reduction": 0.48,
    "fig10.100ns": 1.54, "fig10.190ns": 1.34,
    "fig11.iso_bw": 1.14, "fig11.starnuma": 1.54,
    "fig12.fifth": 1.54, "fig12.seventeenth": 1.48,
}


class Ledger:
    """Counts attempted operations and failures by kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Dict[str, int] = {kind: 0 for kind in FAILURE_KINDS}
        self.details: List[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str, detail: str) -> None:
        if kind not in self.failures:
            raise ValueError(f"unknown failure kind {kind!r}")
        self.attempted += 1
        self.failures[kind] += 1
        self.details.append(f"{kind}: {detail}")

    def run(self, name: str, call: Callable[[], object],
            check: Callable[[object], Optional[str]]) -> object:
        """Run one operation; ``check`` returns a complaint or None."""
        try:
            result = call()
        except TimeoutError as exc:
            self.fail("timeout", f"{name}: {exc!r}")
            return None
        except Exception as exc:  # noqa: BLE001 -- every raise counts
            self.fail("raised", f"{name}: {exc!r}")
            return None
        complaint = check(result)
        if complaint is None:
            self.ok()
        else:
            self.fail("wrong", f"{name}: {complaint}")
        return result

    def http(self, name: str, status: int, body: dict,
             check: Callable[[dict], Optional[str]]) -> None:
        """Settle one served request from its final status and body."""
        state = body.get("state")
        if status in (429, 503):
            self.fail("shed", f"{name}: HTTP {status}")
        elif status >= 400:
            self.fail("raised", f"{name}: HTTP {status} {body}")
        elif state == "cancelled":
            self.fail("cancelled", f"{name}: {body.get('error')}")
        elif state != "completed":
            self.fail("raised", f"{name}: job ended {state}: "
                                f"{body.get('error')}")
        else:
            complaint = check(body.get("result") or {})
            if complaint is None:
                self.ok()
            else:
                self.fail("wrong", f"{name}: {complaint}")

    def merge(self, counts: dict) -> None:
        """Add the :meth:`to_dict` counts of another process's ledger."""
        self.attempted += counts["attempted"]
        for kind, value in counts["failures"].items():
            self.failures[kind] += value
        self.details.extend(counts["details"])

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": dict(self.failures), "details": self.details}


# -- value comparison ---------------------------------------------------------


def close(a: object, b: object) -> bool:
    """Structural equality with a relative tolerance on floats."""
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    return a == b


def _rounded(value: object) -> object:
    if isinstance(value, float):
        return float(f"{value:.9e}")
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    return value


def digest(result: object) -> str:
    """Content digest of a served result, floats to ten digits."""
    canonical = json.dumps(_rounded(result), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def finite(value: object) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


# -- fig8 ---------------------------------------------------------------------


def check_fig8(tables: Dict[str, dict],
               reference: Optional[Dict[str, dict]]) -> Optional[str]:
    """Seed-independent checks on the three Fig. 8 tables, plus an exact
    comparison when a reference for this seed exists."""
    speedup, amat = tables["fig8a"], tables["fig8b"]
    for row in speedup["rows"]:
        if not all(finite(v) and v > 0 for v in row[1:]):
            return f"non-finite speedup in {row}"
        if row[0] == "poa" and not all(abs(v - 1.0) <= 0.02
                                       for v in row[1:]):
            return f"POA speedup not within 0.02 of 1.0: {row}"
    for row in amat["rows"]:
        for unloaded, contention, total in ((row[1], row[2], row[3]),
                                            (row[4], row[5], row[6])):
            if not math.isclose(unloaded + contention, total,
                                rel_tol=REL_TOL):
                return f"AMAT components do not sum to total: {row}"
    if reference is not None:
        for name, table in reference.items():
            if not close(tables.get(name), table):
                return f"{name} differs from the reference"
    return None


def fig8_errors(speedup_rows: Sequence[Sequence], amat_rows:
                Sequence[Sequence]) -> Dict[str, float]:
    t16 = [row[1] for row in speedup_rows]
    t0 = [row[2] for row in speedup_rows]
    reductions = [row[-1] for row in amat_rows]
    return {
        "fig8.t16_mean": sum(t16) / len(t16),
        "fig8.t0_mean": sum(t0) / len(t0),
        "fig8.t16_max": max(t16),
        "fig8.amat_reduction": sum(reductions) / len(reductions),
    }


def column_means(table: dict, columns: Dict[str, str]) -> Dict[str, float]:
    """Means of named columns of one exported table."""
    headers = list(table["headers"])
    out = {}
    for key, column in columns.items():
        index = headers.index(column)
        values = [row[index] for row in table["rows"]]
        out[key] = sum(values) / len(values)
    return out


SWEEP_COLUMNS = {
    "fig10": {"fig10.100ns": "speedup@100ns", "fig10.190ns": "speedup@190ns"},
    "fig11": {"fig11.iso_bw": "baseline_iso_bw",
              "fig11.starnuma": "starnuma"},
    "fig12": {"fig12.fifth": "speedup@0.200",
              "fig12.seventeenth": "speedup@0.059"},
}


def speedup_err_pct(measured: Dict[str, float]) -> float:
    """Mean of abs(measured - paper) / paper over the given means, %."""
    if not measured:
        raise ValueError("no published means to compare against")
    errors = [abs(value - PAPER[key]) / PAPER[key]
              for key, value in measured.items()]
    return 100.0 * sum(errors) / len(errors)
