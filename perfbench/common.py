"""Pieces shared by the workloads: operations, outcomes, seeding, statistics."""

from __future__ import annotations

import hashlib
import math
import random
import zlib
from dataclasses import dataclass
from typing import Any, Callable

# Outcome of checking one answer against its known answer.
OK = "ok"
WRONG = "wrong"        # a wrong answer that no documented defect explains
DEFECT = "defect"      # a wrong answer of a documented defect of this commit
FAILED = "failed"      # the call raised or ran past OP_TIMEOUT_S

# An operation that takes longer than this counts as timed out.
OP_TIMEOUT_S = 60.0

# Percentiles the tail latency may be reported at; the highest one that
# leaves at least TAIL_MIN_BEYOND samples above it is used.
TAIL_GRID = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Op:
    """One closed-loop operation: a timed call into hoq and its known answer.

    ``run`` is the only part that is timed.  ``check`` receives its result
    and returns ``(outcome, detail)`` with outcome OK, WRONG or DEFECT; for a
    DEFECT the detail names the documented defect.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, str]]
    inputs: tuple = ()


def digest(ops: list[Op]) -> str:
    """Hash of the kinds and inputs of a list of operations."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.kind.encode())
        for item in op.inputs:
            h.update(item.tobytes() if hasattr(item, "tobytes") else repr(item).encode())
    return h.hexdigest()


def spread(light: list[Op], heavy: list[Op]) -> list[Op]:
    """The light operations in even runs between the heavy ones.  A round's
    time goes to its heavy operations, so this way the light ones sample the
    host's speed all through the round instead of at one moment of it."""
    if not heavy:
        return light
    out: list[Op] = []
    for i, op in enumerate(heavy):
        out += light[i * len(light) // len(heavy):(i + 1) * len(light) // len(heavy)]
        out.append(op)
    return out


def ok() -> tuple[str, str]:
    return OK, ""


def expect(condition: bool, detail: str) -> tuple[str, str]:
    return (OK, "") if condition else (WRONG, detail)


def stream_key(workload: str, seed: int, round_idx: int, warm: bool) -> list[int]:
    """Entropy for one round's inputs; the warm-up pass draws from its own
    stream, disjoint from every timed round of every seed."""
    return [zlib.crc32(workload.encode()), int(seed), int(round_idx), 1 if warm else 0]


def py_rng(key: list[int]) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return float("nan")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float:
    """Highest grid percentile with at least TAIL_MIN_BEYOND samples above it."""
    for p in TAIL_GRID:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p
    return 50.0


def median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    if n == 0:
        return float("nan")
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2
