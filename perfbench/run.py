"""Benchmark of hoq: four closed-loop workloads with known-answer checks.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Run from the root of a checkout; the package is loaded from ``src/``.  Each
workload runs in fresh interpreters with one client: a closed loop that sends
the next call into hoq only when the previous one has returned, and checks
every answer against a known answer.  A run is a fixed number of rounds of a
fixed operation mix, sized from ``--seconds`` (see ROUNDS_PER_SECOND).  Workloads: exact (type algebra),
membership (check/sample deterministic, sides 4-256), admissibility
(check_admissible and max_admissible_scale, sides 2-16) and cli (``python -m
hoq.cli`` processes).

With ``--trace 0`` the last line holds the end-to-end metrics:

* ops_per_s        operations per second of timed calls, at the round mix
* latency_p50_ms   median operation latency
* latency_tail_ms  latency at the highest of the percentiles 99.9, 99, 90,
                   75 and 50 that leaves at least 10 samples above it
* ok_share         share of operations answered right; 1 - fail_share
* setup_s          hoq imports plus a warm-up pass on inputs of a disjoint
                   stream, median over fresh processes (SETUP_REPEATS)
* peak_rss_mb      peak resident memory of the process running the workload
                   (for cli, the largest ``hoq.cli`` process)

With ``--trace 1`` a traced process runs the same rounds with spans around
hoq's public functions, and the last line holds the per-layer metrics plus
trace.overhead_share, the traced slowdown against an untraced run of the
same rounds.  The line before the last one holds the details: sample counts,
the tail percentile, fail_share with its counts and documented defects, and
the environment.

``correct`` is false when an answer is wrong in a way no documented defect of
this commit explains; documented defects count in fail_share.  ``failed``
counts calls that raised or timed out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    DEFECT, FAILED, WRONG, median, percentile, tail_percentile)

WORKLOADS = ("exact", "membership", "admissibility", "cli")
# A run is a fixed number of rounds: --seconds times these rates.  A run thus
# does the same work whatever the speed of the host, so sample counts, tail
# percentiles and the index-set cache that exact fills stay comparable.  At
# --seconds 20 on a shared 2-core x86 machine the timed calls of a run take
# about 15 s (exact), 22 s (membership) and 27-34 s (cli, admissibility).
# The host's speed drifts by 10-20% over spells of ten seconds or so, most of
# all for membership's side-256 calls, so a run has to span several spells.
ROUNDS_PER_SECOND = {"exact": 22.5, "membership": 0.8, "admissibility": 0.15, "cli": 0.45}
# Fresh processes whose set-up time is measured; setup_s is their median.
# The set-up of cli runs 13 processes, so it is averaged already.
SETUP_REPEATS = {"exact": 5, "membership": 5, "admissibility": 5, "cli": 3}
BLAS_THREADS = 1
TIME_BUDGET_S = 165.0


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    # glibc would hand every large numpy buffer back to the kernel when it is
    # freed and fault it in again on the next call: at side 256 that was half
    # of membership's time, spent in the kernel, and it varied with the load
    # of the shared host.  Keeping freed memory in the process removes it.
    env["MALLOC_MMAP_THRESHOLD_"] = str(256 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 30)
    env["MALLOC_TOP_PAD_"] = str(64 << 20)
    return env


def _revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Runner:
    def __init__(self, seed: int, seconds: float, workdir: Path, budget_s: float) -> None:
        self.seed, self.seconds, self.workdir = seed, seconds, workdir
        self.ends = time.perf_counter() + budget_s

    def remaining(self) -> float:
        return self.ends - time.perf_counter()

    def worker(self, workload: str, mode: str, share: float = 1.0) -> dict:
        """Run one worker process and return its result; ``share`` of the
        remaining time budget bounds how long it may start operations."""
        rounds = max(1, round(ROUNDS_PER_SECOND[workload] * self.seconds))
        out = self.workdir / f"result-{workload}-{mode}.json"
        out.unlink(missing_ok=True)
        deadline = max(5.0, self.remaining() * share - 5.0)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(self.seed), "--rounds", str(rounds), "--mode", mode,
               "--deadline", f"{deadline:.1f}",
               "--workdir", str(self.workdir), "--out", str(out)]
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=max(10.0, self.remaining()))
        if proc.returncode != 0 or not out.exists():
            raise RuntimeError(f"{workload} {mode} worker exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(out.read_text(encoding="utf-8"))


def _counts(res: dict) -> dict:
    outcomes = res["outcomes"]
    attempted = len(res["lat_ns"])
    bad = outcomes[WRONG] + outcomes[DEFECT] + outcomes[FAILED]
    return {"attempted": attempted, "failed": outcomes[FAILED], "wrong": outcomes[WRONG],
            "documented_defects": res["defects"], "fail_share": bad / attempted if attempted else 1.0,
            "examples": res["examples"]}


def end_to_end(res: dict, setups: list[float]) -> tuple[dict, dict]:
    lat_ms = sorted(ns / 1e6 for ns in res["lat_ns"])
    n = len(lat_ms)
    p_tail = tail_percentile(n)
    counts = _counts(res)
    metrics = {
        "ops_per_s": (n / res["busy_s"], "ops/s"),
        "latency_p50_ms": (median(lat_ms), "ms"),
        "latency_tail_ms": (percentile(lat_ms, p_tail), "ms"),
        "ok_share": (1.0 - counts["fail_share"], "ratio"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    per_kind: dict[str, list] = {}
    for kind, ns in zip(res["kinds"], res["lat_ns"]):
        per_kind.setdefault(kind, []).append(ns / 1e6)
    details = {"samples": n, "rounds": res["rounds"], "busy_s": res["busy_s"],
               "tail_percentile": p_tail,
               "samples_beyond_tail": sum(1 for v in lat_ms if v > metrics["latency_tail_ms"][0]),
               "setup_samples_s": setups, "import_s": res["import_s"],
               "warmup_s": res["warmup_s"], "truncated": res["truncated"], **counts,
               "per_kind_mean_ms": {k: sum(v) / len(v) for k, v in per_kind.items()}}
    return metrics, details


def run_workload(runner: Runner, workload: str, trace: bool) -> tuple[dict, dict, dict]:
    """Returns (metrics name -> (value, unit), details, counts of the last line)."""
    if not trace:
        setups = [runner.worker(workload, "setup", share=0.1)["setup_s"]
                  for _ in range(SETUP_REPEATS[workload] - 1)]
        res = runner.worker(workload, "measure", share=0.9)
        setups.append(res["setup_s"])
        metrics, details = end_to_end(res, setups)
    else:
        plain = runner.worker(workload, "measure", share=0.4)
        res = runner.worker(workload, "trace")
        # both runs execute the same operations in the same order; compare the
        # part both finished, should a deadline have cut one of them short
        common = min(len(plain["lat_ns"]), len(res["lat_ns"]))
        untraced_ns, traced_ns = sum(plain["lat_ns"][:common]), sum(res["lat_ns"][:common])
        metrics = {k: (v["value"], v["unit"]) for k, v in res["layers"].items()}
        metrics["trace.overhead_share"] = (1.0 - untraced_ns / traced_ns, "ratio")
        details = {"samples": len(res["lat_ns"]), "rounds": res["rounds"],
                   "untraced_busy_s": untraced_ns / 1e9, "traced_busy_s": traced_ns / 1e9,
                   "span_count": res["span_count"], "spans_file": res["spans_file"],
                   "absent": res["absent"], **_counts(res),
                   "untraced_wrong": plain["outcomes"][WRONG]}
    details["numpy"] = res.get("numpy", "unknown")
    counts = {"correct": details["wrong"] == 0 and details.get("untraced_wrong", 0) == 0,
              "attempted": details["attempted"], "failed": details["failed"]}
    return metrics, details, counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "hoq" / "__init__.py").is_file():
        print(f"error: no hoq package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runner = Runner(args.seed, args.seconds, workdir, TIME_BUDGET_S * len(names))
    environment = {"revision": _revision(), "python": platform.python_version(),
                   "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS}

    final_metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:
        try:
            metrics, details, counts = run_workload(runner, name, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        environment["numpy"] = details.pop("numpy")
        print(json.dumps({"workload": name, "seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace, "environment": environment,
                          "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                          "details": details}))
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in metrics.items():
            final_metrics[prefix + key] = {"value": value, "unit": unit}
        correct = correct and counts["correct"]
        attempted += counts["attempted"]
        failed += counts["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": final_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
