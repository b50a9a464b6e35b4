"""One benchmark process: set up, then run one workload as a closed loop.

Started by run.py in a fresh interpreter, so the package's caches start
empty.  Modes:

* ``setup``   imports hoq and runs the warm-up pass, then reports its time;
* ``measure`` does the same, then runs ``--rounds`` rounds of operations;
* ``trace``   like ``measure`` with the span tracer installed after set-up.

The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import tracer as tracing
from common import DEFECT, FAILED, OK, OP_TIMEOUT_S, WRONG

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> (module of the benchmark, hoq modules imported during set-up)
_ALGEBRA = ("hoq.type_ast", "hoq.subspace_algebra", "hoq.semantics")
WORKLOADS = {
    "exact": ("wl_exact", _ALGEBRA + ("hoq.comb_toolkit", "hoq.inverse_search")),
    "membership": ("wl_membership", _ALGEBRA + ("hoq.choi_numeric", "hoq.comb_toolkit")),
    "admissibility": ("wl_admissibility", _ALGEBRA + ("hoq.choi_numeric", "hoq.comb_toolkit")),
    "cli": ("wl_cli", ()),
}


class Context:
    """What an operation may need beyond its inputs: where to write files,
    and the tracer when this is a traced run."""

    def __init__(self, workdir: Path, tracer=None) -> None:
        self.root = ROOT
        self.workdir = workdir
        self.tracer = tracer


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--deadline", type=float, default=150.0,
                    help="stop starting operations after this many wall seconds")
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    wall0 = time.perf_counter()

    sys.path.insert(0, str(ROOT / "src"))
    impl, modules = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    for module in modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0
    wl = importlib.import_module(impl)

    workdir = Path(args.workdir).resolve()
    ctx = Context(workdir)
    warm_s, warm_errors = 0.0, 0
    for op in wl.warmup_ops(args.seed, ctx):
        t0 = time.perf_counter()
        try:
            op.run()
        except Exception:  # a broken call shows in the timed rounds
            warm_errors += 1
        warm_s += time.perf_counter() - t0
    result = {"import_s": import_s, "warmup_s": warm_s,
              "setup_s": import_s + warm_s, "warmup_errors": warm_errors}
    if args.mode == "trace":
        ctx.tracer = tracing.Tracer()
        ctx.tracer.install()
        ctx.tracer.recording = True  # from here on: input preparation and operations
    if args.mode != "setup":
        result.update(run_rounds(wl, args, ctx, wall0))
    if ctx.tracer is not None:
        ctx.tracer.recording = False
        spans_path = workdir / f"spans-{args.workload}.jsonl"  # the latest traced run
        ctx.tracer.write_jsonl(str(spans_path))
        metrics = tracing.layer_metrics(ctx.tracer.aggregate(), ctx.tracer.absent)
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["absent"] = sorted(ctx.tracer.absent)
        result["spans_file"] = str(spans_path)
        result["span_count"] = len(ctx.tracer.col_name)
    result["peak_rss_mb"] = _peak_rss_mb(args.workload)
    result["numpy"] = getattr(sys.modules.get("numpy"), "__version__", "not imported")
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_rounds(wl, args, ctx: Context, wall0: float) -> dict:
    lat_ns: list[int] = []
    kinds: list[str] = []
    outcomes = {OK: 0, WRONG: 0, DEFECT: 0, FAILED: 0}
    defects: dict[str, int] = {}
    examples: list[str] = []
    busy_ns = 0
    rounds = 0
    truncated = False
    tracer = ctx.tracer
    while rounds < args.rounds and not truncated:
        ops = wl.make_round(args.seed, rounds, ctx)
        for op in ops:
            if time.perf_counter() - wall0 > args.deadline:
                truncated = True
                break
            op_id = len(lat_ns)
            span = tracer.begin_op(op_id) if tracer is not None else -1
            error = None
            t0 = time.perf_counter_ns()
            try:
                got = op.run()
            except Exception as exc:  # counted as a failed operation
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.end_op(span, t0, t1)
            dt = t1 - t0
            lat_ns.append(dt)
            kinds.append(op.kind)
            busy_ns += dt
            if error is None and dt > OP_TIMEOUT_S * 1e9:
                error = f"timed out after {dt / 1e9:.1f} s"
            if error is not None:
                outcome, detail = FAILED, error
            else:
                outcome, detail = op.check(got)
            outcomes[outcome] += 1
            if outcome == DEFECT:
                defects[detail] = defects.get(detail, 0) + 1
            elif outcome != OK and len(examples) < 5:
                examples.append(f"{op.kind}: {detail}")
        rounds += 0 if truncated else 1
    return {"lat_ns": lat_ns, "kinds": kinds, "outcomes": outcomes,
            "defects": defects, "examples": examples, "rounds": rounds,
            "busy_s": busy_ns / 1e9, "wall_s": time.perf_counter() - wall0,
            "truncated": truncated}


if __name__ == "__main__":
    sys.exit(main())
