"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

The smoke runs start the real harness with very short run lengths, so the
whole file takes a minute or two.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import common  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str) -> list[dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_inputs(name, tmp_path):
    impl = __import__(worker.WORKLOADS[name][0])
    ctx = worker.Context(tmp_path)
    first = [common.digest(impl.make_round(7, i, ctx)) for i in range(2)]
    again = [common.digest(impl.make_round(7, i, ctx)) for i in range(2)]
    other = common.digest(impl.make_round(8, 0, ctx))
    warm = common.digest(impl.warmup_ops(7, ctx))
    assert first == again
    assert first[0] != first[1]
    assert other != first[0]
    assert warm not in first


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (1, 20, 117, 174, 496, 8100):
        p = common.tail_percentile(n)
        values = list(range(n))
        beyond = sum(1 for v in values if v > common.percentile(values, p))
        assert beyond >= common.TAIL_MIN_BEYOND or p == 50.0


def test_smoke_prints_every_end_to_end_metric():
    lines = _run("--workload", "all", "--seed", "3", "--seconds", "0.2", "--trace", "0")
    details, last = lines[:-1], lines[-1]
    assert [d["workload"] for d in details] == WORKLOADS
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    for d in details:
        for metric in SPEC["end_to_end"]:
            got = d["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], float) and got["value"] > 0
            assert last["metrics"][f"{d['workload']}.{metric['name']}"] == got
        assert d["details"]["samples"] >= 1
        assert d["details"]["tail_percentile"] in common.TAIL_GRID


@pytest.mark.parametrize("name", ["exact", "cli"])
def test_traced_run_prints_every_per_layer_metric(name):
    *_, last = _run("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", "1")
    assert last["correct"] is True
    for metric in SPEC["per_layer"]:
        got = last["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    if name == "cli":
        assert last["metrics"]["cli.process_ms"]["value"] > 0


def test_missing_function_is_reported_absent():
    script = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import hoq.semantics, hoq.choi_numeric, hoq.inverse_search, hoq.comb_toolkit\n"
        "del hoq.semantics.find_alignment\n"
        "import tracer\n"
        "t = tracer.Tracer(); t.install()\n"
        "m = tracer.layer_metrics(t.aggregate(), t.absent)\n"
        "print(sorted(t.absent), m['semantics.find_alignment.calls'],"
        " m['semantics.upsilon.calls'])\n" % (str(BENCH), str(ROOT / "src"))
    )
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['semantics.find_alignment'] (None, 'count') (0, 'count')"


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
