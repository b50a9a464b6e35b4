"""Smoke runs of the scripts, and the package's export lists."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hoq

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_comb_hierarchy_sweep_agrees_at_every_size():
    proc = run_script("comb_hierarchy_sweep.py", "--max-n", "3")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    assert all(row[-1] == "yes" for row in rows)


def test_inverse_nogo_finds_no_match():
    proc = run_script("inverse_nogo.py")
    assert proc.returncode == 1, proc.stderr
    assert "no matches" in proc.stdout
    assert "exhausted: True" in proc.stdout


def test_nonsignalling_demo_runs():
    proc = run_script("nonsignalling_demo.py", "--samples", "100", "--iterations", "50")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "module",
    ["hoq"] + sorted(f"hoq.{m.name}" for m in pkgutil.iter_modules(hoq.__path__)),
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
