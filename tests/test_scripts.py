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
