"""The package's export lists, and the console script that pyproject.toml
declares under [project.scripts]."""

import importlib
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import hoq

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "module",
    ["hoq"] + sorted(f"hoq.{m.name}" for m in pkgutil.iter_modules(hoq.__path__)),
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_console_entry_point_runs(monkeypatch, capsys):
    # a regex, not tomllib: Python 3.10 has no TOML reader
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = r'^\[project\.scripts\]\s*^hoq = "([\w.]+):(\w+)"$'
    target = re.search(declared, pyproject, re.M)
    assert target, "pyproject.toml declares no hoq console script"
    entry = getattr(importlib.import_module(target[1]), target[2])
    monkeypatch.setattr(sys, "argv", ["hoq", "parse", "A:2->B:2"])
    with pytest.raises(SystemExit) as stop:
        entry()
    assert stop.value.code == 0
    assert json.loads(capsys.readouterr().out)["canonical"] == "A:2->B:2"
