"""Traced stand-in for ``python -m hoq.cli``, used only by traced cli runs.

Usage: cli_child.py SPAWN_NS SPANS_PATH ARGS...

Records the interpreter start (from the parent's spawn time, SPAWN_NS on the
shared monotonic clock), the import of hoq.cli with the numpy import inside
it, and hoq.cli.run(ARGS) with the package's layers wrapped.  Writes the
spans to SPANS_PATH as one JSON list and exits with run's exit code.
"""

import time

STARTED_NS = time.perf_counter_ns()

import builtins  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tracing  # noqa: E402


def main() -> int:
    spawn_ns, spans_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tr = tracing.Tracer()
    tr.recording = True
    tr.close(tr.open(tr.name_id("cli.interpreter"), start=spawn_ns), end=STARTED_NS)

    numpy_id = tr.name_id("cli.numpy_import")
    original_import = builtins.__import__

    def timed_import(name, globals=None, locals=None, fromlist=(), level=0):
        if level == 0 and name.partition(".")[0] == "numpy" and "numpy" not in sys.modules:
            idx = tr.open(numpy_id)
            try:
                return original_import(name, globals, locals, fromlist, level)
            finally:
                tr.close(idx)
        return original_import(name, globals, locals, fromlist, level)

    idx = tr.open(tr.name_id("cli.import"))
    builtins.__import__ = timed_import
    try:
        import hoq.cli
    finally:
        builtins.__import__ = original_import
        tr.close(idx)

    tr.install()
    idx = tr.open(tr.name_id("cli.run"))
    try:
        code = hoq.cli.run(argv)
    finally:
        tr.close(idx)
        sys.stdout.flush()
        rows = list(tr.rows())
        Path(spans_path).write_text(json.dumps(rows), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
