"""Workload ``cli``: one ``python -m hoq.cli`` process at a time.

Every round runs 13 calls: parse, sem, equiv (true and false), comb delta,
comb lambda, check-det (yes and no), check-adm (yes, and a non-PSD matrix),
sample-det, and two malformed inputs that must exit 2: bad type syntax and a
matrix with a NaN entry.  A call is right when its exit code matches the
known answer and, for exit codes 0, 1 and 3, its stdout parses as strict JSON
that validates against the schema shipped in hoq/schemas/ and carries the
known answer.  At this commit check-det on the NaN matrix exits 1 and prints a
bare NaN: a documented defect.  A check-adm witness is judged as in the
admissibility workload.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

import mats
import oracle
import typegen as tg
from common import DEFECT, Op, expect, ok, py_rng, stream_key

NAME = "cli"
CALL_TIMEOUT_S = 60.0
DEFECT_NAN = "check-det accepts a non-finite matrix"

SCHEMAS = {
    "parse": "parse.schema.json",
    "sem": "sem.schema.json",
    "equiv": "equiv.schema.json",
    "check-det": "check_det.schema.json",
    "check-adm": "check_adm.schema.json",
    "sample-det": "matrix.schema.json",
    "comb delta": "comb_delta.schema.json",
    "comb lambda": "comb_lambda.schema.json",
}

CHANNEL = tg.arrow(tg.layer("A", 2), tg.layer("B", 2))
COMB_C = tg.arrow(CHANNEL, tg.layer("C", 2))


@lru_cache(maxsize=None)
def _validator(schema_dir: str, command: str):
    import jsonschema

    schema = json.loads((Path(schema_dir) / SCHEMAS[command]).read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(schema)


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _env(ctx) -> dict:
    env = dict(os.environ)
    src = str(ctx.root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _call_op(ctx, kind: str, argv: list[str], command: str, want_code,
             answer=None, defect=None) -> Op:
    """One process that must exit with ``want_code`` (an int, or a tuple of
    acceptable codes).  ``answer(payload)`` checks the JSON payload; ``defect``
    recognises the documented defect in a wrong call.  Input files named on
    the command line count among the inputs."""
    inputs = tuple(argv) + tuple(Path(a).read_bytes() for a in argv if a.endswith(".json"))
    schema_dir = str(ctx.root / "src" / "hoq" / "schemas")
    env = _env(ctx)

    def run():
        tr = ctx.tracer
        if tr is None:
            cmd = [sys.executable, "-m", "hoq.cli", *argv]
        else:
            spans = ctx.workdir / "cli-child-spans.json"
            cmd = [sys.executable, str(Path(__file__).resolve().parent / "cli_child.py"),
                   str(time.perf_counter_ns()), str(spans), *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=str(ctx.workdir), timeout=CALL_TIMEOUT_S)
        if tr is not None:
            returned = time.perf_counter_ns()
            rows = json.loads(spans.read_text(encoding="utf-8"))
            # from the child's last span to the parent seeing it exit
            rows.append({"name": "cli.shutdown", "parent": -1, "start": max(
                r["end"] for r in rows), "end": returned})
            tr.add_rows(rows, tr.stack[-1])
        return proc

    codes = want_code if isinstance(want_code, tuple) else (want_code,)

    def check(call: subprocess.CompletedProcess):
        if call.returncode not in codes:
            if defect is not None and defect(call):
                return DEFECT, DEFECT_NAN
            return expect(False, f"{' '.join(argv)}: exit {call.returncode}, want {want_code}; "
                                 f"{call.stderr.strip()[-200:]}")
        if codes == (2,):
            return expect(call.stdout == "", f"{' '.join(argv)}: output on a usage error")
        try:
            payload = strict_json(call.stdout)
        except ValueError as exc:
            return expect(False, f"{' '.join(argv)}: stdout is not strict JSON ({exc})")
        errors = list(_validator(schema_dir, command).iter_errors(payload))
        if errors:
            return expect(False, f"{' '.join(argv)}: schema: {errors[0].message[:200]}")
        return answer(payload) if answer is not None else ok()

    return Op(kind, run, check, inputs)


def _write_matrix(path: Path, mat: np.ndarray, dims) -> str:
    obj = {"dims": list(dims),
           "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in mat]}
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _is_nan_defect(call: subprocess.CompletedProcess) -> bool:
    """Exit 1 with a bare NaN in the report: not strict JSON."""
    if call.returncode != 1:
        return False
    try:
        strict_json(call.stdout)
    except ValueError:
        return "NaN" in call.stdout
    return False


def make_round(seed: int, idx: int, ctx, warm: bool = False) -> list[Op]:
    key = stream_key(NAME, seed, idx, warm)
    rng, nrng = py_rng(key), np.random.default_rng(key)
    files = ctx.workdir / "cli-inputs"
    files.mkdir(parents=True, exist_ok=True)
    ops = []

    x = tg.random_type(rng, 3)
    text = tg.render(x)
    dims = [d for _, d in tg.atoms(x)]
    ops.append(_call_op(ctx, "parse", ["parse", text], "parse", 0, lambda p: expect(
        p["canonical"] == text and p["dims"] == dims, f"parse {text}: {p}")))

    y = tg.random_type(rng, 2)
    y_text, lam = tg.render(y), tg.lambda_closed(y)
    nontrivial = [d for _, d in tg.atoms(y) if d > 1]
    ops.append(_call_op(ctx, "sem", ["sem", y_text], "sem", 0, lambda p: expect(
        p["lambda"] == str(lam) and p["dims"] == nontrivial, f"sem {y_text}: {p}")))

    ops.append(_call_op(ctx, "equiv_true", ["equiv", tg.render(tg.bar(tg.bar(y))), y_text],
                        "equiv", 0, lambda p: expect(p["equivalent"] is True, str(p))))
    grown = tg.render(tg.extend_by(y, ("Bystander", 2)))
    ops.append(_call_op(ctx, "equiv_false", ["equiv", y_text, grown], "equiv", 1,
                        lambda p: expect(p["equivalent"] is False, str(p))))

    n = 1 + idx % 4
    size = tg.COMB_DELTA_SIZES["A:2->B:2"][n]
    ops.append(_call_op(ctx, "comb_delta", ["comb", "delta", "--base", "A:2->B:2", "--n", str(n)],
                        "comb delta", 0, lambda p: expect(
                            len(p["strings"]) == size, f"comb delta n={n}: {len(p['strings'])}")))
    comb_lam = tg.lambda_closed(tg.comb(COMB_C, n))
    ops.append(_call_op(ctx, "comb_lambda",
                        ["comb", "lambda", "--base", "(A:2->B:2)->C:2", "--n", str(n)],
                        "comb lambda", 0, lambda p: expect(
                            p["lambda"] == str(comb_lam), f"comb lambda n={n}: {p}")))

    channel_text = tg.render(CHANNEL)
    yes = mats.choi(mats.kraus_channel(2, 2, 2, nrng))
    path = _write_matrix(files / "yes.json", yes, (2, 2))
    ops.append(_call_op(ctx, "check_det_yes", ["check-det", "--type", channel_text,
                                               "--matrix", path], "check-det", 0,
                        lambda p: expect(p["verdict"] is True, str(p))))
    path = _write_matrix(files / "random.json", mats.hermitian(4, nrng), (2, 2))
    ops.append(_call_op(ctx, "check_det_no", ["check-det", "--type", channel_text,
                                              "--matrix", path], "check-det", 1,
                        lambda p: expect(p["verdict"] is False, str(p))))

    root = mats.psd_sqrt(yes)
    k = mats.with_spectrum(np.concatenate([[1.0], nrng.uniform(0, 1, 3)]), nrng)
    bounded = root @ k @ root
    path = _write_matrix(files / "bounded.json", bounded, (2, 2))

    def dominating(p):
        if p["feasible"] != "yes" or p["witness"] is None:
            return expect(False, f"check-adm on a known yes: {p['feasible']}")
        w = np.array([[complex(*z) for z in row] for row in p["witness"]["matrix"]])
        return oracle.judge_witness(w, bounded, _hull("channel"), True)

    ops.append(_call_op(ctx, "check_adm_yes", ["check-adm", "--type", channel_text,
                                               "--matrix", path], "check-adm", 0, dominating))
    v = mats.unitary(4, nrng)[:, :1]
    dip = yes - (np.linalg.norm(yes, 2) + 0.1) * (v @ v.conj().T)
    path = _write_matrix(files / "non_psd.json", dip, (2, 2))
    # a "no" exits 3 (no certificate) at this commit; 1 is a certified "no"
    ops.append(_call_op(ctx, "check_adm_no", ["check-adm", "--type", channel_text,
                                              "--matrix", path], "check-adm", (1, 3),
                        lambda p: expect(p["feasible"] != "yes", str(p)[:200])))

    sample_seed = rng.randrange(2**31)

    def sampled(p):
        m = np.array([[complex(*z) for z in row] for row in p["matrix"]])
        resid, low = oracle.hull_residual(m, _hull("comb_c")), oracle.min_eig(m)
        return expect(p["dims"] == [2, 2, 2] and resid <= 1e-8 and low >= -1e-9,
                      f"sample-det: hull {resid:.2e}, min eig {low:.2e}")

    ops.append(_call_op(ctx, "sample_det", ["sample-det", "--type", tg.render(COMB_C),
                                            "--seed", str(sample_seed)], "sample-det", 0,
                        sampled))

    ops.append(_call_op(ctx, "bad_syntax", ["parse", text + "->("], "parse", 2))
    # the depolarizing channel with a NaN imaginary part on the diagonal: the
    # input that reproduces the documented defect
    nan = np.eye(4, dtype=complex) / 2
    nan[0, 0] = complex(0.5, math.nan)
    path = _write_matrix(files / "nan.json", nan, (2, 2))
    ops.append(_call_op(ctx, "non_finite", ["check-det", "--type", channel_text,
                                            "--matrix", path], "check-det", 2,
                        defect=_is_nan_defect))
    return ops


@lru_cache(maxsize=None)
def _hull(name: str):
    return oracle.hull(CHANNEL if name == "channel" else COMB_C)


def warmup_ops(seed: int, ctx) -> list[Op]:
    """One call of every kind, from the warm-up stream."""
    return make_round(seed, 0, ctx, warm=True)
