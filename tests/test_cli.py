"""End-to-end command line checks: payloads, schemas, exit codes, formats."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hoq
from generators import nested_trivial
from hoq import cli, comb_toolkit, type_ast
from helpers import load_schema, save_matrix, schema_name
from hoq.choi_numeric import HermOp, check_deterministic, reorder_factors
from hoq.cli import run
from hoq.comb_toolkit import (
    CombSpec,
    check_comb_normalization,
    comb_equiv_permutation,
    expand_slot_perm,
    random_comb_choi,
)
from hoq.type_ast import parse_type


@pytest.fixture
def invoke(capsys):
    def call(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


def payload_of(out: str) -> dict:
    return json.loads(out)


def validated(out: str, command: str, mode=None) -> dict:
    payload = payload_of(out)
    jsonschema.validate(payload, load_schema(command, mode))
    return payload


def write_matrix(path, dims, matrix):
    save_matrix(str(path), HermOp(dims, np.asarray(matrix, dtype=complex)))
    return str(path)


def write_index_set(path, dims, strings):
    path.write_text(json.dumps({"dims": list(dims), "strings": strings}))
    return str(path)


# -- parse / sem / equiv ------------------------------------------------------


def test_parse_round_trip(invoke):
    code, out, err = invoke("parse", "A -> B*C -> I")
    assert code == 0 and err == ""
    payload = validated(out, "parse")
    assert payload == {
        "canonical": "A:2->(B:2*C:2->I)",
        "depth": 3,
        "dims": [2, 2, 2, 1],
        "total_dim": 8,
    }


def test_parse_rejects_reserved_dimension(invoke):
    code, out, err = invoke("parse", "A:1")
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_sem_channel(invoke):
    code, out, err = invoke("sem", "A:2->B:2")
    assert code == 0
    payload = validated(out, "sem")
    assert payload == {
        "delta": ["00", "10"],
        "delta_dimension": 12,
        "dims": [2, 2],
        "lambda": "1/2",
        "total_dim": 4,
        "type": "A:2->B:2",
    }


def test_sem_output_is_stable(invoke):
    first = invoke("sem", "(A:2->B:3)->(C:3->D:2)")
    second = invoke("sem", "(A:2->B:3)->(C:3->D:2)")
    assert first == second
    assert first[0] == 0


def test_equiv_double_dual(invoke):
    code, out, err = invoke("equiv", "((A:2->I)->I)", "A:2")
    assert code == 0
    payload = validated(out, "equiv")
    assert payload == {"equivalent": True, "permutation": [0]}


def test_equiv_failure_exit_code(invoke):
    code, out, err = invoke("equiv", "A:2", "A:3")
    assert code == 1
    assert validated(out, "equiv") == {"equivalent": False, "permutation": None}


def test_equiv_search_is_opt_in(invoke):
    left = "(A:2->(B:3->I))->I"
    right = "(B:3->(A:2->I))->I"
    code, out, _ = invoke("equiv", left, right)
    assert code == 1
    code, out, _ = invoke("equiv", left, right, "--search")
    assert code == 0
    assert validated(out, "equiv") == {"equivalent": True, "permutation": [1, 0]}
    code, out, _ = invoke("equiv", left, right, "--perm", "1,0")
    assert code == 0


# -- membership and feasibility ------------------------------------------------


def test_check_det_accepts_uniform(invoke, tmp_path):
    m = write_matrix(tmp_path / "u.json", (2, 2), 0.5 * np.eye(4))
    code, out, _ = invoke("check-det", "--type", "A:2->B:2", "--matrix", m)
    assert code == 0
    payload = validated(out, "check-det")
    assert payload["verdict"] is True
    assert payload["lambda_expected"] == "1/2"


def test_check_det_rejects_wrong_scale(invoke, tmp_path):
    m = write_matrix(tmp_path / "q.json", (2, 2), 0.25 * np.eye(4))
    code, out, _ = invoke("check-det", "--type", "A:2->B:2", "--matrix", m)
    assert code == 1
    payload = validated(out, "check-det")
    assert payload["verdict"] is False
    assert payload["lambda_measured"] == pytest.approx(0.25)


def test_check_det_takes_the_spectrum_only_inside_the_slice(invoke, tmp_path):
    # lambda is off, so the spectrum is never taken
    m = write_matrix(tmp_path / "q.json", (2, 2), 0.25 * np.eye(4))
    code, out, _ = invoke("check-det", "--type", "A:2->B:2", "--matrix", m)
    assert code == 1
    assert '"min_eigenvalue": null' in out
    assert validated(out, "check-det")["min_eigenvalue"] is None
    # inside the slice (SZ x SZ is in Delta), but not PSD
    sz = np.diag([1.0, -1.0])
    m = write_matrix(tmp_path / "n.json", (2, 2), 0.5 * np.eye(4) + 0.6 * np.kron(sz, sz))
    code, out, _ = invoke("check-det", "--type", "A:2->B:2", "--matrix", m)
    assert code == 1
    payload = validated(out, "check-det")
    assert payload["verdict"] is False
    assert payload["residual_outside_delta"] <= 1e-12
    assert payload["min_eigenvalue"] == pytest.approx(-0.1)


def test_check_det_dims_mismatch(invoke, tmp_path):
    m = write_matrix(tmp_path / "u.json", (2, 2), 0.5 * np.eye(4))
    code, out, err = invoke(
        "check-det", "--type", "(A:2->B:2)->C:2", "--matrix", m
    )
    assert code == 2 and "error:" in err


def test_check_det_tol_must_be_positive(invoke, tmp_path):
    m = write_matrix(tmp_path / "u.json", (2, 2), 0.5 * np.eye(4))
    code, _, err = invoke(
        "check-det", "--type", "A:2->B:2", "--matrix", m, "--tol", "-1"
    )
    assert code == 2


def test_check_adm_feasible(invoke, tmp_path):
    m = write_matrix(tmp_path / "u.json", (2, 2), 0.5 * np.eye(4))
    code, out, _ = invoke("check-adm", "--type", "A:2->B:2", "--matrix", m)
    assert code == 0
    payload = validated(out, "check-adm")
    assert payload["feasible"] == "yes"
    assert payload["witness"] is not None
    assert payload["final_distance"] <= 1e-6


def test_check_adm_no_certificate(invoke, tmp_path):
    m = write_matrix(tmp_path / "d.json", (2, 2), np.eye(4))
    code, out, _ = invoke(
        "check-adm",
        "--type",
        "A:2->B:2",
        "--matrix",
        m,
        "--max-iter",
        "500",
    )
    assert code == 3
    payload = validated(out, "check-adm")
    assert payload["feasible"] == "no_certificate"
    assert payload["witness"] is None


def test_check_adm_precheck_distance_is_null(invoke, tmp_path):
    m = write_matrix(tmp_path / "n.json", (2, 2), -0.5 * np.eye(4))
    code, out, _ = invoke("check-adm", "--type", "A:2->B:2", "--matrix", m)
    assert code == 3
    payload = validated(out, "check-adm")
    assert payload["final_distance"] is None
    assert payload["iterations"] == 0


def test_sample_det_reproducible(invoke):
    first = invoke("sample-det", "--type", "A:2->B:2", "--seed", "7")
    second = invoke("sample-det", "--type", "A:2->B:2", "--seed", "7")
    assert first == second and first[0] == 0
    payload = validated(first[1], "sample-det")
    assert payload["dims"] == [2, 2]


def test_sample_then_check_round_trip(invoke, tmp_path):
    code, out, _ = invoke(
        "sample-det", "--type", "(A:2->B:2)->C:2", "--seed", "3"
    )
    assert code == 0
    path = tmp_path / "s.json"
    path.write_text(out)
    code, out, _ = invoke(
        "check-det", "--type", "(A:2->B:2)->C:2", "--matrix", str(path)
    )
    assert code == 0


def test_oracle_det(invoke, tmp_path):
    m = write_matrix(tmp_path / "u.json", (2, 2), 0.5 * np.eye(4))
    code, out, _ = invoke(
        "oracle-det",
        "--type",
        "A:2",
        "--cotype",
        "B:2",
        "--matrix",
        m,
        "--samples",
        "5",
        "--seed",
        "1",
    )
    assert code == 0
    payload = validated(out, "oracle-det")
    assert payload == {"verdict": True, "samples": 5, "seed": 1}
    bad = write_matrix(tmp_path / "q.json", (2, 2), 0.25 * np.eye(4))
    code, out, _ = invoke(
        "oracle-det", "--type", "A:2", "--cotype", "B:2", "--matrix", bad
    )
    assert code == 1


# -- comb subcommand -------------------------------------------------------------


def test_comb_delta(invoke):
    code, out, _ = invoke("comb", "delta", "--base", "A:2->B:2", "--n", "2")
    assert code == 0
    payload = validated(out, "comb", "delta")
    assert payload["type"] == "(A:2->B:2)->(A:2->B:2)"
    assert payload["dims"] == [2, 2, 2, 2]
    sem = payload_of(invoke("sem", payload["type"])[1])
    assert payload["strings"] == sem["delta"]


def test_comb_lambda(invoke):
    code, out, _ = invoke("comb", "lambda", "--base", "A:2->B:2", "--n", "2")
    assert code == 0
    payload = validated(out, "comb", "lambda")
    assert payload["lambda"] == "1/4"


def test_comb_norm(invoke, tmp_path):
    m = write_matrix(tmp_path / "u.json", (2, 2, 2, 2), 0.25 * np.eye(16))
    code, out, _ = invoke(
        "comb", "norm", "--base", "A:2->B:2", "--n", "2", "--matrix", m
    )
    assert code == 0
    assert validated(out, "comb", "norm")["verdict"] is True
    bad = write_matrix(tmp_path / "b.json", (2, 2, 2, 2), np.eye(16))
    code, out, _ = invoke(
        "comb", "norm", "--base", "A:2->B:2", "--n", "2", "--matrix", bad
    )
    assert code == 1
    code, _, err = invoke("comb", "norm", "--base", "A:2->B:2", "--n", "2")
    assert code == 2 and "error:" in err


def test_comb_equiv_perm(invoke):
    code, out, _ = invoke("comb", "equiv-perm", "--base", "A:2->B:2", "--n", "2")
    assert code == 0
    payload = validated(out, "comb", "equiv-perm")
    assert payload == {
        "n": 2,
        "tooth_permutation": [2, 0, 1, 3],
        "factor_permutation": [2, 0, 1, 3],
    }
    code, out, _ = invoke(
        "comb", "equiv-perm", "--base", "A:2*B:2->C:3", "--n", "2"
    )
    assert code == 0
    payload = validated(out, "comb", "equiv-perm")
    assert payload["factor_permutation"] == [3, 4, 0, 1, 2, 5]
    code, _, err = invoke("comb", "equiv-perm", "--base", "A:2", "--n", "2")
    assert code == 2 and "error:" in err


def test_comb_answers_without_the_closed_forms(invoke, tmp_path, monkeypatch):
    # the closed forms are reference routes only: comb answers from the
    # recursion and from check_deterministic
    def refuse(*args, **kwargs):
        raise AssertionError("comb called a closed-form route")

    for name in ("comb_delta_closed", "comb_lambda_closed", "check_comb_normalization"):
        for module in (comb_toolkit, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    m = write_matrix(tmp_path / "u.json", (2, 2, 2, 2), 0.25 * np.eye(16))
    teeth = ("--base", "A:2->B:2", "--n", "2")
    code, out, _ = invoke("comb", "delta", *teeth)
    assert code == 0 and validated(out, "comb", "delta")["strings"]
    code, out, _ = invoke("comb", "lambda", *teeth)
    assert code == 0 and validated(out, "comb", "lambda")["lambda"] == "1/4"
    code, out, _ = invoke("comb", "norm", *teeth, "--matrix", m)
    assert code == 0 and validated(out, "comb", "norm")["verdict"] is True


_NORM_EPS = [10.0**-k for k in range(6, 12)]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tooth", ["A:2->B:2", "A:2->B:3", "A:3->B:2"])
def test_comb_norm_tolerance_is_check_dets(invoke, tmp_path, tooth, n):
    # comb norm decides as check-det does on the comb-ordered matrix: lambda
    # per unit trace, the residual outside Delta relative to max(1, ||R||_F)
    # and min eigenvalue >= -tol.  The telescoping route agrees away from
    # the tolerance edge; near it only the telescoping route rejects.
    spec = CombSpec.uniform(parse_type(tooth), n)
    r = random_comb_choi(spec, np.random.default_rng(7))
    perm = expand_slot_perm(comb_equiv_permutation(n), [1, 1] * n)
    back = sorted(range(2 * n), key=perm.__getitem__)
    first = np.zeros(r.dims[0])
    first[:2] = 1, -1
    tilt = np.kron(np.diag(first), np.eye(r.side // r.dims[0]))
    tilt /= np.linalg.norm(tilt)  # traceless on the first wire, unit norm
    inputs = [(0.0, r.matrix)]
    for eps in _NORM_EPS:
        inputs += [
            (eps, (1 + eps) * r.matrix),
            (eps, r.matrix + eps * tilt),
            (eps, r.matrix + eps * np.eye(r.side)),
        ]
    for i, (eps, matrix) in enumerate(inputs):
        m = write_matrix(tmp_path / f"{i}.json", r.dims, matrix)
        code, out, _ = invoke(
            "comb", "norm", "--base", tooth, "--n", str(n), "--matrix", m
        )
        verdict = validated(out, "comb", "norm")["verdict"]
        op = HermOp(r.dims, matrix)
        det = check_deterministic(reorder_factors(op, back), spec.derived)
        assert (verdict, code) == (det.verdict, 0 if det.verdict else 1), i
        telescoping = check_comb_normalization(op, spec)
        assert verdict or not telescoping, i
        if eps >= 1e-7:
            assert not verdict and not telescoping, i
        if eps <= 1e-10:
            assert verdict and telescoping, i


# -- inverse subcommand ------------------------------------------------------------


def test_inverse_finds_state_types(invoke, tmp_path):
    d = write_index_set(tmp_path / "t.json", (2,), ["0"])
    code, out, err = invoke("inverse", "--delta", d, "--max-depth", "2")
    assert code == 0
    payload = validated(out, "inverse")
    assert payload["matches"] == ["A:2", "I->A:2"]
    assert payload["exhausted"] is True


def test_inverse_no_match_exit(invoke, tmp_path):
    d = write_index_set(tmp_path / "t.json", (2, 2), ["00"])
    code, out, err = invoke("inverse", "--delta", d, "--max-depth", "4")
    assert code == 1
    payload = validated(out, "inverse")
    assert payload["matches"] == [] and payload["exhausted"] is True
    assert "examined" in err and "pruned" in err


def test_inverse_past_the_cap_exits_3(invoke, tmp_path):
    # the count stops once it passes the cap, so a deep bound with many
    # trivial leaves is refused at once instead of recursing per level
    d = write_index_set(tmp_path / "t.json", (2,), [])
    code, out, err = invoke(
        "inverse", "--delta", d, "--max-depth", "1200", "--trivial-leaves", "1100",
    )
    assert code == 3
    payload = validated(out, "inverse")
    assert payload == {"matches": [], "exhausted": False, "pruned_count": 0}


def test_inverse_flags(invoke, tmp_path):
    d = write_index_set(tmp_path / "t.json", (2, 3), ["00", "01"])
    code, out, _ = invoke(
        "inverse",
        "--delta",
        d,
        "--max-depth",
        "3",
        "--perms",
        "--lambda",
        "1/2",
    )
    assert code == 0
    payload = validated(out, "inverse")
    assert "B:3->A:2" in payload["matches"]


def test_inverse_takes_its_dims_from_the_file(invoke, tmp_path):
    d = write_index_set(tmp_path / "t.json", (2,), ["0"])
    code, out, err = invoke("inverse", "--dims", "2", "--delta", d)
    assert code == 2 and out == "" and "unrecognized arguments: --dims" in err


def test_index_set_file_dims_must_be_integers(invoke, tmp_path):
    d = write_index_set(tmp_path / "t.json", (2.9, True), ["00"])
    code, out, err = invoke("inverse", "--delta", d)
    assert code == 2 and out == "" and "integers" in err


@pytest.mark.parametrize("strings", ["0", ["0", 1]])
def test_index_set_file_strings_must_be_a_list_of_strings(invoke, tmp_path, strings):
    d = write_index_set(tmp_path / "t.json", (2,), strings)
    code, out, err = invoke("inverse", "--delta", d)
    assert code == 2 and out == "" and "strings" in err


@pytest.mark.parametrize("strings", [[], ["0" * 25]])
def test_index_set_file_beyond_capacity_is_refused_at_load(
    invoke, tmp_path, strings
):
    # 25 positions exceed MAX_FACTORS whether or not the set is empty; the
    # file is refused before any candidate is counted or built
    d = write_index_set(tmp_path / "t.json", (2,) * 25, strings)
    code, out, err = invoke("inverse", "--delta", d, "--max-depth", "2")
    assert code == 2 and out == "" and "outside [0, 24]" in err


@pytest.mark.parametrize("max_iter", ["0", "-5"])
def test_check_adm_refuses_max_iter_below_one(invoke, tmp_path, max_iter):
    m = write_matrix(tmp_path / "u.json", (2, 2), 0.5 * np.eye(4))
    code, out, err = invoke(
        "check-adm", "--type", "A:2->B:2", "--matrix", m, "--max-iter", max_iter
    )
    assert code == 2 and out == "" and "max_iter" in err


def test_oracle_det_refuses_negative_samples(invoke, tmp_path):
    m = write_matrix(tmp_path / "u.json", (2, 2), 0.5 * np.eye(4))
    argv = ("oracle-det", "--type", "A:2", "--cotype", "B:2", "--matrix", m)
    code, out, err = invoke(*argv, "--samples", "-3")
    assert code == 2 and out == "" and "samples" in err
    code, out, _ = invoke(*argv, "--samples", "0")
    assert code == 0 and validated(out, "oracle-det")["samples"] == 0


# -- formats, usage, plumbing -----------------------------------------------------


def test_text_format(invoke):
    code, out, _ = invoke("--format", "text", "sem", "A:2->B:2")
    assert code == 0
    lines = out.strip().split("\n")
    assert 'delta: ["00", "10"]' in lines
    assert "lambda: 1/2" in lines
    code, out, _ = invoke("--format", "text", "equiv", "A:2", "A:2")
    assert "equivalent: true" in out.split("\n")


def test_text_format_nested_and_null(invoke, tmp_path):
    m = write_matrix(tmp_path / "n.json", (2, 2), -0.5 * np.eye(4))
    code, out, _ = invoke(
        "--format", "text", "check-adm", "--type", "A:2->B:2", "--matrix", m
    )
    assert code == 3
    lines = out.strip().split("\n")
    assert "final_distance: null" in lines
    assert "witness: null" in lines


def test_usage_errors(invoke):
    assert invoke()[0] == 2
    assert invoke("no-such-command")[0] == 2
    assert invoke("equiv", "A:2")[0] == 2


def test_help_exits_zero(invoke):
    assert invoke("--help")[0] == 0
    assert invoke("sem", "--help")[0] == 0


def test_missing_matrix_file(invoke, tmp_path):
    code, _, err = invoke(
        "check-det",
        "--type",
        "A:2->B:2",
        "--matrix",
        str(tmp_path / "absent.json"),
    )
    assert code == 2 and "error:" in err


def test_malformed_matrix_file(invoke, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("this is not json")
    code, _, err = invoke(
        "check-det", "--type", "A:2->B:2", "--matrix", str(path)
    )
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("command", ["check-det", "check-adm", "oracle-det"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.05])
def test_non_finite_matrix_entry_is_refused(invoke, tmp_path, command, bad):
    # a finite bad entry makes the matrix non-Hermitian, refused as well
    rows = [[[0.5 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    rows[1][2] = [bad, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": rows}))
    types = ("--type", "A:2->B:2")
    if command == "oracle-det":
        types = ("--type", "A:2", "--cotype", "B:2")
    code, out, err = invoke(command, *types, "--matrix", str(path))
    reason = "not Hermitian" if math.isfinite(bad) else "non-finite"
    assert code == 2 and out == "" and reason in err


def test_matrix_file_dims_must_be_integers(invoke, tmp_path):
    path = tmp_path / "m.json"
    rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    path.write_text(json.dumps({"dims": [2.9, "2"], "matrix": rows}))
    code, out, err = invoke("check-det", "--type", "A:2->B:2", "--matrix", str(path))
    assert code == 2 and out == "" and "integers" in err


@pytest.mark.parametrize(
    "entry",
    [["0.25", 0.0], [0.25, False], [True, 0.0], [10**400, 0.0]],
    ids=["string", "bool-im", "bool-re", "int-overflow"],
)
def test_matrix_file_entries_must_be_json_numbers(invoke, tmp_path, entry):
    rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    rows[0][0] = entry
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dims": [2, 2], "matrix": rows}))
    code, out, err = invoke("check-det", "--type", "A:2->B:2", "--matrix", str(path))
    assert code == 2 and out == "" and "error:" in err


def test_json_output_is_strict(invoke, monkeypatch):
    monkeypatch.setitem(
        cli._HANDLERS, "parse", lambda args: ({"value": float("nan")}, 0)
    )
    code, out, err = invoke("parse", "A:2")
    assert code == 2 and out == "" and "error:" in err


def test_schema_name_mapping():
    assert schema_name("parse") == "parse.schema.json"
    assert schema_name("sample-det") == "matrix.schema.json"
    assert schema_name("comb", "delta") == "comb_delta.schema.json"
    assert schema_name("comb", "equiv-perm") == "comb_equiv_perm.schema.json"
    with pytest.raises(KeyError):
        schema_name("no-such-command")


def test_schemas_are_valid_json_schema():
    for command, mode in [
        ("parse", None),
        ("sem", None),
        ("equiv", None),
        ("check-det", None),
        ("check-adm", None),
        ("sample-det", None),
        ("oracle-det", None),
        ("comb", "delta"),
        ("comb", "lambda"),
        ("comb", "norm"),
        ("comb", "equiv-perm"),
        ("inverse", None),
    ]:
        schema = load_schema(command, mode)
        jsonschema.Draft202012Validator.check_schema(schema)


def test_matrix_row_count_is_checked_before_allocating(invoke, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dims": [100000, 100000], "matrix": []}))
    code, out, err = invoke("check-det", "--type", "A:100000->B:100000",
                            "--matrix", str(path))
    assert code == 2 and out == "" and "0 rows, expected 10000000000" in err


# -- refusals at the boundary and the numpy-free exact subcommands ----------------

SRC = str(Path(hoq.__file__).resolve().parent.parent)


def python_with_src(args, **kwargs):
    """Run a fresh interpreter that loads the package from this checkout."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + extra if extra else "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **kwargs
    )


@pytest.mark.parametrize(
    "text",
    ["(" * 3000 + "A" + ")" * 3000, "A:2->" * 3000],
    ids=["parentheses", "arrows"],
)
def test_deep_nesting_exits_2(invoke, text):
    code, out, err = invoke("parse", text)
    assert code == 2 and out == "" and "nested deeper" in err


def test_sem_at_the_nesting_bound(invoke):
    for text in nested_trivial(type_ast.MAX_NESTING):
        code, out, err = invoke("sem", text)
        assert code == 0 and err == ""
        payload = validated(out, "sem")
        assert payload["delta"] == [] and payload["total_dim"] == 1


def test_sample_det_refuses_an_oversize_side(invoke):
    code, out, err = invoke("sample-det", "--type", "A:1024->B:1024")
    assert code == 2 and out == "" and "exceeds the limit" in err


def _limit_address_space(limit=1 << 30):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_comb_delta_refuses_too_many_factors_early():
    # 26 factor positions: built block by block, the index set would exhaust
    # memory, so each child runs under a 1 GiB address-space limit
    comb = "A:2->B:2"
    for _ in range(12):
        comb = f"({comb})->(A:2->B:2)"
    for argv, message in [
        (["comb", "delta", "--base", "A:2->B:2", "--n", "13"], "26 factor positions"),
        (["sem", comb], "26 non-trivial factor positions"),
        (["equiv", comb, comb], "26 non-trivial factor positions"),
    ]:
        proc = python_with_src(
            ["-m", "hoq.cli", *argv], timeout=10, preexec_fn=_limit_address_space
        )
        assert proc.returncode == 2 and proc.stdout == "", argv
        assert message in proc.stderr, argv


def test_comb_teeth_are_bounded_by_the_nesting_limit(invoke):
    code, out, err = invoke("comb", "lambda", "--base", "A:2->B:2", "--n", "500")
    assert code == 2 and out == "" and "at most 100 teeth" in err
    n = str(type_ast.MAX_NESTING)
    code, out, err = invoke("comb", "lambda", "--base", "A:2->B:2", "--n", n)
    assert code == 0 and err == ""
    validated(out, "comb", "lambda")


def test_comb_teeth_are_refused_before_they_are_built():
    # a trillion teeth would not fit in memory, so the count is refused first
    proc = python_with_src(
        ["-m", "hoq.cli", "comb", "lambda", "--base", "A:2->B:2",
         "--n", "1000000000000"],
        timeout=10, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "at most 100 teeth, got 1000000000000" in proc.stderr


@pytest.mark.parametrize(
    "huge, enough",
    [
        # a tree of m leaves is at most m deep: 2 factors + 2 trivial leaves
        (["--max-depth", "1000000000000", "--trivial-leaves", "2"],
         ["--max-depth", "4", "--trivial-leaves", "2"]),
        # a tree of depth 3 holds 4 leaves, one of them a factor block
        (["--max-depth", "3", "--trivial-leaves", "1000000000000"],
         ["--max-depth", "3", "--trivial-leaves", "3"]),
    ],
    ids=["depth", "trivial-leaves"],
)
def test_inverse_bounds_past_what_a_tree_holds(invoke, tmp_path, huge, enough):
    d = write_index_set(tmp_path / "t.json", (2, 2), ["00"])
    argv = ["inverse", "--delta", d]
    code, expected, _ = invoke(*argv, *enough)
    assert code == 1
    proc = python_with_src(
        ["-m", "hoq.cli", *argv, *huge], timeout=10,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == expected


def test_out_of_memory_exits_2_not_1(tmp_path, monkeypatch):
    # 30 MB of JSON with one overlong row: json.load runs out of memory under
    # a 400 MiB address-space limit before the row count is checked, and
    # exit 1 would read as a "no". One BLAS thread, so that importing numpy
    # reserves no per-core buffers under the limit.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    path = tmp_path / "big.json"
    path.write_text(
        '{"dims": [2, 2], "matrix": [[' + ",".join(["[0.5, 0.25]"] * 2_500_000) + "]]}"
    )
    proc = python_with_src(
        ["-m", "hoq.cli", "check-det", "--type", "A:2->B:2", "--matrix", str(path)],
        timeout=30, preexec_fn=lambda: _limit_address_space(400 << 20),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory"), proc.stderr


def test_inverse_huge_bounds_on_both_axes_exit_3(tmp_path):
    d = write_index_set(tmp_path / "t.json", (2,), [])
    proc = python_with_src(
        ["-m", "hoq.cli", "inverse", "--delta", d,
         "--max-depth", "1000000000000", "--trivial-leaves", "1000000000000"],
        timeout=10, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout) == {
        "matches": [], "exhausted": False, "pruned_count": 0
    }


# One fresh interpreter per call: prints the exit code and the modules the
# call loaded that the bare interpreter (site included) had not.
_LOADED_MODULES = """
import contextlib, io, json, sys
bare = set(sys.modules)
if sys.argv[2] == "preload":
    import hoq.comb_toolkit, hoq.inverse_search
from hoq.cli import run
output = io.StringIO()
with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
    code = run(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(set(sys.modules) - bare)]))
"""

_CLI_BASE = {"hoq", "hoq.cli", "hoq.tolerances", "hoq.type_ast"}
_EXACT = _CLI_BASE | {"hoq.semantics", "hoq.subspace_algebra"}
_PRELOADED = _EXACT | {"hoq.comb_toolkit", "hoq.inverse_search"}


def loaded_modules(argv, preload="none"):
    """Exit code of ``hoq argv`` in a fresh interpreter, and the modules the
    call loaded beyond those of the bare interpreter."""
    proc = python_with_src(
        ["-c", _LOADED_MODULES, json.dumps(argv), preload], timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    return code, set(loaded)


def hoq_modules(loaded):
    return {m for m in loaded if m.partition(".")[0] == "hoq"}


@pytest.mark.parametrize("preload", ["none", "preload"])
def test_exact_subcommands_run_without_numpy(tmp_path, preload):
    index_set = write_index_set(tmp_path / "t.json", (2,), ["0"])
    calls = [
        (["parse", "A->B"], 0, _CLI_BASE),
        (["sem", "(A:2->B:2)->C:2"], 0, _EXACT),
        (["equiv", "(A:2->I)->I", "A:2"], 0, _EXACT),
        (["comb", "delta", "--base", "A:2->B:2", "--n", "2"], 0,
         _CLI_BASE | {"hoq.subspace_algebra"}),
        (["comb", "lambda", "--base", "A:2->B:2", "--n", "2"], 0, _EXACT),
        (["comb", "equiv-perm", "--base", "A:2->B:2", "--n", "2"], 0,
         _EXACT | {"hoq.comb_toolkit"}),
        (["inverse", "--delta", index_set, "--max-depth", "2"], 0,
         _EXACT | {"hoq.inverse_search"}),
        (["equiv", "A:2"], 2, _CLI_BASE),
    ]
    for argv, want_code, want_hoq in calls:
        code, loaded = loaded_modules(argv, preload)
        assert code == want_code, argv
        assert not loaded & {"numpy", "dataclasses"}, argv
        if preload == "preload":
            want_hoq = want_hoq | _PRELOADED
        assert hoq_modules(loaded) == want_hoq, argv


def test_numeric_subcommands_load_only_their_modules(tmp_path):
    m = write_matrix(tmp_path / "m.json", (2, 2), np.eye(4) / 2)
    numeric = _EXACT | {"hoq.choi_numeric"}
    calls = [
        (["check-det", "--type", "A:2->B:2", "--matrix", m], 0, numeric),
        (["sample-det", "--type", "A:2->B:2"], 0, numeric),
        (["comb", "norm", "--base", "A:2->B:2", "--n", "1", "--matrix", m], 0,
         numeric | {"hoq.comb_toolkit"}),
    ]
    for argv, want_code, want_hoq in calls:
        code, loaded = loaded_modules(argv)
        assert code == want_code, argv
        assert hoq_modules(loaded) == want_hoq, argv


def test_parser_defaults_are_the_numeric_defaults():
    from hoq import choi_numeric

    parser = cli._build_parser()
    det = parser.parse_args(["check-det", "--type", "A", "--matrix", "m.json"])
    adm = parser.parse_args(["check-adm", "--type", "A", "--matrix", "m.json"])
    comb = parser.parse_args(["comb", "norm", "--base", "A->B", "--n", "1"])
    assert det.tol == comb.tol == choi_numeric.DEFAULT_TOL
    assert adm.tol == choi_numeric.DEFAULT_FEAS_TOL
    assert adm.max_iter == choi_numeric.DEFAULT_MAX_ITER
