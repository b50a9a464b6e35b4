"""Numeric options the command line refuses while it parses argv.

A ``--tol`` or ``--spread`` that is not a finite positive number, and a
``--lambda`` that is not a positive fraction, exit 2 with empty stdout.
argparse refuses them, so no input file is read and nothing is computed:
the matrix files named below do not exist, and the error names the option.
"""

import pytest

from hoq.cli import run


@pytest.fixture
def invoke(capsys):
    def call(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


@pytest.mark.parametrize("value", ["1/0", "0", "-1/2", "x"])
def test_inverse_lambda_must_be_a_positive_fraction(invoke, tmp_path, value):
    delta = tmp_path / "delta.json"
    delta.write_text('{"dims": [2, 2], "strings": ["00", "10"]}')
    code, out, err = invoke("inverse", "--delta", str(delta), f"--lambda={value}")
    assert (code, out) == (2, "")
    assert "argument --lambda" in err


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ("check-det", "--type", "A:2->B:2", "--matrix", "{m}", "--tol={v}"),
        ("check-adm", "--type", "A:2->B:2", "--matrix", "{m}", "--tol={v}"),
        ("comb", "norm", "--base", "A:2->B:2", "--n", "2", "--matrix", "{m}",
         "--tol={v}"),
        ("sample-det", "--type", "A:2->B:2", "--spread={v}"),
    ],
)
def test_tolerances_must_be_finite(invoke, tmp_path, argv, value):
    missing = str(tmp_path / "missing.json")
    code, out, err = invoke(*(a.format(m=missing, v=value) for a in argv))
    assert (code, out) == (2, "")
    option = argv[-1].split("=")[0]
    assert f"argument {option}" in err


def test_check_adm_with_infinite_tol_does_not_accept_a_negative_matrix(
    invoke, tmp_path
):
    m = tmp_path / "neg.json"
    m.write_text(
        '{"dims": [2], "matrix": [[[-1, 0], [0, 0]], [[0, 0], [-1, 0]]]}'
    )
    code, out, _ = invoke("check-adm", "--type", "A:2", "--matrix", str(m),
                          "--tol", "inf")
    assert (code, out) == (2, "")
