"""Command-line front end.

Every subcommand writes a single JSON document (or a flat text rendering) to
stdout and signals its verdict through the exit code, so shell pipelines can
branch without parsing:

    0   success / true verdict
    1   completed with a false verdict
    2   usage or I/O error
    3   numerical non-convergence or capped search (no certificate)

Output is byte-identical across runs for a fixed argv and seed.  JSON
payloads validate against the schemas shipped in hoq/schemas/.

Only the numeric subcommands (check-det, check-adm, sample-det, oracle-det
and comb norm) import hoq.choi_numeric, and with it numpy, in their
handlers; the exact ones start without numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from importlib import resources
from typing import Optional, Sequence

from hoq.comb_toolkit import (
    CombSpec,
    _channel_slots,
    comb_equiv_permutation,
    expand_slot_perm,
)
from hoq.inverse_search import SearchSpec, inverse_search
from hoq.semantics import check_equiv, delta_dimension, lambda_recursive, upsilon
from hoq.subspace_algebra import delta_of_type, from_json_obj
from hoq.tolerances import DEFAULT_FEAS_TOL, DEFAULT_MAX_ITER, DEFAULT_TOL
from hoq.type_ast import (
    Arrow,
    ParseError,
    factor_dims,
    parse_type,
    print_canonical,
    total_dim,
    type_depth,
)

__all__ = ["run", "main", "schema_name"]

_SCHEMAS = {
    "parse": "parse.schema.json",
    "sem": "sem.schema.json",
    "equiv": "equiv.schema.json",
    "check-det": "check_det.schema.json",
    "check-adm": "check_adm.schema.json",
    "sample-det": "matrix.schema.json",
    "oracle-det": "oracle_det.schema.json",
    ("comb", "delta"): "comb_delta.schema.json",
    ("comb", "lambda"): "comb_lambda.schema.json",
    ("comb", "norm"): "comb_norm.schema.json",
    ("comb", "equiv-perm"): "comb_equiv_perm.schema.json",
    "inverse": "inverse.schema.json",
}


def schema_name(command: str, mode: Optional[str] = None) -> str:
    """Schema file (under hoq/schemas/) validating a subcommand's output."""
    key = (command, mode) if command == "comb" else command
    return _SCHEMAS[key]


def load_schema(command: str, mode: Optional[str] = None) -> dict:
    path = resources.files("hoq.schemas") / schema_name(command, mode)
    return json.loads(path.read_text(encoding="utf-8"))


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _positive_fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator: {text}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoq",
        description="Type algebra and numerical verifier for higher-order "
        "quantum maps.",
    )
    parser.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="output rendering (default: json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a type and echo its canonical form")
    p.add_argument("type")

    p = sub.add_parser("sem", help="exact lambda and index set of a type")
    p.add_argument("type")

    p = sub.add_parser("equiv", help="decide equivalence of two types")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--perm", help="comma-separated factor alignment to verify")
    p.add_argument(
        "--search",
        action="store_true",
        help="search permutations beyond the identity alignment",
    )

    p = sub.add_parser("check-det", help="deterministic-event membership")
    p.add_argument("--type", required=True)
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)

    p = sub.add_parser("check-adm", help="admissible-event feasibility")
    p.add_argument("--type", required=True)
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument(
        "--tol",
        type=_positive_float,
        default=DEFAULT_FEAS_TOL,
        help="tolerance of the PSD precheck only; a witness must dominate"
        " the input within 1e-9 * max(1, ||M||_op)",
    )
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)

    p = sub.add_parser("sample-det", help="draw a deterministic event")
    p.add_argument("--type", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spread", type=_positive_float, default=1.0)

    p = sub.add_parser(
        "oracle-det", help="definitional membership test for an arrow type"
    )
    p.add_argument("--type", required=True, help="tail type")
    p.add_argument("--cotype", required=True, help="head type")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("comb", help="uniform comb calculations")
    p.add_argument("mode", choices=("delta", "lambda", "norm", "equiv-perm"))
    p.add_argument("--base", required=True, help="tooth type")
    p.add_argument("--n", type=int, required=True, help="tooth count")
    p.add_argument("--matrix", help="matrix JSON file (norm mode)")
    p.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)

    p = sub.add_parser("inverse", help="bounded inverse search on an index set")
    p.add_argument("--dims", required=True, help="comma-separated factor dims")
    p.add_argument("--delta", required=True, help="index-set JSON file")
    p.add_argument("--max-depth", type=int, default=3)
    p.add_argument("--trivial-leaves", type=int, default=2)
    p.add_argument(
        "--perms",
        action="store_true",
        help="accept matches up to a factor permutation",
    )
    p.add_argument(
        "--lambda",
        dest="lam",
        type=_positive_fraction,
        help="require this exact identity coefficient (e.g. 1/2)",
    )
    return parser


def _cmd_parse(args: argparse.Namespace) -> tuple[dict, int]:
    x = parse_type(args.type)
    payload = {
        "canonical": print_canonical(x),
        "dims": list(factor_dims(x)),
        "total_dim": total_dim(x),
        "depth": type_depth(x),
    }
    return payload, 0


def _cmd_sem(args: argparse.Namespace) -> tuple[dict, int]:
    x = parse_type(args.type)
    s = upsilon(x)
    payload = {
        "type": print_canonical(x),
        "lambda": str(s.lambda_),
        "delta": s.delta.as_bitstrings(),
        "dims": list(s.dims),
        "total_dim": s.total_dim,
        "delta_dimension": delta_dimension(x),
    }
    return payload, 0


def _cmd_equiv(args: argparse.Namespace) -> tuple[dict, int]:
    x = parse_type(args.left)
    y = parse_type(args.right)
    perm = None
    if args.perm is not None:
        perm = tuple(int(p) for p in args.perm.split(","))
    verdict = check_equiv(x, y, perm=perm, search=args.search)
    payload = {
        "equivalent": verdict.equivalent,
        "permutation": (
            None if verdict.permutation is None else list(verdict.permutation)
        ),
    }
    return payload, 0 if verdict.equivalent else 1


def _cmd_check_det(args: argparse.Namespace) -> tuple[dict, int]:
    from hoq.choi_numeric import check_deterministic, load_matrix

    x = parse_type(args.type)
    report = check_deterministic(load_matrix(args.matrix), x, tol=args.tol)
    payload = {**vars(report), "lambda_expected": str(report.lambda_expected)}
    return payload, 0 if report.verdict else 1


def _cmd_check_adm(args: argparse.Namespace) -> tuple[dict, int]:
    from hoq.choi_numeric import check_admissible, load_matrix, matrix_to_json_obj

    x = parse_type(args.type)
    op = load_matrix(args.matrix)
    report = check_admissible(op, x, tol=args.tol, max_iter=args.max_iter)
    payload = {
        "feasible": report.feasible,
        "iterations": report.iterations,
        "final_distance": (
            report.final_distance if math.isfinite(report.final_distance) else None
        ),
        "witness": (
            None if report.witness is None else matrix_to_json_obj(report.witness)
        ),
    }
    return payload, 0 if report.feasible == "yes" else 3


def _cmd_sample_det(args: argparse.Namespace) -> tuple[dict, int]:
    from hoq.choi_numeric import matrix_to_json_obj, sample_deterministic

    op = sample_deterministic(
        parse_type(args.type), seed=args.seed, spread=args.spread
    )
    return matrix_to_json_obj(op), 0


def _cmd_oracle_det(args: argparse.Namespace) -> tuple[dict, int]:
    from hoq.choi_numeric import load_matrix, oracle_deterministic

    x = parse_type(args.type)
    y = parse_type(args.cotype)
    ok = oracle_deterministic(
        load_matrix(args.matrix), x, y, samples=args.samples, seed=args.seed
    )
    return {"verdict": ok, "samples": args.samples, "seed": args.seed}, (
        0 if ok else 1
    )


def _cmd_comb(args: argparse.Namespace) -> tuple[dict, int]:
    base = parse_type(args.base)
    spec = CombSpec.uniform(base, args.n)
    comb = spec.derived
    if args.mode == "delta":
        payload = {
            "type": print_canonical(comb),
            "strings": delta_of_type(comb).as_bitstrings(),
            "dims": list(factor_dims(comb)),
        }
        return payload, 0
    if args.mode == "lambda":
        return {"type": print_canonical(comb), "lambda": str(lambda_recursive(comb))}, 0
    if args.mode == "norm":
        if args.matrix is None:
            raise ValueError("comb norm needs --matrix")
        _channel_slots(spec)  # refuses teeth that are not channel-shaped
    elif not isinstance(base, Arrow):
        raise ValueError("comb equiv-perm needs an arrow-shaped base")
    tooth_perm = comb_equiv_permutation(args.n)
    sizes = [len(factor_dims(base.tail)), len(factor_dims(base.head))] * args.n
    perm = expand_slot_perm(tooth_perm, sizes)
    if args.mode == "equiv-perm":
        payload = {
            "n": args.n,
            "tooth_permutation": list(tooth_perm),
            "factor_permutation": list(perm),
        }
        return payload, 0
    from hoq.choi_numeric import HermOp, check_deterministic, load_matrix
    from hoq.choi_numeric import reorder_factors

    # The file carries the two-sided layout (A_n, .., A_1, B_1, .., B_n); its
    # own dims are not read, only its side is checked against the teeth.
    two_sided = tuple(factor_dims(comb)[p] for p in perm)
    op = HermOp(two_sided, load_matrix(args.matrix).matrix)
    back = sorted(range(len(perm)), key=perm.__getitem__)
    ok = check_deterministic(reorder_factors(op, back), comb, tol=args.tol).verdict
    return {"verdict": ok, "tolerance": args.tol}, 0 if ok else 1


def _cmd_inverse(args: argparse.Namespace) -> tuple[dict, int]:
    dims = tuple(int(d) for d in args.dims.split(","))
    with open(args.delta, "r", encoding="utf-8") as fh:
        target, profile = from_json_obj(json.load(fh))
    if tuple(profile) != dims:
        raise ValueError(
            f"index-set file dims {list(profile)} do not match --dims "
            f"{list(dims)}"
        )
    spec = SearchSpec(
        dims=dims,
        target=target,
        max_depth=args.max_depth,
        max_trivial_leaves=args.trivial_leaves,
        allow_permutations=args.perms,
        target_lambda=args.lam,
    )

    def report_progress(examined: int, pruned: int) -> None:
        print(f"examined {examined} pruned {pruned}", file=sys.stderr)

    result = inverse_search(spec, progress=report_progress)
    payload = result.to_json_obj()
    if result.matches:
        return payload, 0
    return payload, 1 if result.exhausted else 3


_HANDLERS = {
    "parse": _cmd_parse,
    "sem": _cmd_sem,
    "equiv": _cmd_equiv,
    "check-det": _cmd_check_det,
    "check-adm": _cmd_check_adm,
    "sample-det": _cmd_sample_det,
    "oracle-det": _cmd_oracle_det,
    "comb": _cmd_comb,
    "inverse": _cmd_inverse,
}


def _text_lines(obj: object, path: str) -> list[str]:
    if isinstance(obj, dict):
        lines: list[str] = []
        for key in sorted(obj):
            sub_path = f"{path}.{key}" if path else str(key)
            lines.extend(_text_lines(obj[key], sub_path))
        return lines
    if isinstance(obj, list):
        return [f"{path}: {json.dumps(obj, sort_keys=True)}"]
    if obj is None:
        return [f"{path}: null"]
    if isinstance(obj, bool):
        return [f"{path}: {'true' if obj else 'false'}"]
    return [f"{path}: {obj}"]


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        sys.stdout.write(text + "\n")
    else:
        sys.stdout.write("\n".join(_text_lines(payload, "")) + "\n")


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors via exit
        code = exc.code
        return 0 if code in (None, 0) else int(code)
    try:
        payload, code = _HANDLERS[args.command](args)
        _emit(payload, args.format)  # strict JSON: a non-finite value raises
    except (
        ParseError,
        ValueError,
        TypeError,
        KeyError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
