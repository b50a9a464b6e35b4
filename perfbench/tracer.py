"""Span tracer that wraps hoq's public functions from the outside.

No source file of the package is edited.  ``install`` replaces each function
listed in LAYERS on its module, and on every other ``hoq`` module that
imported it by name, with a wrapper that records a span: layer name, start,
end, parent span and operation id.  A call nested directly in a span of the
same layer (recursion, or one set operation calling another) is folded into
the outer span, so ``calls`` counts entries into a layer and its self time is
the span minus the spans of other layers below it.

Spans live in flat integer arrays while the workload runs and are written as
JSON lines at the end; ``layer_metrics`` derives the per-layer table from
them.  A listed function that no longer exists is reported absent, not zero.

Which end-to-end metric each layer should move, and where (in parentheses:
workloads on which it is predicted to stay unchanged):

    type_ast          ops_per_s                          exact, cli (membership)
    subspace_algebra  ops_per_s, latency_tail_ms,        exact (membership,
                      peak_rss_mb                          admissibility)
    semantics         ops_per_s, latency_p50_ms          exact (membership)
    comb_toolkit      ops_per_s                          exact, membership (admissibility)
    inverse_search    latency_p50_ms                     exact (all others)
    block projection  ops_per_s, latency_tail_ms         membership; no worse on
                                                           admissibility (exact)
    eig, hermop,      latency_p50_ms                     membership, admissibility
    plumbing                                               (exact)
    checkers, Dykstra ops_per_s, latency_tail_ms, ok_share   admissibility (membership)
    cli               latency_p50_ms, ops_per_s          cli (setup_s elsewhere)
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array

# layer -> functions (module, attribute) that make it up
LAYERS = {
    "type_ast.parse_type": [("hoq.type_ast", "parse_type")],
    "type_ast.print_canonical": [("hoq.type_ast", "print_canonical")],
    "subspace_algebra.delta_of_type": [("hoq.subspace_algebra", "delta_of_type")],
    "subspace_algebra.normal_form": [("hoq.subspace_algebra", "normal_form")],
    "subspace_algebra.set_ops": [
        ("hoq.subspace_algebra", f) for f in (
            "full_sets", "concat", "union", "intersection",
            "complement_in_T", "perp_in_W")
    ],
    "subspace_algebra.permute": [("hoq.subspace_algebra", "permute")],
    "semantics.upsilon": [("hoq.semantics", "upsilon")],
    "semantics.check_equiv": [("hoq.semantics", "check_equiv")],
    "semantics.find_alignment": [("hoq.semantics", "find_alignment")],
    "semantics.lambda_recursive": [("hoq.semantics", "lambda_recursive")],
    "semantics.delta_dimension": [("hoq.semantics", "delta_dimension")],
    "comb_toolkit.comb_delta_closed": [("hoq.comb_toolkit", "comb_delta_closed")],
    "comb_toolkit.random_comb_choi": [("hoq.comb_toolkit", "random_comb_choi")],
    "comb_toolkit.check_comb_normalization": [
        ("hoq.comb_toolkit", "check_comb_normalization")],
    "inverse_search.inverse_search": [("hoq.inverse_search", "inverse_search")],
    "choi_numeric.block_projection": [("hoq.choi_numeric", "_project_delta_matrix")],
    "choi_numeric.plumbing": [
        ("hoq.choi_numeric", f)
        for f in ("partial_trace", "reorder_factors", "apply_inverse_choi")
    ],
    "choi_numeric.check_deterministic": [("hoq.choi_numeric", "check_deterministic")],
    "choi_numeric.sample_deterministic": [("hoq.choi_numeric", "sample_deterministic")],
    "choi_numeric.check_admissible": [("hoq.choi_numeric", "check_admissible")],
    "choi_numeric.max_admissible_scale": [("hoq.choi_numeric", "max_admissible_scale")],
}
EIG_LAYER = "choi_numeric.eig"          # numpy eigvalsh/eigh as choi_numeric sees them
HERMOP_LAYER = "choi_numeric.hermop"    # HermOp.__post_init__ (validation)
ENUMERATE = ("hoq.inverse_search", "enumerate_types")

# Only called while the benchmark builds or checks inputs, so their figures
# count every span, not only those inside timed operations.
HELPER_LAYERS = {"comb_toolkit.random_comb_choi",
                 "comb_toolkit.check_comb_normalization"}

OP = "op"
CLI_SPANS = ("cli.interpreter", "cli.numpy_import", "cli.import", "cli.run", "cli.shutdown")


def _len_out(args, kwargs, out):
    return len(out), 0


def _len_first(args, kwargs, out):
    return len(args[0] if args else kwargs["J"]), 0


def _bytes_in_out(args, kwargs, out):
    mat = args[0] if args else kwargs["mat"]
    return int(getattr(mat, "nbytes", 0)) + int(getattr(out, "nbytes", 0)), 0


def _iterations(args, kwargs, out):
    return int(out.iterations), 1 if out.feasible == "yes" else 0


ATTRS = {
    "subspace_algebra.delta_of_type": _len_out,
    "subspace_algebra.normal_form": _len_first,
    "choi_numeric.block_projection": _bytes_in_out,
    "choi_numeric.check_admissible": _iterations,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.col_name = array("i")
        self.col_parent = array("q")
        self.col_op = array("q")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_a = array("q")
        self.col_b = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.recording = False
        self.absent: set[str] = set()
        self._examined = 0

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int, start: int | None = None) -> int:
        idx = len(self.col_name)
        self.col_name.append(nid)
        self.col_parent.append(self.stack[-1] if self.stack else -1)
        self.col_op.append(self.op)
        self.col_start.append(time.perf_counter_ns() if start is None else start)
        self.col_end.append(0)
        self.col_a.append(0)
        self.col_b.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, end: int | None = None) -> None:
        self.col_end[idx] = time.perf_counter_ns() if end is None else end
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        self.op = op_id
        return self.open(self.name_id(OP))

    def end_op(self, idx: int, start: int, end: int) -> None:
        self.col_start[idx] = start
        self.close(idx, end)
        self.op = -1

    def add_rows(self, rows: list[dict], parent: int) -> None:
        """Merge spans recorded by a child process under span ``parent``."""
        base = len(self.col_name)
        for row in rows:
            self.col_name.append(self.name_id(row["name"]))
            p = row["parent"]
            self.col_parent.append(parent if p < 0 else base + p)
            self.col_op.append(self.op)
            self.col_start.append(row["start"])
            self.col_end.append(row["end"])
            self.col_a.append(row.get("a", 0))
            self.col_b.append(row.get("b", 0))

    def rows(self):
        for i in range(len(self.col_name)):
            yield {"name": self.names[self.col_name[i]], "start": self.col_start[i],
                   "end": self.col_end[i], "parent": self.col_parent[i],
                   "op": self.col_op[i], "a": self.col_a[i], "b": self.col_b[i]}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")

    # -- wrapping ----------------------------------------------------------

    def wrap(self, layer: str, fn):
        nid = self.name_id(layer)
        attr = ATTRS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracer.recording or (stack and tracer.col_name[stack[-1]] == nid):
                return fn(*args, **kwargs)
            examined_before = tracer._examined
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if attr is not None:
                tracer.col_a[idx], tracer.col_b[idx] = attr(args, kwargs, out)
            elif layer == "inverse_search.inverse_search":
                tracer.col_a[idx] = tracer._examined - examined_before
                tracer.col_b[idx] = int(out.pruned_count)
            return out

        return wrapper

    def _counting(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer._examined += 1
                yield item

        return counted

    def install(self) -> None:
        """Wrap every listed function that exists in the loaded package."""
        replacements = {}
        for layer, funcs in LAYERS.items():
            found = False
            for mod_name, attr in funcs:
                fn = _lookup(mod_name, attr)
                if fn is None:
                    continue
                found = True
                replacements[id(fn)] = (fn, self.wrap(layer, fn))
            if not found:
                self.absent.add(layer)
        fn = _lookup(*ENUMERATE)
        if fn is not None:
            replacements[id(fn)] = (fn, self._counting(fn))
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "hoq" or mod_name.startswith("hoq.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        self._install_eig()
        self._install_hermop()

    def _install_eig(self) -> None:
        cn = sys.modules.get("hoq.choi_numeric")
        np_mod = getattr(cn, "np", None) if cn is not None else None
        linalg = getattr(np_mod, "linalg", None)
        if linalg is None:
            self.absent.add(EIG_LAYER)
            return
        proxy_linalg = types.ModuleType(linalg.__name__)
        proxy_linalg.__dict__.update(vars(linalg))
        for name in ("eigvalsh", "eigh"):
            setattr(proxy_linalg, name, self.wrap(EIG_LAYER, getattr(linalg, name)))
        proxy_np = types.ModuleType(np_mod.__name__)
        proxy_np.__dict__.update(vars(np_mod))
        proxy_np.linalg = proxy_linalg
        cn.np = proxy_np

    def _install_hermop(self) -> None:
        cn = sys.modules.get("hoq.choi_numeric")
        cls = getattr(cn, "HermOp", None) if cn is not None else None
        post = getattr(cls, "__post_init__", None)
        if post is None:
            self.absent.add(HERMOP_LAYER)
            return
        cls.__post_init__ = self.wrap(HERMOP_LAYER, post)

    # -- derivation --------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self_ns, sums of the two attributes, and the
        number of check_admissible spans directly under max_admissible_scale."""
        n = len(self.col_name)
        child = [0] * n
        for i in range(n):
            p = self.col_parent[i]
            if p >= 0:
                child[p] += self.col_end[i] - self.col_start[i]
        out: dict[str, dict[str, float]] = {}
        scale_id = self._ids.get("choi_numeric.max_admissible_scale", -2)
        for i in range(n):
            name = self.names[self.col_name[i]]
            if self.col_op[i] < 0 and name not in HELPER_LAYERS:
                continue
            rec = out.setdefault(name, {"calls": 0, "self_ns": 0, "a": 0, "b": 0,
                                        "a_when_b": 0, "under_scale": 0,
                                        "durations": []})
            dur = self.col_end[i] - self.col_start[i]
            rec["calls"] += 1
            rec["self_ns"] += dur - child[i]
            rec["a"] += self.col_a[i]
            rec["b"] += self.col_b[i]
            if self.col_b[i]:
                rec["a_when_b"] += self.col_a[i]
            p = self.col_parent[i]
            if p >= 0 and self.col_name[p] == scale_id:
                rec["under_scale"] += 1
            if name == OP or name in CLI_SPANS:
                rec["durations"].append(dur)
        return out


def _lookup(mod_name: str, attr: str):
    try:
        module = importlib.import_module(mod_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


def _median_ms(durations: list[int]) -> float:
    if not durations:
        return 0.0
    s = sorted(durations)
    mid = len(s) // 2
    value = s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2
    return value / 1e6


def layer_metrics(agg: dict, absent: set[str]) -> dict[str, tuple[float | None, str]]:
    """The per-layer table: metric name -> (value or None when absent, unit)."""
    metrics: dict[str, tuple[float | None, str]] = {}

    def rec(layer):
        return agg.get(layer, {"calls": 0, "self_ns": 0, "a": 0, "b": 0,
                               "a_when_b": 0, "under_scale": 0, "durations": []})

    def put(name, layer, value, unit):
        metrics[name] = (None if layer in absent else value, unit)

    def calls_self(layer, calls_name="calls"):
        r = rec(layer)
        put(f"{layer}.{calls_name}", layer, r["calls"], "count")
        put(f"{layer}.self_ms", layer, r["self_ns"] / 1e6, "ms")

    for layer in ("type_ast.parse_type", "type_ast.print_canonical",
                  "subspace_algebra.delta_of_type", "subspace_algebra.normal_form",
                  "subspace_algebra.set_ops", "subspace_algebra.permute",
                  "semantics.upsilon", "semantics.check_equiv",
                  "semantics.find_alignment", "comb_toolkit.comb_delta_closed",
                  "inverse_search.inverse_search", "choi_numeric.block_projection",
                  EIG_LAYER, "choi_numeric.check_deterministic",
                  "choi_numeric.sample_deterministic", "choi_numeric.check_admissible",
                  "choi_numeric.max_admissible_scale"):
        calls_self(layer)
    calls_self(HERMOP_LAYER, "constructions")
    for layer in ("semantics.lambda_recursive", "semantics.delta_dimension",
                  "comb_toolkit.random_comb_choi",
                  "comb_toolkit.check_comb_normalization", "choi_numeric.plumbing"):
        put(f"{layer}.self_ms", layer, rec(layer)["self_ns"] / 1e6, "ms")

    put("subspace_algebra.delta_of_type.strings_out", "subspace_algebra.delta_of_type",
        rec("subspace_algebra.delta_of_type")["a"], "count")
    put("subspace_algebra.normal_form.strings_in", "subspace_algebra.normal_form",
        rec("subspace_algebra.normal_form")["a"], "count")
    put("choi_numeric.block_projection.bytes_computed", "choi_numeric.block_projection",
        rec("choi_numeric.block_projection")["a"], "bytes-computed")

    search = rec("inverse_search.inverse_search")
    put("inverse_search.examined", "inverse_search.inverse_search", search["a"], "count")
    put("inverse_search.pruned_ratio", "inverse_search.inverse_search",
        search["b"] / search["a"] if search["a"] else 0.0, "ratio")

    adm = rec("choi_numeric.check_admissible")
    put("choi_numeric.dykstra.iterations", "choi_numeric.check_admissible",
        adm["a"], "count")
    put("choi_numeric.dykstra.useful_ratio", "choi_numeric.check_admissible",
        adm["a_when_b"] / adm["a"] if adm["a"] else 0.0, "ratio")
    put("choi_numeric.max_admissible_scale.probes", "choi_numeric.max_admissible_scale",
        adm["under_scale"], "count")

    ops = rec(OP)
    for span in CLI_SPANS:
        metrics[f"{span}_ms"] = (_median_ms(rec(span)["durations"]), "ms")
    metrics["cli.process_ms"] = (
        _median_ms(ops["durations"]) if rec("cli.run")["calls"] else 0.0, "ms")
    wall_ns = sum(ops["durations"])
    metrics["trace.wall_ms"] = (wall_ns / 1e6, "ms")
    metrics["trace.unattributed_share"] = (
        ops["self_ns"] / wall_ns if wall_ns else 0.0, "ratio")
    return metrics
