"""Per-layer tracing for one benchmark pass; the layers are ncbinom's modules.

Wraps the public entry points of each module in spans kept in memory
(id, name, start, end, parent id, case id, scalar seconds inside) and
written out when the pass ends.  A function is replaced under every name
that binds it in any ncbinom module, so `from .rewrite import normalize`
in binomial and cli is traced too.

CycloScalar operations are far too many for spans.  They are counted and
timed, and their time is added to the enclosing span's scalar seconds, so
that each span's self time excludes both its child spans and the scalar
arithmetic done directly inside it.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "freealg.mul": "freealg.self_s",
    "rewrite.normalize": "rewrite.self_s",
    "binomial.build": "binomial.build_s",
    "binomial.verify": "binomial.verify_s",
    "realize.apply": "realize.apply_s",
    "realize.matrix": "realize.matrix_s",
    "report": "report.self_s",
    "cli.iter_cases": "cli.iter_cases_s",
    "cli.run_case": "cli.dispatch_s",
    "cli.emit": "cli.emit_s",
}

COUNT_METRICS = (
    "scalars.mul_calls", "scalars.mul_general_calls", "scalars.add_calls",
    "scalars.inv_calls",
    "freealg.mul_calls", "freealg.term_pairs", "freealg.terms_out",
    "rewrite.normalize_calls", "rewrite.words_in", "rewrite.terms_out",
    "binomial.build_calls", "binomial.free_terms",
    "realize.apply_calls", "realize.apply_words", "realize.func_ops",
    "realize.matrix_mul_calls",
    "report.calls",
)


def _engine_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "ncbinom" or name.startswith("ncbinom.")]


def _count_poly_mul(counts, args, result) -> None:
    counts["freealg.mul_calls"] += 1
    left, right = args
    if type(right) is type(left):
        counts["freealg.term_pairs"] += len(left.terms) * len(right.terms)
    counts["freealg.terms_out"] += len(result.terms)


def _count_normalize(counts, args, result) -> None:
    counts["rewrite.normalize_calls"] += 1
    counts["rewrite.words_in"] += len(args[0].terms)
    counts["rewrite.terms_out"] += len(result.terms)


def _count_build(counts, args, result) -> None:
    counts["binomial.build_calls"] += 1
    counts["binomial.free_terms"] += len(result.terms)


def _count_apply(counts, args, result) -> None:
    counts["realize.apply_calls"] += 1
    counts["realize.apply_words"] += len(args[0].terms)


def _counter(metric):
    def count(counts, args, result) -> None:
        counts[metric] += 1
    return count


class Tracer:
    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.scalar_s = 0.0
        self.case_id = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child seconds, scalar seconds]
        self._next_id = 0

    # ---- wrappers ----------------------------------------------------------

    def span(self, name: str, func, count=None):
        tracer = self
        stack = self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            case = tracer.case_id
            frame = [span_id, 0.0, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[1] - frame[2]
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append(
                    (span_id, name, start, end, parent, case, frame[2])
                )
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    def _scalar_op(self, func, metric, general=False):
        tracer = self
        stack = self._stack
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args):
            start = perf_counter()
            result = func(*args)
            elapsed = perf_counter() - start
            tracer.scalar_s += elapsed
            if stack:
                stack[-1][2] += elapsed
            counts[metric] += 1
            if general and type(args[1]) is type(args[0]) and not (
                args[0].is_rational or args[1].is_rational
            ):
                counts["scalars.mul_general_calls"] += 1
            return result

        return wrapper

    def _counted(self, func, metric):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return func(*args, **kwargs)

        return wrapper

    # ---- installation ------------------------------------------------------

    def _patch_function(self, func, wrapper) -> None:
        """Rebind every module-level name that refers to func."""
        for module in _engine_modules():
            for attr in [a for a, v in vars(module).items() if v is func]:
                setattr(module, attr, wrapper)

    def _patch_method(self, cls, attrs, make) -> None:
        for attr in attrs:
            setattr(cls, attr, make(getattr(cls, attr)))

    def install(self) -> None:
        from ncbinom import binomial, cli, freealg, realize, report, rewrite, scalars

        scalar = scalars.CycloScalar
        self._patch_method(scalar, ("__mul__", "__rmul__"),
                           lambda f: self._scalar_op(f, "scalars.mul_calls", general=True))
        self._patch_method(scalar, ("__add__", "__radd__"),
                           lambda f: self._scalar_op(f, "scalars.add_calls"))
        self._patch_method(scalar, ("inv",), lambda f: self._scalar_op(f, "scalars.inv_calls"))

        self._patch_method(freealg.NcPoly, ("__mul__", "__rmul__"),
                           lambda f: self.span("freealg.mul", f, _count_poly_mul))

        for func, name, count in (
            (rewrite.normalize, "rewrite.normalize", _count_normalize),
            (binomial.build_binomial, "binomial.build", _count_build),
            (binomial.build_binomial_alt, "binomial.build", _count_build),
            (realize.apply_assigned, "realize.apply", _count_apply),
            (report.report_from_clauses, "report", _counter("report.calls")),
            (cli.iter_cases, "cli.iter_cases", None),
            (cli.run_case, "cli.run_case", None),
        ):
            self._patch_function(func, self.span(name, func, count))
        for module, name in ((binomial, "binomial.verify"), (realize, "realize.verify")):
            for attr, func in list(vars(module).items()):
                if callable(func) and (attr.startswith("verify_") or attr == "third_order_scan"):
                    self._patch_function(func, self.span(name, func))

        self._patch_method(realize.Matrix, ("__mul__", "__rmul__"),
                           lambda f: self.span("realize.matrix", f,
                                               _counter("realize.matrix_mul_calls")))
        self._patch_method(realize.FuncExpr, ("__mul__", "differentiate"),
                           lambda f: self._counted(f, "realize.func_ops"))
        self._patch_method(realize.FuncMatrix, ("matvec",),
                           lambda f: self._counted(f, "realize.func_ops"))

        init = report.VerificationReport.__init__
        tracer = self

        def numbered_init(rep, *args, **kwargs):
            init(rep, *args, **kwargs)
            tracer.case_id += 1

        report.VerificationReport.__init__ = numbered_init

    # ---- results -----------------------------------------------------------

    def summary(self, report_bytes: int, cases: int) -> dict:
        from ncbinom import rewrite

        presets = getattr(rewrite, "_preset_cache", {}).values()
        out = {name: self.counts.get(name, 0) for name in COUNT_METRICS}
        out.update({metric: self.self_s.get(span, 0.0)
                    for span, metric in SELF_TIME_METRICS.items()})
        out["scalars.self_s"] = self.scalar_s
        out["rewrite.memo_words"] = sum(len(getattr(p, "_nf_cache", ())) for p in presets)
        out["report.bytes"] = report_bytes
        out["cli.cases"] = cases
        return out

    def write_spans(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "case", "scalar_s")
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")
