"""Structured pass/fail records for identity checks.

A report captures one verified case: the suite, the case parameters, the
canonical left and right forms, and their difference; `cli.run_case`
builds it from the clauses a verifier returns.  Status is "pass" exactly
when every checked clause's residual is the zero element.  A passing
form is formatted once.  The memos behind the forms (`cached_binomial`,
`realize._scalar_dichotomy`, `realize._graded_fold`, each preset's
`_nf_cache`) are per process; `realize`'s docstring gives keys and caps.
`VerificationReport` and `Clause` are named tuples: a dataclass would load
`inspect`, with its `ast`, `dis` and `tokenize`, into every fresh run.
"""

from __future__ import annotations

from collections import namedtuple

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class VerificationReport(namedtuple("VerificationReport", "suite params status lhs rhs residual")):
    __slots__ = ()

    def __init__(self, *fields):
        # `__new__` stores the fields; an `__init__` that takes them lets a wrapper
        # call through (perfbench/tracer.py numbers the cases there)
        pass

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
        }

    def to_text_line(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        return f"[{self.status.upper():>7}] {self.suite} {params}".rstrip()


class Clause(namedtuple("Clause", "label lhs rhs probe", defaults=(False,))):
    """One comparison inside a case; values must support '-', '==', scaled(0), is_zero, str.

    `probe=True` makes a probe: its outcome is recorded, not checked.
    """

    __slots__ = ()

    def residual(self):
        return self.lhs - self.rhs


def _residual(clause: Clause):
    # equal sides of one type give that type's zero, in the lhs's context; only
    # differing sides are subtracted, so a preset, alphabet or shape mismatch still raises
    lhs, rhs = clause.lhs, clause.rhs
    if type(lhs) is type(rhs) and lhs == rhs:
        return lhs.scaled(0)
    return clause.residual()


def report_from_clauses(suite: str, params: dict, clauses: list[Clause]) -> VerificationReport:
    """One report over the clauses; each clause's residual is formed at most once, never for an equal pair.

    Each probe adds {label: residual is zero} to the params, after the case's own.
    """
    probes = [c for c in clauses if c.probe]
    if probes:
        params = params | {c.label: _residual(c).is_zero for c in probes}
        clauses = [c for c in clauses if not c.probe]
    if not clauses:
        return VerificationReport(suite, params, PASS, "", "", "0")
    residuals = [_residual(c) for c in clauses]
    status = PASS if all(r.is_zero for r in residuals) else FAIL
    lhs = [str(c.lhs) for c in clauses]
    # equal sums of one type print alike, so a passing clause's rhs reuses the lhs text
    rhs = [text if r.is_zero and type(c.lhs) is type(c.rhs) else str(c.rhs)
           for c, r, text in zip(clauses, residuals, lhs)]
    residual = [str(r) for r in residuals]
    if len(clauses) == 1 and not clauses[0].label:
        return VerificationReport(suite, params, status, lhs[0], rhs[0], residual[0])
    lhs, rhs, residual = (" | ".join(f"{c.label}: {text}" for c, text in zip(clauses, texts))
                          for texts in (lhs, rhs, residual))
    return VerificationReport(suite, params, status, lhs, rhs, residual)


def skipped_report(suite: str, params: dict, reason: str) -> VerificationReport:
    return VerificationReport(suite, params, SKIPPED, "", "", reason)
