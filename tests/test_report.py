"""Reports built from clauses: status, text fields, and one residual per clause."""

from ncbinom.freealg import NcPoly
from ncbinom.report import FAIL, PASS, Clause, report_from_clauses
from ncbinom.rewrite import cached_preset, normalize


class Counted:
    """Integer value that counts how often a residual is formed and a value printed."""

    subtractions = 0
    formats = 0

    def __init__(self, value: int):
        self.value = value

    def __sub__(self, other):
        Counted.subtractions += 1
        return Counted(self.value - other.value)

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        Counted.formats += 1
        return str(self.value)


def report_and_subtractions(clauses):
    Counted.subtractions = 0
    report = report_from_clauses("demo", {"n": 1}, clauses)
    return report, Counted.subtractions


def test_each_clause_residual_is_formed_once():
    one, two = Counted(1), Counted(2)
    report, subs = report_and_subtractions([Clause("", two, one)])
    assert subs == 1
    assert (report.status, report.lhs, report.rhs, report.residual) == (FAIL, "2", "1", "1")

    clauses = [Clause("a", one, one), Clause("b", two, two)]
    report, subs = report_and_subtractions(clauses)
    assert subs == 2
    assert report.status == PASS
    assert report.lhs == "a: 1 | b: 2"
    assert report.rhs == "a: 1 | b: 2"
    assert report.residual == "a: 0 | b: 0"

    # a failing first clause still reports, and computes, every residual once
    report, subs = report_and_subtractions([Clause("a", two, one), Clause("b", one, one)])
    assert subs == 2
    assert (report.status, report.residual) == (FAIL, "a: 1 | b: 0")


def test_probe_is_recorded_after_the_case_fields_and_never_checked():
    one, two = Counted(1), Counted(2)
    params = {"n": 1}
    probe = Clause("probe", two, one, probe=True)

    # a nonzero probe beside a passing clause: the case passes
    report = report_from_clauses("demo", params, [Clause("a", one, one), probe])
    assert report.status == PASS
    assert list(report.params.items()) == [("n", 1), ("probe", False)]
    assert (report.lhs, report.rhs, report.residual) == ("a: 1", "a: 1", "a: 0")
    assert params == {"n": 1}  # the caller's dict is not changed

    # a vanishing probe does not rescue a failing clause
    zero_probe = Clause("probe", one, one, probe=True)
    report = report_from_clauses("demo", params, [Clause("", two, one), zero_probe])
    assert report.status == FAIL
    assert list(report.params.items()) == [("n", 1), ("probe", True)]
    assert (report.lhs, report.rhs, report.residual) == ("2", "1", "1")


def test_a_passing_form_is_formatted_once():
    Counted.formats = 0
    report = report_from_clauses("demo", {}, [Clause("a", Counted(3), Counted(3))])
    # the lhs and the zero residual; the equal rhs reuses the lhs text
    assert Counted.formats == 2
    assert (report.lhs, report.rhs, report.residual) == ("a: 3", "a: 3", "a: 0")


def test_a_failing_clause_prints_its_own_rhs():
    # beside a passing clause, whose rhs reuses its lhs text
    one, two = Counted(1), Counted(2)
    report = report_from_clauses("demo", {}, [Clause("a", one, one), Clause("b", two, one)])
    assert (report.lhs, report.rhs) == ("a: 1 | b: 2", "a: 1 | b: 1")


def test_a_passing_clause_of_two_types_prints_each_side():
    # a plain rhs of non-normal words equals its normal form, but prints its own words
    preset = cached_preset("first-order-plus", 1)
    u, d = (NcPoly.generator(preset.alphabet, name) for name in ("U", "D"))
    plain = d * u
    lhs = normalize(plain, preset)
    report = report_from_clauses("demo", {}, [Clause("", lhs, plain)])
    assert report.status == PASS
    assert (report.lhs, report.rhs) == (str(lhs), str(plain))
    assert report.lhs != report.rhs
