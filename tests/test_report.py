"""Reports built from clauses: status, text fields, and one residual per clause."""

import pickle

import pytest

from ncbinom.cli import Suite, SuiteConfig
from ncbinom.freealg import Alphabet, NcPoly
from ncbinom.report import FAIL, PASS, Clause, VerificationReport, report_from_clauses
from ncbinom.rewrite import ConfluenceReport, cached_preset, normalize


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


def test_record_types_keep_their_contract():
    """The six record types: constructors, defaults, immutability, equality, hash, pickling."""
    with pytest.raises(ValueError, match="duplicate generator names"):
        Alphabet(("U", "D", "U"))
    ud = Alphabet(("U", "D"))
    assert ud == Alphabet(names=("U", "D")) and hash(ud) == hash(Alphabet(("U", "D")))
    assert ud != Alphabet(("D", "U")) and len(ud) == 2 and repr(ud) == "Alphabet(names=('U', 'D'))"

    assert SuiteConfig() == SuiteConfig(n_max=None, lambdas=None, j=None, m=None, seed=None, jobs=1)
    cfg = SuiteConfig(n_max=3, lambdas=("1",), seed=5)
    assert (cfg.n_max, cfg.lambdas, cfg.j, cfg.m, cfg.seed, cfg.jobs) == (3, ("1",), None, None, 5, 1)
    assert hash(cfg) == hash(SuiteConfig(3, ("1",), None, None, 5))

    suite = Suite(2, None, list, None)
    assert suite.flags == {} and suite.realizes is False
    with pytest.raises(TypeError):  # the default flags are shared, so read-only
        suite.flags["j"] = 0
    assert Suite(2, None, list, None, {"j": 0}, True).flags == {"j": 0}

    clause = Clause("a", 1, 2)
    assert clause.probe is False and clause == Clause(label="a", lhs=1, rhs=2, probe=False)
    assert hash(clause) == hash(Clause("a", 1, 2)) and clause.residual() == -1

    confluent = ConfluenceReport("p", ("U D U",), ())
    assert confluent.ok and confluent.overlap_list == "U D U"
    divergent = ConfluenceReport("p", (), (("U D U", ("U", "D")),))
    assert not divergent.ok and divergent.overlap_list == "none"
    assert str(divergent) == "p: divergent on U D U -> {U | D}"

    report = VerificationReport("demo", {"n": 1}, PASS, "x", "x", "0")
    assert list(report.to_json_obj()) == ["suite", "params", "status", "lhs", "rhs", "residual"]
    assert report == VerificationReport("demo", {"n": 1}, PASS, "x", "x", "0")

    for record in (ud, cfg, suite, clause, confluent, report):
        with pytest.raises(AttributeError):
            record.extra = 1
        field = "names" if record is ud else type(record)._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for record in (ud, cfg, clause, confluent, report):
        assert pickle.loads(pickle.dumps(record)) == record
