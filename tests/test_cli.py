"""CLI behavior: output forms, exit codes, determinism."""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys

import pytest

from ncbinom import cli, rewrite
from ncbinom.cli import SuiteConfig, iter_cases, main, run_case
from ncbinom.scalars import ONE

from oracles import incomplete_vw_fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_expand_degree_zero(capsys):
    code, out = run_cli(capsys, "expand", "--n", "0")
    assert code == 0
    assert out == "free: I\nnormal (free): I\n"


def test_expand_degree_one(capsys):
    code, out = run_cli(capsys, "expand", "--n", "1")
    assert code == 0
    assert "free: D" in out


def test_expand_normalized(capsys):
    code, out = run_cli(
        capsys, "expand", "--n", "2", "--preset", "first-order-plus", "--lambda", "1"
    )
    assert code == 0
    assert "normal (first-order-plus): D D + D" in out
    assert "free: D D + D U - U D + D - U" in out


def test_expand_json(capsys):
    code, out = run_cli(capsys, "expand", "--n", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"n", "lambda", "preset", "free", "normal"}
    assert obj["normal"] == obj["free"]  # free preset applies no rules


def test_expand_rejects_preset_without_u(capsys):
    code, _ = run_cli(capsys, "expand", "--n", "1", "--preset", "partial-vw")
    assert code == 2


def test_verify_small_suite(capsys):
    code, out = run_cli(
        capsys, "verify", "thm-nou", "--n-max", "3", "--lambda", "1,i"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "total=8 passed=8 failed=0 skipped=0"
    assert all(line.startswith("[   PASS]") for line in lines[:-1])


def test_verify_json_schema(capsys):
    code, out = run_cli(
        capsys, "verify", "rec-3", "--n-max", "3", "--lambda", "2", "--format", "json"
    )
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary == {"summary": {"total": 3, "passed": 3, "failed": 0, "skipped": 0}}
    seen = set()
    for line in lines[:-1]:
        obj = json.loads(line)
        assert set(obj) == {"suite", "params", "status", "lhs", "rhs", "residual"}
        assert obj["status"] in ("pass", "fail", "skipped")
        key = json.dumps(obj["params"], sort_keys=True)
        assert key not in seen  # every case appears exactly once
        seen.add(key)


def test_verify_negative_control_exit_code(capsys):
    code, out = run_cli(
        capsys, "verify", "cor-kernel", "--n-max", "3", "--j", "3", "--lambda", "1"
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_skips_zero_lambda_where_hypothesis_needs_nonzero(capsys):
    code, out = run_cli(
        capsys, "verify", "thm-wrongsign", "--n-max", "2", "--lambda", "0"
    )
    assert code == 0  # skipped cases are not failures
    lines = out.strip().splitlines()
    assert lines[-1].endswith("skipped=3")
    assert all("SKIPPED" in line for line in lines[:-1])


def test_verify_suite_is_positional_only(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "lemma-eq5", "--n-max", "3"])
    assert info.value.code == 2


def test_third_order_at_zero_lambda_below_its_degree_is_an_empty_run(capsys):
    # the lambda = 0 skip row sits at n = 3, so --n-max 2 leaves no case at all
    code, out = run_cli(capsys, "verify", "third-order", "--n-max", "2", "--lambda", "0")
    assert (code, out) == (2, "")
    code, out = run_cli(capsys, "verify", "third-order", "--n-max", "3", "--lambda", "0")
    assert code == 0
    assert out.strip().splitlines()[-1].endswith("skipped=1")


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "bogus"])
    assert info.value.code == 2


def test_bad_lambda_literal_exits_2(capsys):
    code, _ = run_cli(capsys, "verify", "thm-nou", "--n-max", "1", "--lambda", "3//4")
    assert code == 2


def test_missing_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify"])
    assert info.value.code == 2


def test_output_is_deterministic(capsys):
    args = ("verify", "exp", "--n-max", "3", "--lambda", "1,i", "--format", "json")
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_jobs_do_not_change_output(capsys):
    base = ("verify", "lemma-l2", "--n-max", "4", "--lambda", "1,2", "--format", "json")
    _, out1 = run_cli(capsys, *base, "--jobs", "1")
    _, out2 = run_cli(capsys, *base, "--jobs", "2")
    assert out1 == out2


def test_confluence_suite_reports_a_divergent_preset(capsys, monkeypatch):
    # every case gets `partial-vw` without its D-V rule, which diverges on D W V
    monkeypatch.setattr(cli, "cached_preset", lambda *args: incomplete_vw_fixture(ONE))
    code, out = run_cli(capsys, "verify", "confluence", "--format", "json")
    assert code == 1
    rows = [json.loads(line) for line in out.strip().splitlines()[:-1]]
    assert [r["params"]["preset"] for r in rows] == list(cli.PRESET_NAMES)
    assert all(r["status"] == "fail" and "D W V" in r["residual"] for r in rows)
    code, out = run_cli(capsys, "verify", "confluence")
    assert code == 1
    *lines, summary = out.splitlines()
    assert all(line.startswith("[   FAIL] confluence preset=") for line in lines)
    n = len(cli.PRESET_NAMES)
    assert summary == f"total={n} passed=0 failed={n} skipped=0"


def test_iter_cases_respects_suite_defaults():
    cases = iter_cases("thm-nou", SuiteConfig())
    suite = cli.SUITES["thm-nou"]
    assert len(cases) == (suite.n_max + 1) * len(suite.lambdas)
    assert {c["lambda"] for c in cases} >= {"1", "0"}


def test_run_case_skip_marker():
    rep = run_case({"suite": "sin", "n": 2, "lambda": "0", "skip": "because"})
    assert rep.status == "skipped"
    assert rep.residual == "because"


def test_report_params_are_the_case_fields():
    """run_case names each case once: params are its fields but suite and skip, in order."""
    cfg = SuiteConfig(n_max=3)
    for suite in cli.SUITE_ORDER:
        for case in iter_cases(suite, cfg):
            fields = [(k, v) for k, v in case.items() if k not in ("suite", "skip")]
            params = list(run_case(case).params.items())
            if suite == "vector" and case["item"] == 4:
                # the sign probe follows the case fields
                assert params[:-1] == fields, case
                assert params[-1][0] == "minus_also_zero" and params[-1][1] in (True, False)
            else:
                assert params == fields, case


def test_every_declared_suite_enumerates():
    cfg = SuiteConfig(n_max=2)
    for suite in cli.SUITES:
        cases = iter_cases(suite, cfg)
        if suite in ("rec-7", "third-order"):  # these need n >= 3
            assert cases == []
            continue
        assert cases, suite


# ---- flags are checked before any case runs ---------------------------------


def flag_error(capsys, monkeypatch, *argv):
    """Exit code and stderr of a verify run that must stop before any case runs."""

    def no_case(case):
        raise AssertionError(f"case ran before the flags were checked: {case}")

    monkeypatch.setattr(cli, "run_case", no_case)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_negative_n_max_exits_2(capsys, monkeypatch):
    code, err = flag_error(capsys, monkeypatch, "verify", "thm-nou", "--n-max", "-1")
    assert code == 2
    assert "--n-max must be >= 0" in err


def test_empty_lambda_exits_2(capsys, monkeypatch):
    # an empty --lambda must not fall back to the default grid
    for value in ("", "1,,2"):
        code, err = flag_error(capsys, monkeypatch, "verify", "thm-nou", "--lambda", value)
        assert code == 2
        assert "empty scalar literal" in err


def test_expand_empty_lambda_exits_2(capsys):
    # an empty --lambda must not fall back to lambda = 0
    code = main(["expand", "--n", "2", "--lambda", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "empty scalar literal" in captured.err


def test_negative_j_exits_2(capsys, monkeypatch):
    code, err = flag_error(
        capsys, monkeypatch, "verify", "cor-kernel", "--n-max", "2", "--lambda", "1", "--j", "-1"
    )
    assert code == 2
    assert "--j must be >= 0" in err


def test_m_below_suite_minimum_exits_2(capsys, monkeypatch):
    code, err = flag_error(capsys, monkeypatch, "verify", "all", "--n-max", "2", "--m", "1")
    assert code == 2
    assert "--m must be >= 2 for eq5-matrix" in err
    code, err = flag_error(capsys, monkeypatch, "verify", "vector", "--n-max", "1", "--m", "0")
    assert code == 2
    assert "--m must be >= 1 for vector" in err


@pytest.mark.parametrize("suite", ["rec-7", "lemma-eq5", "linear", "eq5-matrix", "confluence"])
def test_lambda_on_suite_without_lambda_exits_2(capsys, monkeypatch, suite):
    code, err = flag_error(capsys, monkeypatch, "verify", suite, "--n-max", "3", "--lambda", "1")
    assert code == 2
    assert f"{suite} takes no lambda" in err


@pytest.mark.parametrize("suite, flag, value", [
    ("thm-nou", "--j", "0"),
    ("rec-3", "--m", "2"),
    ("vector", "--j", "0"),
    ("cor-kernel", "--m", "2"),
    ("confluence", "--j", "1"),
    ("thm-nou", "--seed", "5"),
    ("confluence", "--n-max", "0"),
])
def test_flag_on_suite_that_does_not_read_it_exits_2(capsys, monkeypatch, suite, flag, value):
    code, err = flag_error(capsys, monkeypatch, "verify", suite, "--n-max", "1", flag, value)
    assert code == 2
    assert f"{flag} given, but {suite} does not read it" in err


def test_suite_flags_under_all_go_to_their_readers():
    cli.check_flags("all", SuiteConfig(j=0, m=2, seed=5))
    cli.check_flags("cor-kernel", SuiteConfig(j=0))
    cli.check_flags("eq5-matrix", SuiteConfig(m=2))
    assert [c["preset"] for c in iter_cases("confluence", SuiteConfig())] == list(
        cli.PRESET_NAMES
    )


def test_small_confluence_degree_exits_2(capsys):
    # the confluence proof covers every word length, so --degree is no longer a flag
    with pytest.raises(SystemExit) as info:
        main(["verify", "all", "--n-max", "1", "--degree", "2"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --degree 2" in captured.err


def test_empty_run_exits_2(capsys, monkeypatch):
    code, err = flag_error(capsys, monkeypatch, "verify", "chvar-log", "--n-max", "2", "--j", "9")
    assert code == 2
    assert "no cases" in err


def test_exp_with_out_of_range_j_is_an_empty_run(capsys, monkeypatch):
    # exp n=0 reads no j, so it must not turn an unusable --j into a pass
    code, err = flag_error(
        capsys, monkeypatch, "verify", "exp", "--n-max", "3", "--j", "5", "--lambda", "1"
    )
    assert code == 2
    assert "no cases" in err
    assert {c["n"] for c in iter_cases("exp", SuiteConfig(n_max=2, lambdas=("1",), j=0))} == {1, 2}


def test_jobs_below_one_exits_2(capsys, monkeypatch):
    for jobs in ("0", "-3"):
        code, err = flag_error(
            capsys, monkeypatch, "verify", "thm-nou", "--n-max", "1", "--jobs", jobs
        )
        assert code == 2
        assert "--jobs must be >= 1" in err


def test_worker_count_is_clamped_to_cpus_and_cases(monkeypatch):
    # pure arithmetic and a stand-in pool: no process is started here
    assert cli.worker_count(5000, 2059, 2) == 2
    assert cli.worker_count(4, 3, 8) == 3
    assert cli.worker_count(1, 100, 8) == 1
    assert cli.worker_count(3, 100, None) == 1
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # `_run_cases` imports the pool class only when it starts more than one worker
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    cases = iter_cases("lemma-eq5", SuiteConfig(n_max=4))
    assert len(cli._run_cases(cases, 3)) == len(cases)
    assert sizes == [2]


# Run in a fresh interpreter, so that no other test's imports are counted; each
# list names the watched modules loaded since before `from ncbinom import cli`.
# The symbolic suites are every suite but the realizations; cor-vw runs abstract.
_IMPORT_FOOTPRINT = """
import sys
before = set(sys.modules)
from ncbinom import cli

WATCHED = ("argparse", "concurrent.futures", "dataclasses", "inspect", "multiprocessing",
           "ncbinom.realize", "typing")


def loaded():
    return [name for name in WATCHED if name in sys.modules and name not in before]


SYMBOLIC = ("thm-nou", "rec-3", "thm-wrongsign", "rec-6", "thm-2nd", "rec-7", "cor-kernel",
            "cor-vw", "lemma-l2", "lemma-l3", "lemma-eq5", "final-remark", "confluence")
for suite in SYMBOLIC:
    case = [c for c in cli.iter_cases(suite, cli.SuiteConfig())
            if c.get("variant") != "realized" and "skip" not in c][0]
    assert cli.run_case(case).status == "pass", suite
print("symbolic:", loaded())
assert cli.main(["expand", "--n", "2"]) == 0
print("expand:", loaded())
assert cli.run_case(cli.iter_cases("exp", cli.SuiteConfig(n_max=1))[-1]).status == "pass"
print("exp:", loaded())
"""


def run_script(script):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_serial_symbolic_run_imports_neither_pool_nor_realize():
    # no dataclasses, inspect or typing at all, and argparse only once `main` parses argv;
    # expand's own two lines (its forms) sit between the summary lines
    lines = run_script(_IMPORT_FOOTPRINT)
    assert [lines[0], lines[-2], lines[-1]] == [
        "symbolic: []", "expand: ['argparse']", "exp: ['argparse', 'ncbinom.realize']"]


_POOL_IMPORTS = """
import concurrent.futures, os, sys
from ncbinom import cli


class RecordingPool:
    def __init__(self, max_workers):
        print("realize before the pool:", "ncbinom.realize" in sys.modules)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


concurrent.futures.ProcessPoolExecutor = RecordingPool
os.cpu_count = lambda: 2
for suite in ("thm-nou", "exp"):
    cli._run_cases(cli.iter_cases(suite, cli.SuiteConfig(n_max=1)), 2)
"""


def test_pool_inherits_realize_only_when_a_case_needs_it():
    # forked workers share what the calling process imported before the pool starts
    assert run_script(_POOL_IMPORTS) == [
        "realize before the pool: False", "realize before the pool: True"]


def test_needs_realize_names_the_cases_that_call_realize(monkeypatch):
    calls = []
    real = cli._realize
    monkeypatch.setattr(cli, "_realize", lambda: calls.append(1) or real())
    for suite in cli.SUITE_ORDER:
        firsts = {}  # the first case of each variant
        for case in iter_cases(suite, SuiteConfig()):
            if "skip" not in case:
                firsts.setdefault(case.get("variant"), case)
        for case in firsts.values():
            calls.clear()
            run_case(case)
            assert bool(calls) == cli.needs_realize(case), case


# ---- pinned report streams ------------------------------------------------------

# sha256 of stdout; together these cover every suite, the skip reports and
# both the rational and the general scalar paths
PINNED_STREAMS = {
    "default-lambdas": (
        ("verify", "all", "--n-max", "3", "--format", "json"),
        808,
        "eef359ed7f2d3f119c9e7f5d4b7f88bce64466e864681e9eb13d593e6241ef2b",
    ),
    "mixed-lambdas": (
        ("verify", "all", "--n-max", "3", "--lambda", "1,-3,1/2,i,1+i,0", "--format", "json"),
        802,
        "3fe2097954fc8523398835d1e14f9af7a7b16afd1d0de6d71c4ac1c243abe85b",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_report_stream_is_pinned(capsys, name):
    argv, lines, digest = PINNED_STREAMS[name]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SYMBOLIC_SUITES = ("thm-nou", "rec-3", "thm-wrongsign", "rec-6", "thm-2nd", "rec-7",
                   "cor-kernel", "cor-vw", "lemma-l2", "lemma-l3", "final-remark")


def test_symbolic_reports_do_not_depend_on_suite_order(monkeypatch):
    """A case that finds its B(n) in `build_binomial`'s memo reports what a fresh build does."""
    cfg = SuiteConfig(n_max=5)

    def reports(order):
        monkeypatch.setattr(rewrite, "_preset_cache", {})
        # the realized cor-vw cases use no preset
        return {suite: "".join(json.dumps(run_case(case).to_json_obj()) + "\n"
                               for case in iter_cases(suite, cfg)
                               if case.get("variant") != "realized")
                for suite in order}

    forward = reports(SYMBOLIC_SUITES)
    assert reports(SYMBOLIC_SUITES[::-1]) == forward
