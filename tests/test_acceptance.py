"""Acceptance criteria, one test per criterion, all comparisons exact.

Each test drives the same case grids the CLI ships with (via iter_cases
and run_case) and prints one PASS/FAIL line; run with `pytest -s` to see
the lines on success.  There are no numeric tolerances anywhere: a
criterion passes only if every residual is exactly zero (or exactly
nonzero where the claim is negative).
"""

import random
import time

from ncbinom.binomial import build_binomial
from ncbinom.cli import SuiteConfig, iter_cases, run_case
from ncbinom.freealg import Alphabet, NcPoly
from ncbinom.realize import FuncExpr, apply_assigned, sin_func
from ncbinom.report import FAIL
from ncbinom.rewrite import cached_preset, check_confluence, normalize, restrict_to_kernel
from ncbinom.scalars import IMAG, ONE, parse_scalar

from oracles import incomplete_vw_fixture, letter_actions, safe_block, truncated_shift_matrix

NONZERO_LAMBDAS = ("1", "2", "-3", "1/2", "i", "1+i")
ALL_LAMBDAS = NONZERO_LAMBDAS + ("0",)


def run_suite(suite: str, **kwargs):
    cfg = SuiteConfig(**kwargs)
    reports = [run_case(case) for case in iter_cases(suite, cfg)]
    failed = [r for r in reports if r.status == FAIL]
    return reports, failed


def announce(index: int, description: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {index:>2} {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {index}: {description} {detail}"


def test_criterion_01_u_independence():
    start = time.time()
    reports, failed = run_suite("thm-nou", n_max=10, lambdas=ALL_LAMBDAS)
    elapsed = time.time() - start
    ok = not failed and len(reports) == 11 * 7 and elapsed < 60
    announce(
        1,
        "combination collapses to the pure-D product for n<=10, no U remains",
        ok,
        f"failed={len(failed)} elapsed={elapsed:.1f}s",
    )


def test_criterion_02_alternative_expansion():
    reports, failed = run_suite("lemma-l2", n_max=10, lambdas=ALL_LAMBDAS)
    ok = not failed and len(reports) == 10 * 7
    announce(2, "both expansions agree term-wise in the free algebra, n=1..10", ok,
             f"failed={len(failed)}")


def test_criterion_03_recurrences():
    _, failed3 = run_suite("rec-3", n_max=10, lambdas=NONZERO_LAMBDAS)
    reports6, failed6 = run_suite("rec-6", n_max=8, lambdas=NONZERO_LAMBDAS)
    reports7, failed7 = run_suite("rec-7", n_max=8)
    has_two_term = any(r.params.get("n") == 2 for r in reports6)
    ok = not (failed3 or failed6 or failed7) and has_two_term and len(reports7) == 6
    announce(3, "one-, three-, and two-step recurrences hold on their stated ranges", ok)


def test_criterion_04_minus_commutator_theorem():
    reports, failed = run_suite("thm-wrongsign", n_max=10, lambdas=NONZERO_LAMBDAS)
    lam = parse_scalar("2")
    preset = cached_preset("first-order-minus", lam)
    u = preset.generator("U")
    b2 = build_binomial(2, lam, u, preset.generator("D"))
    spot = restrict_to_kernel(b2, preset) == (-2 * lam) * u
    ok = not failed and len(reports) == 11 * 6 and spot
    announce(4, "minus-commutator kernel forms, with the n=2 spot value -2*lam*U", ok)


def test_criterion_05_second_commutator_theorem():
    reports, failed = run_suite("thm-2nd", n_max=8, lambdas=ALL_LAMBDAS)
    ok = not failed and len(reports) == 9 * 7
    announce(5, "second-commutator kernel forms for lam zero and nonzero, n<=8", ok,
             f"failed={[r.params for r in failed]}")


def test_criterion_06_kernel_and_w_independence():
    _, failed_kernel = run_suite("cor-kernel", n_max=8, lambdas=NONZERO_LAMBDAS)
    negative = [run_case({"suite": "cor-kernel", "n": n, "lambda": "1", "j": n})
                for n in (1, 2, 3, 5)]
    negative_ok = all(r.status == FAIL for r in negative)
    reports_vw, failed_vw = run_suite("cor-vw", n_max=8, lambdas=NONZERO_LAMBDAS)
    realized = [r for r in reports_vw if r.params.get("variant") == "realized"]
    ok = (
        not failed_kernel
        and negative_ok
        and not failed_vw
        and realized
        # each realized row states one operator sum_r p_r*D^r on its n + 1 slots, with a zero
        # residual: equal as operators, the two combinations agree on every input
        and all(r.lhs.count(", ") == r.params["n"] and set(r.residual[1:-1].split(", ")) == {"0"}
                for r in realized)
    )
    announce(6, "eigenvector kernels annihilate; W never matters, out-of-range j fails", ok)


def test_criterion_07_invertible_forms():
    _, failed_l3 = run_suite("lemma-l3", n_max=8, lambdas=NONZERO_LAMBDAS)
    _, failed_fr = run_suite("final-remark", n_max=8, lambdas=NONZERO_LAMBDAS)
    ok = not (failed_l3 or failed_fr)
    announce(7, "inverse factorization and the non-binomial closed form, n<=8", ok)


def test_criterion_08_shift_binomial():
    reports_free, failed_free = run_suite("lemma-eq5", n_max=8)
    reports_mat, failed_mat = run_suite("eq5-matrix", n_max=6)
    dims = {r.params["dim"] for r in reports_mat}
    seeds = {r.params["seed"] for r in reports_mat}
    ok = (
        not (failed_free or failed_mat)
        and len(reports_free) == 9
        and dims == {2, 3}
        and seeds == {7, 42}
    )
    announce(8, "shifted binomial sum identity, free algebra and matrix oracle", ok)


def test_criterion_09_elementary_functions():
    _, failed_exp = run_suite("exp", n_max=8, lambdas=NONZERO_LAMBDAS)
    _, failed_sin = run_suite("sin", n_max=8, lambdas=NONZERO_LAMBDAS)
    _, failed_lin = run_suite("linear", n_max=8)
    _, failed_g = run_suite("chvar-gauss", n_max=6, lambdas=NONZERO_LAMBDAS)
    _, failed_l = run_suite("chvar-log", n_max=6, lambdas=NONZERO_LAMBDAS)

    # closed-form spot values at n = 2, lam = 2
    ud = Alphabet(("U", "D"))
    u, d = NcPoly.generator(ud, "U"), NcPoly.generator(ud, "D")
    lam = parse_scalar("2")
    decay = letter_actions(FuncExpr.exponential(-lam))
    exp_spot = apply_assigned(build_binomial(2, lam, u, d), decay, FuncExpr.one())
    spot1 = exp_spot == FuncExpr.exponential(-lam).scaled(-2 * lam)
    sine = letter_actions(sin_func(lam))
    sin_spot = apply_assigned(build_binomial(2, IMAG * lam, u, d), sine, FuncExpr.one())
    spot2 = sin_spot == FuncExpr.exponential(-(IMAG * lam)).scaled(lam)

    ok = not (failed_exp or failed_sin or failed_lin or failed_g or failed_l)
    ok = ok and spot1 and spot2
    announce(9, "exponential, sine, linear, and change-of-variable identities", ok)


def test_criterion_10_vector_identities():
    reports, failed = run_suite("vector", n_max=6)
    items = {r.params["item"] for r in reports}
    sign_reports = [
        r for r in reports
        if r.params["item"] == 4 and r.params["n"] % 2 == 0 and r.params["n"] > 0
        and not parse_scalar(r.params["lambda"]).is_zero
    ]
    # the plus sign holds (case passes); the minus sign fails on even degrees
    sign_ok = bool(sign_reports) and all(
        r.params["minus_also_zero"] is False for r in sign_reports
    )
    ok = not failed and items == set(range(1, 9)) and sign_ok
    announce(10, "vector-valued identities for m in {2,3}; shift sign determined", ok)


def test_criterion_11_oracle_coherence():
    rng = random.Random(424242)
    agree = True
    for preset_name in ("first-order-plus", "first-order-minus"):
        preset = cached_preset(preset_name, parse_scalar("1/2"))
        alpha = preset.alphabet
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                word = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 5)))
                terms[word] = terms.get(word, 0) + rng.randint(-4, 4)
            p = NcPoly(alpha, terms)
            size = p.letter_degree("U") + 3
            block = size - p.letter_degree("U")
            lhs = truncated_shift_matrix(p, preset, size)
            rhs = truncated_shift_matrix(normalize(p, preset), preset, size)
            agree = agree and safe_block(lhs, block) == safe_block(rhs, block)

    # realization pipeline matches the symbolic pipeline on shared suites
    pipelines = True
    test_funcs = [FuncExpr.one(), FuncExpr.term(1, c=1, alpha=parse_scalar("1/2"))]
    for lam_text in ("1", "1/2"):
        lam = parse_scalar(lam_text)
        plus = cached_preset("first-order-plus", lam)
        minus = cached_preset("first-order-minus", lam)
        second = cached_preset("second-order", IMAG * lam)
        asg_plus = letter_actions(FuncExpr.exponential(lam))
        asg_minus = letter_actions(FuncExpr.exponential(-lam))
        # lam*cos(lam*x) = (lam/2) * (e^{i lam x} + e^{-i lam x})
        lam_cos = (
            FuncExpr.exponential(IMAG * lam) + FuncExpr.exponential(-(IMAG * lam))
        ).scaled(lam * parse_scalar("1/2"))
        asg_second = letter_actions(sin_func(lam)) | {"C": lambda g: lam_cos * g}
        for preset, asg in ((plus, asg_plus), (minus, asg_minus), (second, asg_second)):
            u = preset.generator("U")
            d = preset.generator("D")
            b_lam = IMAG * lam if preset is second else lam
            for n in range(5):
                b = build_binomial(n, b_lam, u, d)
                nb = normalize(b, preset)
                for f in test_funcs:
                    pipelines = pipelines and (
                        apply_assigned(b, asg, f) == apply_assigned(nb, asg, f)
                    )
    ok = agree and pipelines
    announce(11, "shift-matrix oracle and realization pipeline agree with the engine", ok)


def test_criterion_12_confluence():
    reports, failed = run_suite("confluence")
    fixture = check_confluence(incomplete_vw_fixture(ONE))
    fixture_ok = not fixture.ok and any(w == "D W V" for w, _ in fixture.divergent)
    ok = not failed and len(reports) == 8 and fixture_ok
    announce(12, "every shipped rule set resolves its overlaps; fixture diverges on D W V", ok)


def test_criterion_13_third_order_negative_claim():
    reports, failed = run_suite("third-order", n_max=5)
    ns = {r.params["n"] for r in reports}
    no_mu = all("mu" not in r.params for r in reports)
    ok = not failed and ns == {3, 5} and no_mu and len(reports) == 2
    announce(13, "no parameter collapses the third-order exponential sum", ok)
