"""Builders and symbolic identity verifiers."""

import math
import random
import sys

import pytest

from ncbinom import rewrite
from ncbinom.binomial import (
    binomial_sum,
    build_binomial,
    build_binomial_alt,
    cached_binomial,
    double_factorial,
    falling_product,
    power_sum,
    running_products,
    verify_alt_expansion,
    verify_ascending_recurrence,
    verify_central_recurrence,
    verify_minus_recurrence,
)
from ncbinom.cli import SuiteConfig, iter_cases, run_case
from ncbinom.freealg import Alphabet, NcPoly
from ncbinom.realize import Matrix, random_matrix
from ncbinom.report import PASS
from ncbinom.rewrite import Normal, cached_preset, make_preset, normalize, restrict_to_kernel
from ncbinom.scalars import ONE, ZERO, parse_scalar

UD = Alphabet(("U", "D"))
U = NcPoly.generator(UD, "U")
D = NcPoly.generator(UD, "D")
I = NcPoly.unit(UD)


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(3) == 3
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    for k in range(1, 12):
        assert double_factorial(k) == k * double_factorial(k - 2)


def test_build_small_degrees():
    assert build_binomial(0, ONE, U, D) == I
    assert build_binomial(1, ONE, U, D) == D
    lam = parse_scalar("2")
    # hand expansion: the U^2 terms cancel
    expected = D * D + D * U - U * D + lam * D - lam * U
    assert build_binomial(2, lam, U, D) == expected


def test_build_matches_displayed_sum_at_n2():
    lam = ONE
    by_parts = U * U + 2 * ((D - U) * U) + (D - U) * (D - U + lam * I)
    assert build_binomial(2, lam, U, D) == by_parts


def test_alt_expansion_examples():
    assert build_binomial_alt(1, ONE, U, D) == D
    lam = parse_scalar("1/2")
    assert build_binomial_alt(2, lam, U, D) == build_binomial(2, lam, U, D)
    assert build_binomial_alt(5, ONE, U, D) == build_binomial(5, ONE, U, D)
    with pytest.raises(ValueError):
        build_binomial_alt(0, ONE, U, D)


@pytest.mark.parametrize("lam_text", ["1", "-3", "i", "1+i", "0"])
def test_alt_expansion_is_free_identity(lam_text):
    lam = parse_scalar(lam_text)
    for n in range(1, 7):
        assert build_binomial(n, lam, U, D) == build_binomial_alt(n, lam, U, D)


def test_alt_expansion_verifier():
    assert run_case({"suite": "lemma-l2", "n": 5, "lambda": "i"}).status == PASS
    with pytest.raises(ValueError):
        verify_alt_expansion(0, ONE)


def test_u_independence_small():
    rep = run_case({"suite": "thm-nou", "n": 2, "lambda": "1"})
    assert rep.status == PASS
    preset = cached_preset("first-order-plus", ONE)
    d = preset.generator("D")
    nf = normalize(build_binomial(2, ONE, preset.generator("U"), d), preset)
    assert nf == d * d + d
    assert run_case({"suite": "thm-nou", "n": 0, "lambda": "i"}).status == PASS
    assert run_case({"suite": "thm-nou", "n": 7, "lambda": "1/2"}).status == PASS


def test_u_independence_no_u_letters():
    for lam_text in ("1", "i", "1/2"):
        lam = parse_scalar(lam_text)
        preset = cached_preset("first-order-plus", lam)
        u, d = preset.generator("U"), preset.generator("D")
        for n in range(7):
            nf = normalize(build_binomial(n, lam, u, d), preset)
            assert nf.letter_degree("U") == 0


def test_homogeneity_of_product_form():
    for lam_text in ("2", "-3", "i", "1/2"):
        lam = parse_scalar(lam_text)
        for n in range(6):
            rescaled = lam**n * falling_product(n, ONE, lam.inv() * D)
            assert rescaled == falling_product(n, lam, D)


def test_ascending_recurrence():
    assert run_case({"suite": "rec-3", "n": 1, "lambda": "1"}).status == PASS
    rep = run_case({"suite": "rec-3", "n": 2, "lambda": "1"})
    assert rep.status == PASS and rep.lhs == "D D + D"
    assert run_case({"suite": "rec-3", "n": 8, "lambda": "i"}).status == PASS
    with pytest.raises(ValueError):
        verify_ascending_recurrence(0, ONE)


def test_minus_theorem_spot_values():
    assert run_case({"suite": "thm-wrongsign", "n": 1, "lambda": "1"}).status == PASS
    lam = ONE
    preset = cached_preset("first-order-minus", lam)
    u, d = preset.generator("U"), preset.generator("D")
    assert restrict_to_kernel(build_binomial(2, lam, u, d), preset) == (-2 * lam) * u
    # n = 4: 3!! * (-2)^2 = 12 on U^2
    assert restrict_to_kernel(build_binomial(4, lam, u, d), preset) == 12 * (u * u)
    assert run_case({"suite": "thm-wrongsign", "n": 4, "lambda": "1"}).status == PASS


def test_minus_theorem_parity_dichotomy():
    lam = parse_scalar("2")
    preset = cached_preset("first-order-minus", lam)
    u, d = preset.generator("U"), preset.generator("D")
    for n in range(9):
        restricted = restrict_to_kernel(build_binomial(n, lam, u, d), preset)
        assert restricted.is_zero == (n % 2 == 1)


def test_minus_recurrence():
    assert run_case({"suite": "rec-6", "n": 2, "lambda": "1"}).status == PASS  # two-term form
    assert run_case({"suite": "rec-6", "n": 3, "lambda": "1"}).status == PASS
    assert run_case({"suite": "rec-6", "n": 6, "lambda": "-3"}).status == PASS
    with pytest.raises(ValueError):
        verify_minus_recurrence(1, ONE)


def test_second_theorem_spot_values():
    lam = ONE
    preset = cached_preset("second-order", lam)
    u, c, d = preset.generator("U"), preset.generator("C"), preset.generator("D")
    assert restrict_to_kernel(build_binomial(2, lam, u, d), preset) == c - lam * u
    assert run_case({"suite": "thm-2nd", "n": 2, "lambda": "1"}).status == PASS
    assert run_case({"suite": "thm-2nd", "n": 1, "lambda": "0"}).status == PASS
    # at lam = 0 the restriction of the n=2 case is the commutator itself
    preset0 = cached_preset("second-order", ZERO)
    b2 = build_binomial(2, ZERO, preset0.generator("U"), preset0.generator("D"))
    assert restrict_to_kernel(b2, preset0) == preset0.generator("C")


def test_second_theorem_parity_dichotomy():
    lam = parse_scalar("i")
    preset = cached_preset("second-order", lam)
    u, d = preset.generator("U"), preset.generator("D")
    for n in range(8):
        restricted = restrict_to_kernel(build_binomial(n, lam, u, d), preset)
        assert restricted.is_zero == (n % 2 == 1)


def test_central_recurrence():
    assert run_case({"suite": "rec-7", "n": 3}).status == PASS
    rep = run_case({"suite": "rec-7", "n": 4})
    assert rep.status == PASS
    preset = cached_preset("second-order-central", ZERO)
    c = preset.generator("C")
    b4 = build_binomial(4, ZERO, preset.generator("U"), preset.generator("D"))
    lhs = restrict_to_kernel(b4, preset)
    assert lhs == 3 * (c * c)
    assert run_case({"suite": "rec-7", "n": 5}).status == PASS
    with pytest.raises(ValueError):
        verify_central_recurrence(2)


def test_kernel_vectors():
    assert run_case({"suite": "cor-kernel", "n": 1, "lambda": "1", "j": 0}).status == PASS
    assert run_case({"suite": "cor-kernel", "n": 3, "lambda": "1", "j": 1}).status == PASS
    negative = run_case({"suite": "cor-kernel", "n": 3, "lambda": "1", "j": 3})
    assert negative.status != PASS
    # residual of the negative control is the predicted product (-3)(-2)(-1)
    assert negative.residual == "-6"


def test_w_independence_abstract():
    for n, mu in ((1, "0"), (2, "0"), (5, "2")):
        assert run_case({"suite": "cor-vw", "n": n, "lambda": "1", "mu": mu,
                         "variant": "abstract"}).status == PASS


def test_inverse_factorization():
    for n in (0, 1, 4):
        assert run_case({"suite": "lemma-l3", "n": n, "lambda": "1"}).status == PASS


def test_shift_binomial_identity():
    rep1 = run_case({"suite": "lemma-eq5", "n": 1})
    assert rep1.status == PASS and rep1.lhs == "A2 + A1"
    assert run_case({"suite": "lemma-eq5", "n": 2}).status == PASS
    assert run_case({"suite": "lemma-eq5", "n": 6}).status == PASS


def test_noncommuting_binomial_form():
    for n in (0, 1, 3):
        assert run_case({"suite": "final-remark", "n": n, "lambda": "1"}).status == PASS


# ---- independent oracle for binomial_sum and the builders -----------------

ORACLE_LAMBDAS = ["0", "1", "-3", "1/2", "i", "1+i"]
VWD = Alphabet(("V", "W", "D"))
V_PLUS_W = NcPoly.generator(VWD, "V") + NcPoly.generator(VWD, "W")


def _reference_sum(n, term):
    """Sum over k of C(n,k) * term(k), with math.comb for the coefficients."""
    terms = [math.comb(n, k) * term(k) for k in range(n + 1)]
    return sum(terms[1:], terms[0])


def _reference_chain(k, lam, u, d):
    unit = NcPoly.unit(u.alphabet)
    chain = unit
    for j in range(k):
        chain = chain * (d - u + (lam * j) * unit)
    return chain


def _reference_binomial(n, lam, u, d):
    return _reference_sum(n, lambda k: _reference_chain(k, lam, u, d) * u ** (n - k))


def _reference_binomial_alt(n, lam, u, d):
    unit = NcPoly.unit(u.alphabet)
    return _reference_sum(n - 1, lambda k: (
        _reference_chain(k, lam, u, d) * (d + (lam * k) * unit) * u ** (n - 1 - k)))


@pytest.mark.parametrize("lam_text", ORACLE_LAMBDAS)
def test_builders_agree_with_reference_sum(lam_text):
    lam = parse_scalar(lam_text)
    d_vw = NcPoly.generator(VWD, "D")
    for n in range(8):
        assert build_binomial(n, lam, U, D) == _reference_binomial(n, lam, U, D)
        assert (build_binomial(n, lam, V_PLUS_W, d_vw)
                == _reference_binomial(n, lam, V_PLUS_W, d_vw))
    for n in range(1, 8):
        assert build_binomial_alt(n, lam, U, D) == _reference_binomial_alt(n, lam, U, D)
        assert (build_binomial_alt(n, lam, V_PLUS_W, d_vw)
                == _reference_binomial_alt(n, lam, V_PLUS_W, d_vw))


@pytest.mark.parametrize("dim", [2, 3])
def test_binomial_sum_over_matrices_agrees_with_reference(dim):
    rng = random.Random(dim)
    ident = Matrix.identity(dim)
    for n in range(6):
        a1, a2 = random_matrix(rng, dim), random_matrix(rng, dim)
        got = binomial_sum(n, [a1 - ident] * n, running_products(ident, [a2 + ident] * n))
        assert got == _reference_sum(n, lambda k: (a1 - ident) ** k * (a2 + ident) ** (n - k))
        assert power_sum(n, a1, a2, ident) == _reference_sum(n, lambda k: a1**k * a2 ** (n - k))


@pytest.mark.parametrize("dim", [2, 3])
def test_binomial_sum_takes_each_factor_in_order(dim):
    """A different F_k at each position and distinct right terms: the k-th
    term is C(n,k) * F_0 ... F_(k-1) * right[n-k], multiplied left to right."""
    rng = random.Random(10 + dim)
    ident = Matrix.identity(dim)
    for n in range(7):
        factors = [random_matrix(rng, dim) for _ in range(n)]
        right = [random_matrix(rng, dim) for _ in range(n + 1)]

        def term(k):
            chain = ident
            for factor in factors[:k]:
                chain = chain * factor
            return chain * right[n - k]

        assert binomial_sum(n, factors, right) == _reference_sum(n, term)


def test_binomial_sum_at_large_degree():
    # the coefficients come from math.comb: no recursion depth, no cache to grow
    assert binomial_sum(1200, [1] * 1200, [1] * 1201) == 2**1200


def test_build_forms_no_word_longer_than_n(monkeypatch):
    """Building B(n) multiplies out no product of degree above n."""
    longest = []
    mul = NcPoly.__mul__

    def recording_mul(self, other):
        result = mul(self, other)
        longest.append(max(map(len, result.terms), default=0))
        return result

    monkeypatch.setattr(NcPoly, "__mul__", recording_mul)
    for n in range(1, 7):
        # an empty memo, so the build runs and records its products
        cached_binomial.cache_clear()
        longest.clear()
        cached_binomial(n, parse_scalar("1+i"), U, D)
        assert longest and max(longest) <= n
        longest.clear()
        build_binomial_alt(n, parse_scalar("1+i"), U, D)
        assert longest and max(longest) <= n


@pytest.mark.parametrize("arithmetic", ["free", "normal"])
def test_build_makes_3n_minus_1_products_each_with_a_small_operand(monkeypatch, arithmetic):
    """The folded Horner rule: n - 1 powers of u, then one product by d and one by u per step."""
    preset = make_preset("partial-vw", ONE, parse_scalar("2"))
    generator = preset.generator if arithmetic == "free" else preset.normal_generator
    u, d = generator("V") + generator("W"), generator("D")
    left = []
    # the product each arithmetic calls: a Normal product never reaches NcPoly.__mul__
    kind = type(u)
    mul = kind.__mul__

    def recording_mul(self, other):
        left.append(self)
        return mul(self, other)

    monkeypatch.setattr(kind, "__mul__", recording_mul)
    for n in range(1, 9):
        left.clear()
        build_binomial(n, ONE, u, d)
        assert len(left) == 3 * n - 1
        # the left operand is u or d itself, with at most 2 terms
        assert all(x is u or x is d for x in left)
        assert max(len(x.terms) for x in left) <= 2


# ---- normal arithmetic against the free expansion ---------------------------

# (preset, lambda literal or None for the preset's own, the letters summed into u)
NORMAL_PATH_CASES = (
    ("first-order-plus", None, ("U",)),
    ("first-order-minus", None, ("U",)),
    ("second-order", None, ("U",)),
    ("second-order-central", "0", ("U",)),
    ("invertible-plus", None, ("U",)),
    ("invertible-minus", None, ("U",)),
    ("partial-vw", None, ("V", "W")),
    ("partial-vw", None, ("V",)),
)


def _free_and_normal(preset, *names):
    """Each named generator twice: as a plain NcPoly and as a Normal of the preset."""
    return ([preset.generator(n) for n in names], [preset.normal_generator(n) for n in names])


@pytest.mark.parametrize("lam_text", ["1", "1+i"])
def test_normal_arithmetic_agrees_with_free_expansion(lam_text):
    """B(n) from Normal generators is the normal form of the free expansion, n <= 7."""
    for name, build_lam, u_names in NORMAL_PATH_CASES:
        preset = make_preset(name, parse_scalar(lam_text), parse_scalar("2"))
        lam = parse_scalar(build_lam or lam_text)
        (free_d,), (normal_d,) = _free_and_normal(preset, "D")
        free_u, normal_u = (sum(g[1:], g[0]) for g in _free_and_normal(preset, *u_names))
        for n in range(8):
            normal = build_binomial(n, lam, normal_u, normal_d)
            assert isinstance(normal, Normal) and normal.preset is preset
            assert normal == normalize(build_binomial(n, lam, free_u, free_d), preset)
            assert (falling_product(n, lam, normal_d)
                    == normalize(falling_product(n, lam, free_d), preset))


@pytest.mark.parametrize("lam_text", ["1", "1+i"])
def test_normal_arithmetic_agrees_on_the_invertible_forms(lam_text):
    """(D Uinv)^n U^n and power_sum(DU - U^2, U^2, I) Uinv^n, normal against free."""
    for name in ("invertible-plus", "invertible-minus"):
        preset = make_preset(name, parse_scalar(lam_text))
        free, normal = _free_and_normal(preset, "Uinv", "U", "D")
        unit = NcPoly.unit(preset.alphabet)
        for n in range(7):
            factored, core = [], []
            for uinv, u, d in (free, normal):
                factored.append((d * uinv) ** n * u**n)
                core.append(power_sum(n, d * u - u * u, u * u, unit) * uinv**n)
            for free_value, normal_value in (factored, core):
                assert isinstance(normal_value, Normal)
                assert normal_value == normalize(free_value, preset)


def test_normal_binomial_is_built_once_per_preset(monkeypatch):
    preset = make_preset("first-order-plus", ONE)
    u, d = preset.normal_generator("U"), preset.normal_generator("D")
    products = []
    mul = Normal.__mul__

    def recording_mul(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Normal, "__mul__", recording_mul)
    cached_binomial.cache_clear()
    first = cached_binomial(6, ONE, u, d)
    assert products
    products.clear()
    assert cached_binomial(6, ONE, u, d) is first
    assert not products
    # the builder itself keeps nothing: each call builds a fresh, equal value
    fresh = build_binomial(6, ONE, u, d)
    assert products and fresh == first and fresh is not first
    assert build_binomial(6, ONE, u, d) is not fresh


def test_normal_binomial_memo_keys_on_lambda_and_u():
    """cached_binomial keys its memo on (n, lam, u, d) and their types, for Normal generators too."""
    cached_binomial.cache_clear()

    def size():
        return cached_binomial.cache_info().currsize

    # a repeated call returns the same object, though each call makes new generator objects
    preset = make_preset("partial-vw", ONE, parse_scalar("2"))
    v, w, d = map(preset.normal_generator, ("V", "W", "D"))
    at_one = cached_binomial(4, ONE, v, d)
    again = cached_binomial(4, ONE, preset.normal_generator("V"), preset.normal_generator("D"))
    assert again is at_one and size() == 1
    # another lambda, or v + w for v, is a separate entry: cor-vw compares two builds
    assert cached_binomial(4, parse_scalar("1+i"), v, d) != at_one
    assert size() == 2
    both = cached_binomial(4, ONE, v + w, d)
    assert both == at_one and both is not at_one
    assert size() == 3
    # plain and Normal generators with equal terms compare equal but key separate
    # entries, and each result keeps its arithmetic, whichever is built first
    free_v, free_d = preset.generator("V"), preset.generator("D")
    assert free_v == v and free_d == d
    free = cached_binomial(4, ONE, free_v, free_d)
    assert type(free) is NcPoly and free != at_one
    assert size() == 4
    free_5 = cached_binomial(5, ONE, free_v, free_d)
    normal_5 = cached_binomial(5, ONE, v, d)
    assert type(free_5) is NcPoly
    assert isinstance(normal_5, Normal) and normal_5.preset is preset
    assert normal_5 == normalize(free_5, preset)
    assert size() == 6
    # a preset with equal rules is another preset: its own entry and its own Normal
    twin = make_preset("partial-vw", ONE, parse_scalar("2"))
    at_twin = cached_binomial(4, ONE, twin.normal_generator("V"), twin.normal_generator("D"))
    assert at_twin.preset is twin and at_twin is not at_one
    assert size() == 7


def test_normal_verifiers_coerce_no_plain_unit(monkeypatch):
    """Units and zeros mixed into `Normal` sums are Normal already; none is normalized again."""
    real = rewrite.normalize
    coerced = []

    def recording(p, preset):
        # a plain c * I, zero included: every word of it is empty
        if type(p) is NcPoly and not any(p.terms):
            coerced.append(sys._getframe(1).f_code.co_name)
        return real(p, preset)

    monkeypatch.setattr(rewrite, "normalize", recording)
    for suite in ("thm-wrongsign", "rec-3", "rec-6", "final-remark", "cor-kernel"):
        for case in iter_cases(suite, SuiteConfig(n_max=4)):
            assert run_case(case).status in ("pass", "skipped"), case
    # a product of two normal forms is normalized whole (final-remark's I * Uinv^0 at n = 0)
    assert "_coerce" not in coerced
