"""Normal ordering: presets, their descent check, kernel ops, confluence."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbinom.binomial import build_binomial
from ncbinom.freealg import NcPoly, accumulate, commutator
from ncbinom.rewrite import (
    PRESET_NAMES,
    Normal,
    RelationPreset,
    check_confluence,
    kernel_eval,
    make_preset,
    normalize,
    restrict_to_kernel,
)
from ncbinom.scalars import ONE, ZERO, CycloScalar, parse_scalar

from oracles import incomplete_vw_fixture


def gens(preset, *names):
    return tuple(preset.generator(n) for n in names)


def test_normalize_basic_swap():
    p = make_preset("first-order-plus", ONE)
    u, d = gens(p, "U", "D")
    assert normalize(d * u, p) == u * d + u
    p0 = make_preset("first-order-plus", ZERO)
    u0, d0 = gens(p0, "U", "D")
    assert normalize(d0 * u0, p0) == u0 * d0


def test_normalize_two_steps():
    lam = parse_scalar("2")
    p = make_preset("first-order-plus", lam)
    u, d = gens(p, "U", "D")
    # two hand rewrite steps: D D U -> U D D + 2*lam U D + lam^2 U
    expected = u * d * d + (2 * lam) * (u * d) + (lam * lam) * u
    assert normalize(d * d * u, p) == expected


@pytest.mark.parametrize("m", range(1, 7))
def test_power_commutation_identity(m):
    lam = parse_scalar("1/2")
    p = make_preset("first-order-plus", lam)
    u, d = gens(p, "U", "D")
    lhs = normalize(d * u**m, p)
    rhs = normalize(u**m * d + (lam * m) * u**m, p)
    assert lhs == rhs


def test_inverse_cancellation():
    p = make_preset("invertible-plus", ONE)
    uinv, u = gens(p, "Uinv", "U")
    assert normalize(u * uinv, p) == NcPoly.unit(p.alphabet)
    assert normalize(uinv * u, p) == NcPoly.unit(p.alphabet)


@pytest.mark.parametrize("m", range(1, 5))
def test_power_commutation_extends_to_negative_powers(m):
    lam = parse_scalar("2")
    p = make_preset("invertible-plus", lam)
    uinv, d = gens(p, "Uinv", "D")
    # commuting D past the m-th inverse power costs -lam*m
    lhs = normalize(d * uinv**m, p)
    rhs = normalize(uinv**m * d - (lam * m) * uinv**m, p)
    assert lhs == rhs


@pytest.mark.parametrize("m", range(1, 6))
def test_central_commutator_power_rule(m):
    p = make_preset("second-order-central")
    u, c, d = gens(p, "U", "C", "D")
    lhs = normalize(commutator(d, u**m), p)
    rhs = normalize(m * (c * u ** (m - 1)), p)
    assert lhs == rhs


def test_restrict_examples():
    lam = ONE
    p = make_preset("first-order-minus", lam)
    u, d = gens(p, "U", "D")
    assert restrict_to_kernel(d, p).is_zero
    assert restrict_to_kernel(NcPoly.unit(p.alphabet), p) == NcPoly.unit(p.alphabet)
    # free expansion of the n=2 combination, restricted: -2*lam*U
    b2 = d * d + d * u - u * d + lam * d - lam * u
    assert restrict_to_kernel(b2, p) == (-2 * lam) * u


def test_restrict_keeps_words_with_an_inner_d():
    # under `free` nothing reorders, so D U is a normal form and D does not act first
    p = make_preset("free")
    u, d = gens(p, "U", "D")
    assert restrict_to_kernel(d * u, p) == d * u
    unit = NcPoly.unit(p.alphabet)
    assert restrict_to_kernel(u * d + d * u * u - 3 * unit, p) == d * u * u - 3 * unit


@pytest.mark.parametrize("name", ["first-order-minus", "second-order", "second-order-central"])
def test_restrict_agrees_with_deleting_d_words(name):
    for lam_text in ("1", "1+i"):
        # the central preset's rules take lambda = 0 whatever is passed
        lam = ZERO if name == "second-order-central" else parse_scalar(lam_text)
        p = make_preset(name, lam)
        u, d = gens(p, "U", "D")
        for n in range(7):
            b = build_binomial(n, lam, u, d)
            nf = normalize(b, p)
            deleted = NcPoly(p.alphabet, {w: c for w, c in nf.terms.items() if p.d_index not in w})
            assert restrict_to_kernel(b, p) == deleted


def test_restrict_takes_no_scalar_powers(monkeypatch):
    # on ker D a term either keeps its coefficient or vanishes: no mu**count is formed
    cases = []
    for name in ("first-order-minus", "second-order"):
        lam = parse_scalar("1+i")
        p = make_preset(name, lam)
        u, d = gens(p, "U", "D")
        for n in range(7):
            b = build_binomial(n, lam, u, d)
            cases.append((b, p, restrict_to_kernel(b, p)))

    def no_power(self, exponent):
        raise AssertionError("restrict_to_kernel took a scalar power")

    monkeypatch.setattr(CycloScalar, "__pow__", no_power)
    for b, p, restricted in cases:
        assert restrict_to_kernel(b, p) == restricted


def test_normal_arithmetic_stays_in_its_preset():
    p = make_preset("first-order-plus", parse_scalar("1+i"))
    u, d = p.normal_generator("U"), p.normal_generator("D")
    free_u, free_d = gens(p, "U", "D")
    unit = NcPoly.unit(p.alphabet)
    for value, free in (
        (d * u, free_d * free_u),
        (free_d * u, free_d * free_u),
        (d * free_u, free_d * free_u),
        (2 * d - u + unit, 2 * free_d - free_u + unit),
        (free_u - d, free_u - free_d),
        (d - free_u, free_d - free_u),
        (-(d * u), -(free_d * free_u)),
        (d**3, free_d**3),
        (d**0, unit),
    ):
        assert isinstance(value, Normal) and value.preset is p
        assert value == normalize(free, p)


# ---- normal products against the free product normalized ------------------

_COEFFS = tuple(map(parse_scalar, ("1", "-2", "1/2", "i", "1+i")))


def random_poly(preset, rng, max_terms=3, max_length=4):
    """A plain polynomial of a few random words, the unit among them at times."""
    letters = len(preset.alphabet)
    return NcPoly(preset.alphabet, {
        tuple(rng.randrange(letters) for _ in range(rng.randint(0, max_length))): rng.choice(_COEFFS)
        for _ in range(rng.randint(1, max_terms))
    })


def junction_pairs(preset):
    """Normal pairs whose words meet in a left-hand pair, the unit on either side among them.

    Under the invertible presets U U · Uinv Uinv D cancels where the words meet,
    then again one letter further out, down to D.
    """
    unit = preset.normal_generator("D") ** 0
    pairs = [(unit, unit)]
    for (upper, lower), _ in preset.rules:
        a, b = preset.normal_generator(upper), preset.normal_generator(lower)
        pairs += [(a, b), (b, a), (unit, a * b), (a * b, unit), (a * a, b * b), (a * b, a * b)]
    if "Uinv" in preset.alphabet.names:
        u, uinv, d = map(preset.normal_generator, ("U", "Uinv", "D"))
        pairs += [(u * u, uinv * uinv * d), (uinv * uinv, u * u * d + uinv), (d * u, uinv)]
    return pairs


def free_product_normalized(a, b, preset):
    """The product as it was formed before the junction rule: the free product, normalized."""
    return normalize(NcPoly.__mul__(a, b), preset)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_normal_product_agrees_with_normalizing_the_free_product(name):
    preset = make_preset(name, parse_scalar("1+i"), parse_scalar("2"))
    assert check_confluence(preset).ok
    rng = random.Random(name)
    pairs = junction_pairs(preset)
    for _ in range(40):
        pairs.append((normalize(random_poly(preset, rng), preset),
                      normalize(random_poly(preset, rng), preset)))
    for a, b in pairs:
        expected = free_product_normalized(a, b, preset)
        product = a * b
        assert isinstance(product, Normal) and product.preset is preset
        assert product == expected, (str(a), str(b))
    if "Uinv" in preset.alphabet.names:
        u, uinv, d = map(preset.normal_generator, ("U", "Uinv", "D"))
        assert u * uinv == uinv * u == d ** 0
        assert (u * u) * (uinv * uinv * d) == d


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_normal_product_with_a_plain_operand_normalizes_it_first(name):
    preset = make_preset(name, parse_scalar("1+i"), parse_scalar("2"))
    rng = random.Random(name + " plain product")
    for _ in range(20):
        plain, other = random_poly(preset, rng), normalize(random_poly(preset, rng), preset)
        for product, expected in ((plain * other, free_product_normalized(plain, other, preset)),
                                  (other * plain, free_product_normalized(other, plain, preset))):
            assert isinstance(product, Normal) and product.preset is preset
            assert product == expected


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_normal_difference_with_a_plain_operand_is_the_normal_difference(name):
    preset = make_preset(name, parse_scalar("1+i"), parse_scalar("2"))
    rng = random.Random(name + " difference")
    for _ in range(20):
        a, plain = normalize(random_poly(preset, rng), preset), random_poly(preset, rng)
        # the oracle negates by scaling, not by `-`
        a_plain = NcPoly(preset.alphabet, a.terms)
        for difference, expected in ((a - plain, a_plain + plain.scaled(-1)),
                                     (plain - a, plain + a_plain.scaled(-1))):
            assert isinstance(difference, Normal) and difference.preset is preset
            assert difference == normalize(expected, preset)
        assert (a - a).is_zero and isinstance(a - a, Normal)


def test_normal_values_of_different_presets_do_not_combine():
    # the plus and minus presets share the alphabet (U, D): only the preset tells them apart
    plus, minus = make_preset("first-order-plus", ONE), make_preset("first-order-minus", ONE)
    u, d = plus.normal_generator("U"), minus.normal_generator("D")
    for combine in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
        for left, right in ((d, u), (u, d)):
            with pytest.raises(ValueError, match="do not combine"):
                combine(left, right)
    # normalize reads a Normal of another preset as a plain polynomial
    cubed = normalize(d * d * d, plus)
    assert isinstance(cubed, Normal) and cubed.preset is plus


def test_normal_values_of_different_presets_are_never_equal():
    plus, minus = make_preset("first-order-plus", ONE), make_preset("first-order-minus", ONE)
    u_plus, u_minus = plus.normal_generator("U"), minus.normal_generator("U")
    assert u_plus.terms == u_minus.terms
    assert u_plus != u_minus and not (u_plus == u_minus)
    # one preset, and a Normal against a plain polynomial, compare the terms
    assert u_plus == plus.normal_generator("U")
    assert u_plus == plus.generator("U") == u_minus
    assert plus.generator("U") == u_plus


def test_normalize_returns_a_normal_of_its_preset_unchanged(monkeypatch):
    lam = parse_scalar("1+i")
    p = make_preset("first-order-minus", lam)
    mu = parse_scalar("2")
    b = build_binomial(6, lam, p.normal_generator("U"), p.normal_generator("D"))
    evaluated, restricted = kernel_eval(b, p, mu), restrict_to_kernel(b, p)

    def no_rewrite(self, word):
        raise AssertionError("a normal form was normalized again")

    monkeypatch.setattr(RelationPreset, "_word_normal_form", no_rewrite)
    assert normalize(b, p) is b
    assert kernel_eval(b, p, mu) == evaluated
    assert restrict_to_kernel(b, p) == restricted


def test_kernel_eval_examples():
    lam = parse_scalar("3")
    p = make_preset("first-order-plus", lam)
    u, d = gens(p, "U", "D")
    unit = NcPoly.unit(p.alphabet)
    mu = parse_scalar("i")
    assert kernel_eval(d, p, mu) == mu * unit
    product = unit
    for j in range(3):
        product = product * (d + (lam * j) * unit)
    for j0 in range(3):
        assert kernel_eval(product, p, -(lam * j0)).is_zero
    assert not kernel_eval(product, p, lam).is_zero


def test_kernel_eval_of_binomial():
    lam = ONE
    p = make_preset("first-order-plus", lam)
    u, d = gens(p, "U", "D")
    b3 = build_binomial(3, lam, u, d)
    assert kernel_eval(b3, p, -lam).is_zero


def test_commuting_collapse_reproduces_plain_power():
    p = make_preset("first-order-plus", ZERO)
    u, d = gens(p, "U", "D")
    for n in range(7):
        b = build_binomial(n, ZERO, u, d)
        assert normalize(b, p) == d**n


def test_second_order_names_the_commutator():
    p = make_preset("second-order", ONE)
    u, c, d = gens(p, "U", "C", "D")
    assert normalize(commutator(d, u), p) == c


def test_rule_invariant_rejects_bad_replacements():
    p = make_preset("first-order-plus", ONE)
    u, d = gens(p, "U", "D")
    # replacement keeping the descending pair would not terminate
    with pytest.raises(ValueError):
        RelationPreset("bad", p.alphabet, ((("D", "U"), d * u),))
    with pytest.raises(ValueError):
        RelationPreset("bad2", p.alphabet, ((("D", "U"), u * d * u),))


def test_rule_naming_a_generator_outside_the_alphabet_fails_at_construction():
    p = make_preset("first-order-plus", ONE)
    u, d = gens(p, "U", "D")
    with pytest.raises(KeyError, match="unknown generator 'V'"):
        RelationPreset("bad", p.alphabet, ((("D", "V"), u * d),))


def test_a_left_hand_pair_stated_twice_is_rejected():
    p = make_preset("first-order-plus", ONE)
    u, d = gens(p, "U", "D")
    with pytest.raises(ValueError, match="duplicate rule for pair D U"):
        RelationPreset("twice", p.alphabet, ((("D", "U"), u * d + u), (("D", "U"), u * d)))


def test_d_must_be_maximal():
    from ncbinom.freealg import Alphabet

    # U D -> D U + U is a well-formed rule; only the place of D is wrong
    alpha = Alphabet(("D", "U"))
    d, u = NcPoly.generator(alpha, "D"), NcPoly.generator(alpha, "U")
    with pytest.raises(ValueError, match="D must be the maximal generator"):
        RelationPreset("bad", alpha, ((("U", "D"), d * u + u),))


# ---- confluence: the overlap proof and a brute-force oracle ------------------

EXPECTED_OVERLAPS = {
    "first-order-plus": (),
    "first-order-minus": (),
    "second-order": ("D C U",),
    "second-order-central": ("D C U",),
    "invertible-plus": ("D U Uinv", "D Uinv U", "U Uinv U", "Uinv U Uinv"),
    "invertible-minus": ("D U Uinv", "D Uinv U", "U Uinv U", "Uinv U Uinv"),
    "partial-vw": ("D W V",),
    "free": (),
}


def reduce_by_strategy(preset, word, choose):
    """Slow oracle: full reduction contracting the redex `choose` picks, one per step."""
    rule_map = preset._rule_map

    def irreducible_terms():
        stack = [(word, ONE)]
        while stack:
            w, c = stack.pop()
            redexes = [i for i in range(len(w) - 1) if (w[i], w[i + 1]) in rule_map]
            if not redexes:
                yield w, c
                continue
            i = choose(redexes)
            for sub, rc in rule_map[(w[i], w[i + 1])].items():
                stack.append((w[:i] + sub + w[i + 2 :], c * rc))

    return accumulate(irreducible_terms())


def strategy_outcomes(preset, word):
    """Normal forms of `word` under the leftmost, rightmost and one seeded random strategy."""
    rng = random.Random(0)
    return [reduce_by_strategy(preset, word, choose)
            for choose in (lambda r: r[0], lambda r: r[-1], rng.choice)]


def assert_strategies_agree(preset, word):
    engine = preset._word_normal_form(word)
    outcomes = strategy_outcomes(preset, word)
    assert all(o == engine for o in outcomes), preset.alphabet.word_str(word)


def assert_oracle_agrees(preset, max_length):
    for length in range(max_length + 1):
        for word in itertools.product(range(len(preset.alphabet)), repeat=length):
            assert_strategies_agree(preset, word)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_overlaps_of_shipped_presets_resolve(name):
    report = check_confluence(make_preset(name, parse_scalar("1+i"), parse_scalar("2")))
    assert report.ok
    assert report.overlaps == EXPECTED_OVERLAPS[name]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_strategy_oracle_agrees_with_engine(name):
    preset = make_preset(name, parse_scalar("1/2"), parse_scalar("-3"))
    assert_oracle_agrees(preset, 5)
    # the engine's head joins nest deeper only past length 5: seeded longer words
    rng = random.Random(name)
    for length in range(6, 13):
        for _ in range(3):
            assert_strategies_agree(
                preset, tuple(rng.randrange(len(preset.alphabet)) for _ in range(length)))


def test_confluence_first_order_degree6():
    preset = make_preset("first-order-plus", ONE)
    assert check_confluence(preset).ok
    assert_oracle_agrees(preset, 6)


def test_confluence_second_order_degree6():
    preset = make_preset("second-order", parse_scalar("2"))
    assert check_confluence(preset).ok
    assert_oracle_agrees(preset, 6)


def test_incomplete_vw_fixture_diverges_on_dwv():
    report = check_confluence(incomplete_vw_fixture(ONE))
    assert not report.ok
    assert report.overlaps == ("D W V",)
    words = [w for w, _ in report.divergent]
    assert words == ["D W V"]
    forms = dict(report.divergent)["D W V"]
    assert set(forms) == {"W D V + V W", "D V W"}


def test_complete_vw_is_confluent():
    report = check_confluence(make_preset("partial-vw", ONE, parse_scalar("2")))
    assert report.ok
    assert report.overlaps == ("D W V",)


def test_flipped_inverse_sign_diverges():
    lam = parse_scalar("2")
    good = make_preset("invertible-plus", lam)
    alpha = good.alphabet
    uinv, d = gens(good, "Uinv", "D")
    # D Uinv -> Uinv D + lam Uinv: the sign D U -> U D + lam U would force is -lam
    rules = tuple(
        (pair, uinv * d + lam * uinv if pair == ("D", "Uinv") else right)
        for pair, right in good.rules
    )
    flipped = RelationPreset("invertible-flipped", alpha, rules)
    report = check_confluence(flipped)
    assert report.overlaps == EXPECTED_OVERLAPS["invertible-plus"]
    assert [w for w, _ in report.divergent] == ["D U Uinv", "D Uinv U"]
    for text in ("D U Uinv", "D Uinv U"):
        word = tuple(alpha.index(name) for name in text.split())
        outcomes = strategy_outcomes(flipped, word)
        assert any(o != outcomes[0] for o in outcomes[1:]), text


def test_make_preset_names():
    for name in PRESET_NAMES:
        preset = make_preset(name, ONE, ONE)
        assert preset.name == name
    with pytest.raises(ValueError):
        make_preset("nope")


# random polynomials over the first-order alphabet
words2 = st.lists(st.integers(min_value=0, max_value=1), max_size=4).map(tuple)
polys2 = st.dictionaries(words2, st.integers(min_value=-3, max_value=3), max_size=3).map(
    lambda t: NcPoly(make_preset("first-order-plus", ONE).alphabet, t)
)

# and over the second-order alphabet
words3 = st.lists(st.integers(min_value=0, max_value=2), max_size=4).map(tuple)
polys3 = st.dictionaries(words3, st.integers(min_value=-3, max_value=3), max_size=3).map(
    lambda t: NcPoly(make_preset("second-order", ONE).alphabet, t)
)

_plus = make_preset("first-order-plus", parse_scalar("1/2"))
_second = make_preset("second-order", ONE)


@given(polys2)
def test_normalize_idempotent(p):
    p = NcPoly(_plus.alphabet, p.terms)
    once = normalize(p, _plus)
    assert normalize(once, _plus) == once


@given(polys2, polys2)
def test_normalize_linear(p, q):
    p = NcPoly(_plus.alphabet, p.terms)
    q = NcPoly(_plus.alphabet, q.terms)
    a = parse_scalar("2+i")
    assert normalize(a * p + q, _plus) == a * normalize(p, _plus) + normalize(q, _plus)


@settings(max_examples=60)
@given(polys3, polys3)
def test_normalize_multiplicative_mod_relations(p, q):
    lhs = normalize(p * q, _second)
    rhs = normalize(normalize(p, _second) * normalize(q, _second), _second)
    assert lhs == rhs
