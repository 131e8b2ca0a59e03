"""Field arithmetic tests, with an exact Fraction-coordinate oracle and a
double-precision numeric cross-check oracle."""

import cmath
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ncbinom.scalars import (
    IMAG,
    OMEGA,
    ONE,
    ZERO,
    ZETA,
    CycloScalar,
    ScalarParseError,
    add_ints,
    format_scalar,
    parse_scalar,
    wrap,
)

# independent oracle: evaluate coordinates at the actual primitive 12th root
_ZETA_C = cmath.exp(1j * cmath.pi / 6)


def to_complex(x: CycloScalar) -> complex:
    return sum(float(c) * _ZETA_C**k for k, c in enumerate(x.coords))


def assert_matches_numeric(x: CycloScalar, expected: complex):
    assert abs(to_complex(x) - expected) < 1e-12


def test_add_examples():
    half = CycloScalar.of(Fraction(1, 2))
    assert half + half == ONE
    assert (IMAG + (-IMAG)).is_zero
    # omega + omega^2 = -1, cross-checked numerically
    total = OMEGA + OMEGA * OMEGA
    assert total == CycloScalar.of(-1)
    assert_matches_numeric(total, -1)


def test_mul_examples():
    assert IMAG * IMAG == CycloScalar.of(-1)
    assert OMEGA * OMEGA * OMEGA == ONE
    # z * z^3 = z^4 reduces to z^2 - 1 by the minimal polynomial
    assert ZETA * ZETA**3 == CycloScalar.from_coords(-1, 0, 1, 0)
    assert_matches_numeric(ZETA * ZETA**3, _ZETA_C**4)


def test_inv_examples():
    assert (2 * IMAG).inv() == CycloScalar.from_coords(0, 0, 0, Fraction(-1, 2))
    assert ONE.inv() == ONE
    assert OMEGA.inv() == OMEGA * OMEGA
    assert OMEGA * OMEGA.inv() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_roots_of_unity_by_repeated_mul():
    acc = ONE
    values = []
    for _ in range(12):
        acc = acc * ZETA
        values.append(acc)
    assert values[5] == CycloScalar.of(-1)  # zeta^6
    assert values[11] == ONE  # zeta^12


def test_special_element_relations():
    assert IMAG == ZETA**3
    assert OMEGA == ZETA**2 - ONE
    assert IMAG * IMAG == -ONE
    assert OMEGA * OMEGA + OMEGA + ONE == ZERO
    assert OMEGA != ONE


def test_parse_examples():
    assert parse_scalar("3/2") == CycloScalar.of(Fraction(3, 2))
    assert parse_scalar("1+2i") == ONE + 2 * IMAG
    assert parse_scalar("w") == OMEGA
    assert parse_scalar("-i") == -IMAG
    assert parse_scalar("z^2") == ZETA * ZETA
    assert parse_scalar("1/2 - 3*i") == CycloScalar.of(Fraction(1, 2)) - 3 * IMAG
    assert parse_scalar("0") == ZERO


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "1 +", "i^2", "3/", "3/0", "x", "1 2", "+", "1..2"],
)
def test_parse_errors(bad):
    with pytest.raises(ScalarParseError) as info:
        parse_scalar(bad)
    assert info.value.position >= 0


def test_parse_is_memoized_per_literal_under_a_bound():
    x = parse_scalar("1/2 - 3*i")
    assert parse_scalar("1/2 - 3*i") is x and x.coords[0] == Fraction(1, 2)
    # errors are not cached: a malformed literal raises again, at the same position
    for _ in range(2):
        with pytest.raises(ScalarParseError) as info:
            parse_scalar("1 + 3/0")
        assert info.value.position == 6
    for k in range(300):
        assert parse_scalar(str(k)) == k
    info = parse_scalar.cache_info()
    assert info.maxsize == 256 and info.currsize <= 256


def test_field_axioms_on_random_samples():
    rng = random.Random(20240)

    def rand():
        return CycloScalar(
            tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(4))
        )

    for _ in range(10_000):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero
        if not a.is_zero:
            assert a * a.inv() == ONE


# independent exact oracle: the same arithmetic on Fraction coordinates,
# product by convolution and reduction with z^4 = z^2 - 1


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_mul(a, b):
    c = [Fraction(0)] * 7
    for i in range(4):
        for j in range(4):
            c[i + j] += a[i] * b[j]
    return (c[0] - c[4] - c[6], c[1] - c[5], c[2] + c[4], c[3] + c[5])


def assert_canonical(x: CycloScalar):
    *numerators, d = x.ints
    assert d > 0
    assert math.gcd(*numerators, d) == 1


def random_oracle_scalar(rng: random.Random) -> CycloScalar:
    """General, rational, zero, or general over one shared denominator."""
    kind = rng.randrange(6)
    if kind == 0:
        return CycloScalar.of(Fraction(rng.randint(-40, 40), rng.randint(1, 30)))
    if kind == 1:
        return ZERO
    if kind == 2:
        den = rng.randint(1, 30)
        return CycloScalar(tuple(Fraction(rng.randint(-40, 40), den) for _ in range(4)))
    return CycloScalar(
        tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 30)) for _ in range(4))
    )


def test_arithmetic_agrees_with_fraction_oracle():
    rng = random.Random(31)
    one = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    kinds = set()
    for _ in range(1500):
        a, b = random_oracle_scalar(rng), random_oracle_scalar(rng)
        kinds.add((a.is_rational, b.is_rational, a.ints[4] == b.ints[4]))
        ca, cb = a.coords, b.coords
        for got, want in (
            (a + b, ref_add(ca, cb)),
            (a - b, ref_sub(ca, cb)),
            (-a, ref_sub((Fraction(0),) * 4, ca)),
            (a * b, ref_mul(ca, cb)),
        ):
            assert got.coords == want, (a, b)
            assert_canonical(got)
        if not b.is_zero:
            inverse = b.inv()
            assert_canonical(inverse)
            assert ref_mul(cb, inverse.coords) == one, b
    # both operand kinds, with equal and with unequal denominators
    assert kinds == {(r, s, e) for r in (False, True) for s in (False, True)
                     for e in (False, True)}


def test_canonical_layout():
    forms = (
        CycloScalar((Fraction(2, 4), Fraction(0), Fraction(0, 3), 0)),
        CycloScalar.of(Fraction(1, 2)),
        parse_scalar("1/2"),
    )
    for x in forms:
        assert x.ints == (1, 0, 0, 0, 2)
        assert x == forms[0]
        assert hash(x) == hash(forms[0])
        assert x.coords == (Fraction(1, 2), 0, 0, 0)
        assert format_scalar(x) == "1/2"
    assert (OMEGA - OMEGA).ints == (0, 0, 0, 0, 1)
    assert CycloScalar.from_coords(Fraction(-2, 6), Fraction(4, 9)).ints == (-3, 4, 0, 0, 9)


def test_rational_scalar_hashes_as_the_number_it_equals():
    modulus = sys.hash_info.modulus
    big = 2**64 + 13
    values = [1, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(-7, 3), big, -big,
              Fraction(big, 3), Fraction(-5, big), Fraction(big + 2, big), Fraction(-big, big + 2),
              Fraction(1, modulus), Fraction(-3, modulus), Fraction(2, 3 * modulus),
              Fraction(-1, modulus + 1)]  # the last hashes to -1, which Python maps to -2
    for value in values:
        x = CycloScalar.of(value)
        assert x == value and hash(x) == hash(value), value
    assert hash(CycloScalar.of(Fraction(-1, modulus + 1))) == -2
    assert hash(ONE) == hash(1)
    assert {ONE: "x"}.get(1) == "x"
    assert {CycloScalar.of(Fraction(1, 2)): "half"}.get(Fraction(1, 2)) == "half"
    assert {1: "one"}.get(ONE) == "one"
    assert hash(OMEGA) == hash(OMEGA.ints)


def test_sort_key_orders_as_the_coordinates():
    values = [CycloScalar.from_coords(*c) for c in
              ((1,), (Fraction(1, 2),), (-2, 1), (Fraction(-3, 2), 1), (0, 0, 0, 1), (0,),
               (1, Fraction(1, 3)), (1, 0, 0, -1))]
    assert sorted(values, key=CycloScalar.sort_key) == sorted(values, key=lambda x: x.coords)
    assert all(x.sort_key() == x.coords for x in values)


def test_mul_agrees_with_numeric_oracle():
    rng = random.Random(7)
    for _ in range(300):
        a = CycloScalar(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)))
        b = CycloScalar(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)))
        assert abs(to_complex(a * b) - to_complex(a) * to_complex(b)) < 1e-9


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scalars = st.tuples(rationals, rationals, rationals, rationals).map(CycloScalar)
sparse_rationals = st.one_of(st.just(0), st.integers(-3, 3), rationals)


@given(st.lists(st.tuples(sparse_rationals, sparse_rationals, sparse_rationals,
                          sparse_rationals).map(CycloScalar), max_size=12))
def test_sorting_by_sort_key_is_sorting_by_coordinates(values):
    assert sorted(values, key=CycloScalar.sort_key) == sorted(values, key=lambda x: x.coords)
    for x in values:
        key = x.sort_key()
        assert key == x.coords
        # a zero coordinate stays the int 0; no Fraction is built for it
        assert all(type(k) is int for k, c in zip(key, x.coords) if c == 0)


@given(scalars)
def test_parse_format_roundtrip(x):
    assert parse_scalar(format_scalar(x)) == x


@given(scalars, scalars)
def test_subtraction_is_inverse_of_addition(a, b):
    assert (a + b) - b == a


def test_format_examples():
    assert format_scalar(ZERO) == "0"
    assert format_scalar(ONE) == "1"
    assert format_scalar(-ONE) == "-1"
    assert format_scalar(OMEGA) == "-1 + z^2"
    assert format_scalar(IMAG) == "z^3"
    assert format_scalar(CycloScalar.of(Fraction(3, 2))) == "3/2"


def test_pow_negative_exponent():
    assert ZETA**-1 == ZETA.inv()
    assert (2 * IMAG) ** -2 == ((2 * IMAG) ** 2).inv()


def test_adding_zero_and_multiplying_by_one_return_the_operand():
    half = CycloScalar.of(Fraction(1, 2))
    general = CycloScalar.from_coords(Fraction(1, 3), -2, 0, Fraction(5, 7))
    for x in (ZERO, ONE, half, -ONE, IMAG, OMEGA, general):
        assert x + ZERO is x
        assert ZERO + x is x
        assert ONE * x is x
        assert x * ONE is x
    # a zero or a one that is not the module constant takes the same path
    assert general + (OMEGA - OMEGA) is general
    assert (IMAG * IMAG.inv()) * general is general
    assert general + 0 is general and 0 + general is general
    assert general * 1 is general and 1 * general is general


def test_fast_paths_agree_with_fraction_oracle():
    rng = random.Random(97)

    def operand():
        kind = rng.randrange(5)
        if kind == 0:
            return rng.choice((ZERO, OMEGA - OMEGA))
        if kind == 1:
            return rng.choice((ONE, -ONE, IMAG * IMAG.inv()))
        return random_oracle_scalar(rng)

    seen = set()
    for _ in range(500):
        a, b = operand(), operand()
        seen.update(("zero" if x.is_zero else "one" if x == ONE else
                     "rational" if x.is_rational else "general") for x in (a, b))
        ca, cb = a.coords, b.coords
        for got, want in ((a + b, ref_add(ca, cb)), (a * b, ref_mul(ca, cb))):
            assert got.ints == CycloScalar(want).ints, (a, b)
            assert_canonical(got)
    assert seen == {"zero", "one", "rational", "general"}


# zero, rationals and non-rationals, over equal and unequal denominators
oracle_scalars = st.one_of(
    st.just(ZERO),
    st.fractions(max_denominator=12).map(CycloScalar.of),
    st.tuples(*[st.fractions(min_value=-9, max_value=9, max_denominator=12)] * 4).map(CycloScalar),
)


@given(oracle_scalars, oracle_scalars)
@example(ZERO, ZERO)
@example(ZERO, IMAG)
@example(CycloScalar.of(Fraction(1, 2)), CycloScalar.of(Fraction(1, 3)))
@example(CycloScalar.of(Fraction(1, 6)), CycloScalar.of(Fraction(1, 3)))
@example(CycloScalar.of(Fraction(1, 4)), CycloScalar.of(Fraction(1, 4)))
@example(CycloScalar((Fraction(1, 2), 0, 0, Fraction(1, 2))), CycloScalar.of(Fraction(1, 2)))
def test_int_tuple_sum_is_the_scalar_sum(a, b):
    got = add_ints(a.ints, b.ints)
    assert got == (a + b).ints == CycloScalar(ref_add(a.coords, b.coords)).ints
    assert_canonical(wrap(got))
    # adding zero hands back the other tuple itself
    if b.is_zero:
        assert got is a.ints
    elif a.is_zero:
        assert got is b.ints
