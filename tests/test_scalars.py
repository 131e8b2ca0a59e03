"""Field arithmetic tests, with a double-precision numeric cross-check oracle."""

import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncbinom.scalars import (
    IMAG,
    OMEGA,
    ONE,
    ZERO,
    ZETA,
    CycloScalar,
    ScalarParseError,
    format_scalar,
    parse_scalar,
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


def test_mul_agrees_with_numeric_oracle():
    rng = random.Random(7)
    for _ in range(300):
        a = CycloScalar(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)))
        b = CycloScalar(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)))
        assert abs(to_complex(a * b) - to_complex(a) * to_complex(b)) < 1e-9


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scalars = st.tuples(rationals, rationals, rationals, rationals).map(CycloScalar)


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
