"""Free-algebra structure: products concatenate, nothing commutes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncbinom.freealg import Alphabet, NcPoly, accumulate, commutator
from ncbinom.scalars import ONE, parse_scalar

UD = Alphabet(("U", "D"))
U = NcPoly.generator(UD, "U")
D = NcPoly.generator(UD, "D")
I = NcPoly.unit(UD)


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("U", "U"))


def test_poly_add_examples():
    assert (D + (-D)).is_zero
    lam = parse_scalar("1/2")
    combined = (U * D) + lam * U + (U * D)
    assert combined == 2 * (U * D) + lam * U
    assert I + I == 2 * I


def test_poly_mul_examples():
    assert D * U == NcPoly(UD, {(1, 0): ONE})
    expansion = (D - U) * (D - U)
    assert expansion == D * D - D * U - U * D + U * U
    assert I * expansion == expansion


def test_commutator_examples():
    assert commutator(D, U) == D * U - U * D
    p = D * U + 3 * U
    assert commutator(p, p).is_zero
    assert commutator(I, p).is_zero


def test_alphabet_mismatch_raises():
    other = NcPoly.generator(Alphabet(("A", "B")), "A")
    with pytest.raises(ValueError):
        U + other
    with pytest.raises(ValueError):
        U * other


def test_power_of_zero_exponent_is_unit():
    assert U**0 == I
    assert NcPoly.zero(UD) ** 0 == I
    assert NcPoly.zero(UD) ** 3 == NcPoly.zero(UD)


def test_canonical_string_forms():
    lam = ONE
    b2 = D * D + D * U - U * D + lam * D - lam * U
    assert str(b2) == "D D + D U - U D + D - U"
    assert str(I) == "I"
    assert str(NcPoly.zero(UD)) == "0"
    assert str(2 * I) == "2"
    assert str(parse_scalar("1+i") * U) == "(1 + z^3) * U"


def test_accumulate_drops_zero_inputs_and_zero_sums():
    one, two = parse_scalar("1"), parse_scalar("2")
    out = accumulate([("a", one), ("b", 0 * one), ("a", -one), ("c", two)], {"c": one})
    assert out == {"c": parse_scalar("3")}
    assert accumulate([]) == {}


words = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=3).map(tuple)
coeffs = st.integers(min_value=-5, max_value=5)
polys = st.dictionaries(words, coeffs, max_size=4).map(lambda t: NcPoly(UD, t))


@given(polys, polys, polys)
def test_mul_is_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_mul_distributes_over_add(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (q + r) * p == q * p + r * p


@given(polys, polys)
def test_degree_additivity(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).max_word_length() == p.max_word_length() + q.max_word_length()


def test_letter_degree():
    p = D * U * U + U * D
    assert p.letter_degree("U") == 2
    assert p.letter_degree("D") == 1
    assert NcPoly.zero(UD).letter_degree("U") == 0
