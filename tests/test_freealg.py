"""Free-algebra structure: products concatenate, nothing commutes."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncbinom.freealg import Alphabet, Combination, NcPoly, accumulate, commutator
from ncbinom.realize import FuncExpr, FuncMatrix, Matrix, VecFunc
from ncbinom.rewrite import Normal, make_preset, normalize
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

    # an insert is told from a hit by the grown size, not by identity:
    # one scalar object added twice under one key counts twice
    x = parse_scalar("1+i")
    assert accumulate([("a", one), ("a", one)]) == {"a": two}
    assert accumulate([("a", one)], {"a": one}) == {"a": two}
    # x + (-x) drops the key; a later insert of it is new again
    assert accumulate([("k", x), ("j", one), ("k", -x)]) == {"j": one}
    assert accumulate([("k", x), ("k", -x), ("k", x), ("k", x)]) == {"k": x + x}
    assert accumulate([("k", -x), ("j", one)], {"k": x}) == {"j": one}
    # insertion order is the order of first arrival
    assert list(accumulate([("b", one), ("a", one), ("b", x)])) == ["b", "a"]


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


def longest_word(p: NcPoly) -> int:
    return max(map(len, p.terms), default=0)


@given(polys, polys)
def test_degree_additivity(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert longest_word(p * q) == longest_word(p) + longest_word(q)


def test_letter_degree():
    p = D * U * U + U * D
    assert p.letter_degree("U") == 2
    assert p.letter_degree("D") == 1
    assert NcPoly.zero(UD).letter_degree("U") == 0


# ---- the shared sparse-sum type -------------------------------------------

PLUS = make_preset("first-order-plus", parse_scalar("1+i"))


def sample_pair(kind):
    """Two sums of `kind` over one context, both nonzero and unequal."""
    if kind is NcPoly:
        return U * D + 2 * U, D - I
    if kind is Normal:
        u, d = PLUS.normal_generator("U"), PLUS.normal_generator("D")
        return d * u + 2 * u, d * d - u
    if kind is Matrix:
        return Matrix([[1, 2], [0, 3]]), Matrix([[0, 1], [parse_scalar("i"), 0]])
    if kind is VecFunc:
        return (VecFunc([FuncExpr.one(), FuncExpr.exponential(1)]),
                VecFunc([FuncExpr.monomial(2), FuncExpr.zero()]))
    return FuncExpr.exponential(1) + FuncExpr.monomial(2), FuncExpr.term(3, c=1, beta=-1)


def context(value):
    return type(value), value.context, getattr(value, "preset", None)


@pytest.mark.parametrize("kind", (NcPoly, Normal, FuncExpr, Matrix, VecFunc))
def test_every_operation_keeps_the_kind_and_context(kind):
    a, b = sample_pair(kind)
    assert type(a) is kind and context(a) == context(b)
    results = (
        a + b,
        a - b,
        -a,
        3 * a,
        a * 3,
        parse_scalar("1+i") * a,
        a.scaled(parse_scalar("-1/2")),
        a.scaled(0),
        a.combine([(2, a), (ONE, b)]),
        a.combine([]),
    )
    # an algebra's powers multiply in its own arithmetic, from its own unit
    if kind in (NcPoly, Normal, Matrix):
        results += (a ** 0, a ** 2)
        assert a ** 2 == a * a and a ** 0 * b == b
    for result in results:
        assert context(result) == context(a)
    assert a.scaled(0).is_zero and a.combine([]).is_zero
    assert a - b == a + (-1) * b
    assert a.combine([(2, a), (ONE, b)]) == 2 * a + b
    with pytest.raises(AttributeError):
        a.terms = {}
    with pytest.raises(AttributeError):
        a.extra = 1


# one kind over two contexts, and the message that begins a mismatch
CONTEXT_PAIRS = {
    NcPoly: (U, NcPoly.generator(Alphabet(("U", "D", "C")), "U"), "alphabet mismatch"),
    Matrix: (Matrix.identity(2), Matrix([[1, 0, 0], [0, 1, 0]]), "shape mismatch"),
    VecFunc: (VecFunc.constant([1, 2]), VecFunc.constant([1, 2, 0]), "dimension mismatch"),
}


@pytest.mark.parametrize("kind", CONTEXT_PAIRS)
def test_sums_over_different_contexts_never_combine(kind):
    a, b, prefix = CONTEXT_PAIRS[kind]
    # equal terms, so only the context tells them apart
    assert type(a) is type(b) is kind and a.terms == b.terms and a.context != b.context
    for op in (operator.add, operator.sub):
        for left, right in ((a, b), (b, a)):
            with pytest.raises(ValueError) as excinfo:
                op(left, right)
            assert str(excinfo.value) == f"{prefix}: {left.context} vs {right.context}"
    assert not a == b and not b == a
    assert a != b and b != a
    for value in (a, b):
        assert value._like({}).context == value.context
        assert type(value._like(dict(value.terms))) is kind
        assert value._like(dict(value.terms)) == value


def kinds_below(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from kinds_below(sub)


def test_only_combination_states_the_context_rule():
    # Normal adds its preset to `_like` and `__eq__`, and so restates `__hash__`;
    # every other kind inherits the rule
    kinds = set(kinds_below(Combination))
    assert {NcPoly, Normal, FuncExpr, Matrix, VecFunc} <= kinds
    restated = sorted(
        f"{kind.__name__}.{name}" for kind in kinds if kind is not Normal
        for name in ("_raw", "_like", "_accepts", "__eq__", "__hash__") if name in vars(kind)
    )
    assert restated == []
    # the zero, the power and the printed name are shared by every kind, Normal included
    restated = sorted(
        f"{kind.__name__}.{name}" for kind in kinds
        for name in ("zero", "__pow__", "__repr__") if name in vars(kind)
    )
    assert restated == []


def test_powers_zeros_and_names_follow_the_kind():
    u = PLUS.normal_generator("U")
    unit = u ** 0
    assert type(unit) is Normal and unit.preset is PLUS and unit == NcPoly.unit(PLUS.alphabet)
    assert type(Normal.zero(UD)) is NcPoly and Normal.zero(UD) == NcPoly.zero(UD)
    assert Matrix.zero((2, 3)).shape == (2, 3) and VecFunc.zero(2).dim == 2
    assert FuncExpr.zero().context is None and FuncExpr.zero().is_zero
    # a module has no unit, so it has no powers
    for value in (FuncExpr.one(), VecFunc.constant([1, 2])):
        with pytest.raises(TypeError):
            value ** 2
    with pytest.raises(ValueError, match="non-square"):
        Matrix([[1, 2, 3], [4, 5, 6]]) ** 2
    for value in (U, u, Matrix.identity(2)):
        with pytest.raises(ValueError, match="non-negative integer"):
            value ** -1
        with pytest.raises(ValueError, match="non-negative integer"):
            value ** Fraction(1, 2)
    assert repr(U * D + 2 * U) == "NcPoly(U D + 2 * U)"
    assert repr(u) == "Normal(U)"
    assert repr(FuncExpr.exponential(1)) == "FuncExpr(exp(1*x))"
    assert repr(Matrix.identity(2)) == "Matrix([[1, 0], [0, 1]])"
    assert repr(VecFunc.constant([1, 0])) == "VecFunc([1, 0])"


def test_equal_sums_hash_equally():
    # each pair is equal though built apart; a plain NcPoly equals a Normal with its terms
    u, d = PLUS.normal_generator("U"), PLUS.normal_generator("D")
    pairs = [
        ((U + D) + U, 2 * U + D),
        (U - U, NcPoly.zero(UD)),
        (u, U),
        (d * u, normalize(D * U, PLUS)),
        (normalize(D * U, PLUS), NcPoly.__mul__(u, d) + parse_scalar("1+i") * U),
        (FuncExpr.one() + FuncExpr.one(), FuncExpr.one().scaled(2)),
        (Matrix([[1, 0], [0, 1]]), Matrix.identity(2)),
        (VecFunc.constant([1, 0]) + VecFunc.constant([0, 1]), VecFunc.constant([1, 1])),
    ]
    for a, b in pairs:
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert {a: "value"}[b] == "value"


def test_the_free_product_of_normal_values_is_plain():
    # normalize returns a Normal of its own preset as it is, so the free
    # product must not carry the preset or Normal.__mul__ would skip rewriting
    u, d = PLUS.normal_generator("U"), PLUS.normal_generator("D")
    free = NcPoly.__mul__(d, u)
    assert type(free) is NcPoly
    assert free == NcPoly(UD, {(1, 0): ONE})
    assert d * u == normalize(free, PLUS) != free


def test_sums_of_different_kinds_never_combine():
    func, poly = FuncExpr.one(), NcPoly.generator(UD, "U")
    for a, b in ((func, poly), (poly, func), (func, PLUS.normal_generator("U"))):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
    assert FuncExpr.zero() != NcPoly.zero(UD)
    assert FuncExpr.one() != I


def test_a_product_of_different_kinds_names_both():
    func, poly, normal = FuncExpr.one(), NcPoly.generator(UD, "U"), PLUS.normal_generator("U")
    matrix = Matrix([[1, 2], [0, 3]])
    pairs = [(poly, func), (func, poly), (normal, func), (func, normal)]
    pairs += [pair for other in (func, poly, normal) for pair in ((matrix, other), (other, matrix))]
    # a multiplier acts only on a vector function
    multiplier = FuncMatrix([((0, 1), func)])
    pairs += [(multiplier, other) for other in (func, poly, normal, matrix, 3)]
    for a, b in pairs:
        for symbol, op in (("*", operator.mul), ("+", operator.add), ("-", operator.sub)):
            kinds = f"'{type(a).__name__}' and '{type(b).__name__}'"
            with pytest.raises(TypeError) as excinfo:
                op(a, b)
            assert str(excinfo.value) == f"unsupported operand type(s) for {symbol}: {kinds}"
    # scalars still scale on either side, and a plain polynomial still normalizes
    half = parse_scalar("1/2")
    for value in (func, poly, normal, matrix):
        for scalar in (3, Fraction(1, 3), half):
            assert value * scalar == scalar * value == value.scaled(scalar)
    assert type(poly * normal) is Normal and type(normal * poly) is Normal
    assert normal * poly == normal * normal
