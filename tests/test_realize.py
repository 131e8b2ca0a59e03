"""Function-space realization: exact calculus, vector variants, oracles."""

import functools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbinom import realize
from ncbinom.binomial import BINOMIAL_MEMO_SIZE, build_binomial, cached_binomial
from ncbinom.freealg import Alphabet, NcPoly, accumulate, commutator
from ncbinom.realize import (
    D_DX,
    DERIVATION_KINDS,
    Derivation,
    DiffOperator,
    FuncExpr,
    FuncMatrix,
    Matrix,
    VecFunc,
    X_D_DX,
    XINV_D_DX,
    apply_assigned,
    lift_binomial,
    random_func_expr,
    random_matrix,
    random_rational,
    sin_func,
    verify_change_of_variables,
    verify_exponential,
    verify_third_order,
    verify_vector_item,
    verify_w_independence_realized,
)
from ncbinom.cli import SuiteConfig, iter_cases, run_case
from ncbinom.report import PASS
from ncbinom.rewrite import RelationPreset, cached_preset, normalize
from ncbinom.scalars import CycloScalar, IMAG, ONE, ZERO, parse_scalar, wrap

import oracles
from oracles import (MatrixMultiplier, apply_operator, constant_vector, letter_actions, safe_block,
                     truncated_shift_matrix)

UD = Alphabet(("U", "D"))
U = NcPoly.generator(UD, "U")
D = NcPoly.generator(UD, "D")


def test_differentiate_examples():
    f = FuncExpr.term(1, c=2, alpha=3)
    expected = FuncExpr.term(2, c=1, alpha=3) + FuncExpr.term(3, c=2, alpha=3)
    assert f.differentiate() == expected
    assert FuncExpr.one().differentiate().is_zero
    lam = parse_scalar("1/2")
    gauss = FuncExpr.exponential(0, lam)
    # the eigen-relation that drives the change-of-variables identity
    assert gauss.differentiate(XINV_D_DX) == gauss.scaled(2 * lam)


def test_x_d_dx_on_powers():
    mono = FuncExpr.monomial(parse_scalar("i"))
    assert mono.differentiate(X_D_DX) == mono.scaled(IMAG)


def cos_func(lam) -> FuncExpr:
    """cos(lam*x) encoded as (e^{i lam x} + e^{-i lam x}) / 2."""
    lam = CycloScalar.of(lam)
    both = FuncExpr.exponential(IMAG * lam) + FuncExpr.exponential(-(IMAG * lam))
    return both.scaled(Fraction(1, 2))


def test_mul_examples():
    lam = parse_scalar("3")
    assert FuncExpr.exponential(lam) * FuncExpr.exponential(-lam) == FuncExpr.one()
    s, c = sin_func(ONE), cos_func(ONE)
    assert s * s + c * c == FuncExpr.one()
    mono = FuncExpr.monomial(parse_scalar("1/2"))
    assert FuncExpr.monomial(1) * mono == FuncExpr.monomial(parse_scalar("3/2"))


def test_apply_examples():
    lam = parse_scalar("2")
    asg = letter_actions(FuncExpr.exponential(lam))
    f = FuncExpr.exponential(lam)
    assert apply_assigned(D, asg, f) == f.scaled(lam)
    g = FuncExpr.term(1, c=3, alpha=1)
    assert apply_assigned(build_binomial(1, lam, U, D), asg, g) == g.differentiate()
    # the commutator of D with multiplication by e^{lam x} is lam times it
    comm = commutator(D, U)
    assert apply_assigned(comm, asg, g) == (FuncExpr.exponential(lam) * g).scaled(lam)


def test_apply_requires_assignment():
    with pytest.raises(ValueError, match="generator 'U' has no assigned operator"):
        apply_assigned(D * U, {"D": FuncExpr.differentiate}, FuncExpr.one())


def factor_by_factor(n: int, mu, u, f, kind: str = D_DX):
    """B(n)*f from its definition, with no free expansion and no suffix cache.

    The sum over k of C(n,k) * F_0 ... F_(k-1) U^(n-k) f, each
    F_j g = D g - U g + j*mu*g applied in turn, the rightmost first.
    """
    powers = [f]  # U^m f
    for _ in range(n):
        powers.append(u * powers[-1])
    total = f.scaled(0)
    for k in range(n + 1):
        g = powers[n - k]
        for j in reversed(range(k)):
            g = g.differentiate(kind) - u * g + g.scaled(j * mu)
        total = total + comb(n, k) * g
    return total


def scalar_assignments(lam, rng) -> list:
    """(mu, u, kind) of each scalar assignment a realized verifier makes; v + w draws v from rng."""
    return [
        (lam, FuncExpr.exponential(-lam), D_DX),  # decay
        (lam, FuncExpr.exponential(lam), D_DX),  # grow
        (IMAG * lam, sin_func(lam), D_DX),  # sine
        (ZERO, FuncExpr.monomial(1).scaled(lam) + FuncExpr.term(3), D_DX),  # linear
        (lam, FuncExpr.exponential(0, lam * Fraction(1, 2)), XINV_D_DX),  # gauss
        (lam, FuncExpr.monomial(lam), X_D_DX),  # log
        (lam, random_func_expr(rng) + FuncExpr.exponential(lam), D_DX),  # v + w
    ]


def test_apply_binomial_matches_factor_by_factor_evaluation():
    # every assignment a realized verifier makes, on two inputs each, for n <= 7,
    # against the definition applied factor by factor and against the free
    # expansion of B(n) applied word by word
    lam = parse_scalar("1/2 + i")
    rng = random.Random(17)
    a1, a2 = random_matrix(rng, 2), random_matrix(rng, 2)
    scalars = [FuncExpr.one(), random_func_expr(rng)]
    vectors = [constant_vector([1, -2]), VecFunc([random_func_expr(rng), FuncExpr.one()])]
    cases = [(mu, u, kind, scalars) for mu, u, kind in scalar_assignments(lam, rng)] + [
        # (mu, u, kind, inputs)
        (lam, MatrixMultiplier([(a1, FuncExpr.exponential(lam))]), D_DX, vectors),
        (lam, MatrixMultiplier([(a1, FuncExpr.exponential(-lam))]), D_DX, vectors),
        (IMAG * lam, MatrixMultiplier([(a1, sin_func(lam))]), D_DX, vectors),
        (ZERO, MatrixMultiplier([(a1, FuncExpr.monomial(1)), (a2, FuncExpr.one())]), D_DX,
         vectors),
        # the lift's graded multiplier: a*x + p(a) on the shift slots
        (ZERO, FuncMatrix([((0, 1), FuncExpr.monomial(1)), ((2, 0, -1), FuncExpr.one())]), D_DX,
         vectors),
    ]
    for mu, u, kind, inputs in cases:
        for f in inputs:
            for n in range(8):
                got = build_binomial(n, mu, u, Derivation(kind), f)
                assert got == factor_by_factor(n, mu, u, f, kind)
                assert got == apply_assigned(build_binomial(n, mu, U, D),
                                             letter_actions(u, kind), f)


def binomial_operator(n: int, mu, u, kind: str = D_DX, slots: int | None = None) -> DiffOperator:
    """B(n) as sum_r p_r*D^r, folded from the identity on n + 1 slots unless told otherwise."""
    one = DiffOperator.identity(n + 1 if slots is None else slots)
    return build_binomial(n, mu, FuncMatrix([((1,), u)]), Derivation(kind), one)


def test_binomial_operator_applied_to_f_matches_the_per_sample_fold():
    # the operator form against the fold on f itself, for every scalar assignment,
    # on the two inputs of the factor-by-factor test, for n <= 7
    lam = parse_scalar("1/2 + i")
    rng = random.Random(17)
    inputs = [FuncExpr.one(), random_func_expr(rng)]
    for mu, u, kind in scalar_assignments(lam, rng):
        for n in range(8):
            op = binomial_operator(n, mu, u, kind)
            for f in inputs:
                assert apply_operator(op, f, kind) == build_binomial(n, mu, u, Derivation(kind), f)
            # B(n) has D-order n, with D^n alone from F_0 ... F_(n-1): on n + 2 slots the top
            # one stays empty and the others hold the same coefficients
            roomy = binomial_operator(n, mu, u, kind, slots=n + 2)
            assert roomy.entries == op.entries + (FuncExpr.zero(),)
            assert op.entries[n] == FuncExpr.one()


@pytest.mark.parametrize("lam", ["1", "1+i"])
def test_w_independence_holds_as_operators(lam):
    # the realized corollary for every input at once: the one clause of a realized case is
    # B(n) with U = V + W against B(n) with U = V, V the case's seeded draw and W
    # multiplication by e^(lam*x), equal as operators; the control W = e^(-lam*x) has
    # [D, W] = -lam*W and changes B(n) from n = 2 on, so the row is not vacuous
    lam = parse_scalar(lam)
    for seed in (1, 1729):
        for n in range(7):
            v = random_func_expr(random.Random(realize.derive_seed(seed, n)))
            plain = binomial_operator(n, lam, v)
            (clause,) = verify_w_independence_realized(n, lam, seed)
            assert clause.label == "" and clause.lhs == clause.rhs == plain
            control = binomial_operator(n, lam, v + FuncExpr.exponential(-lam))
            assert (control == plain) == (n < 2)


class CountingMultiplier:
    """Multiplication by u that counts its actions."""

    def __init__(self, u):
        self.u, self.calls = u, 0

    def __mul__(self, g):
        self.calls += 1
        return self.u * g


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "FuncMatrix"])
def test_apply_binomial_acts_2n_minus_1_times_with_u_and_n_times_with_d(monkeypatch, vector):
    lam = parse_scalar("1/2 + i")
    if vector:
        u = FuncMatrix([((1, 2), FuncExpr.exponential(lam))])
        f, carrier = constant_vector([1, -2]), VecFunc
    else:
        u, f, carrier = FuncExpr.exponential(lam), FuncExpr.one(), FuncExpr
    derivatives = []
    differentiate = carrier.differentiate

    def counting_differentiate(self, kind=D_DX):
        derivatives.append(kind)
        return differentiate(self, kind)

    for n in range(11):
        expected = build_binomial(n, lam, u, Derivation(D_DX), f)
        counter = CountingMultiplier(u)
        derivatives.clear()
        with monkeypatch.context() as patched:
            patched.setattr(carrier, "differentiate", counting_differentiate)
            assert build_binomial(n, lam, counter, Derivation(D_DX), f) == expected
        assert counter.calls <= max(2 * n - 1, 0)
        assert len(derivatives) <= n


def test_sin_cos_commutator_closure():
    lam = parse_scalar("2")
    asg = letter_actions(sin_func(lam))
    f = FuncExpr.term(1, c=1, alpha=parse_scalar("1/2"))
    first = apply_assigned(commutator(D, U), asg, f)
    assert first == (cos_func(lam) * f).scaled(lam)
    second = apply_assigned(commutator(D, commutator(D, U)), asg, f)
    assert second == (sin_func(lam) * f).scaled(-(lam * lam))


keys = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
funcs = st.dictionaries(keys, st.integers(min_value=-4, max_value=4), max_size=4).map(
    lambda d: FuncExpr(
        {
            (CycloScalar.of(c), CycloScalar.of(a), ZERO): CycloScalar.of(v)
            for (c, a), v in d.items()
        }
    )
)


@given(funcs, funcs)
def test_leibniz_rule(f, g):
    lhs = (f * g).differentiate()
    rhs = f.differentiate() * g + f * g.differentiate()
    assert lhs == rhs


@settings(max_examples=40)
@given(funcs)
def test_apply_is_homomorphism(f):
    asg = letter_actions(FuncExpr.exponential(ONE))
    p = D * U + 2 * U
    q = U * D - D
    lhs = apply_assigned(p * q, asg, f)
    rhs = apply_assigned(p, asg, apply_assigned(q, asg, f))
    assert lhs == rhs


def test_exponential_identities():
    assert run_case({"suite": "exp", "n": 1, "lambda": "1", "j": 0}).status == PASS
    lam = ONE
    asg = letter_actions(FuncExpr.exponential(-lam))
    got = apply_assigned(build_binomial(2, lam, U, D), asg, FuncExpr.one())
    assert got == FuncExpr.exponential(-lam).scaled(-2)
    got4 = apply_assigned(build_binomial(4, lam, U, D), asg, FuncExpr.one())
    assert got4 == FuncExpr.exponential(-2 * lam).scaled(12)
    assert run_case({"suite": "exp", "n": 4, "lambda": "1", "j": 2}).status == PASS
    with pytest.raises(ValueError):
        verify_exponential(3, ONE, 3)


def test_sine_identities():
    assert run_case({"suite": "sin", "n": 1, "lambda": "1"}).status == PASS
    lam = ONE
    asg = letter_actions(sin_func(lam))
    got = apply_assigned(build_binomial(2, IMAG * lam, U, D), asg, FuncExpr.one())
    assert got == FuncExpr.exponential(-IMAG)
    assert run_case({"suite": "sin", "n": 2, "lambda": "1"}).status == PASS
    assert run_case({"suite": "sin", "n": 3, "lambda": "2"}).status == PASS


def test_linear_identities():
    rep = run_case({"suite": "linear", "n": 2, "a": "1", "b": "0"})
    assert rep.status == PASS
    asg = letter_actions(FuncExpr.monomial(1))
    got = apply_assigned(build_binomial(2, ZERO, U, D), asg, FuncExpr.one())
    assert got == FuncExpr.one()
    assert run_case({"suite": "linear", "n": 3, "a": "2", "b": "5"}).status == PASS
    assert run_case({"suite": "linear", "n": 4, "a": "1", "b": "1"}).status == PASS


def test_change_of_variables():
    assert run_case({"suite": "chvar-gauss", "n": 1, "lambda": "1", "j": 0}).status == PASS
    assert run_case({"suite": "chvar-gauss", "n": 3, "lambda": "1", "j": 1}).status == PASS
    # fractional multiplier exercises exponents outside the integers
    assert run_case({"suite": "chvar-log", "n": 2, "lambda": "1/2", "j": 1}).status == PASS
    with pytest.raises(ValueError):
        verify_change_of_variables(2, ONE, 2, "gauss")
    with pytest.raises(ValueError):
        verify_change_of_variables(2, ONE, 0, "polar")


def poly_at(p, a: Matrix) -> Matrix:
    """p(a), p a polynomial by its coefficients (p[d] multiplies a^d)."""
    return sum((a ** d * x for d, x in enumerate(p)), Matrix.zero(a.shape))


def shift_matrix(slots: int) -> Matrix:
    """S: e_k -> e_(k+1) on `slots` slots, the last one sent to zero."""
    return Matrix([[ONE if i == k + 1 else ZERO for k in range(slots)] for i in range(slots)])


def graded_fold(n, mu, parts, phi, slots):
    """B(n)*(e_0 (x) phi), U acting as sum p(S)*u, S the shift on `slots` slots."""
    shift = shift_matrix(slots)
    start = VecFunc([phi] + [FuncExpr.zero()] * (slots - 1))
    return build_binomial(n, mu, MatrixMultiplier([(poly_at(p, shift), u) for p, u in parts]),
                          Derivation(D_DX), start)


def random_quadratic(rng):
    """Coefficients of a polynomial of degree exactly 2."""
    return random_rational(rng), random_rational(rng), random_rational(rng) or Fraction(1)


LIFT_LAMBDAS = (CycloScalar.of(2), parse_scalar("1/2 + i"))
LIFT_MULTIPLIERS = {  # name -> (parts, mu) of lambda and a generator for any drawn coefficients
    "grow": lambda lam, rng: ([((0, 1), FuncExpr.exponential(lam))], lam),
    "decay": lambda lam, rng: ([((0, 1), FuncExpr.exponential(-lam))], lam),
    "sine": lambda lam, rng: ([((0, 1), sin_func(lam))], IMAG * lam),
    # a*x + p(a): [D, U] = a is central, the case of vector item 8, where B(n) drops p
    "linear": lambda lam, rng: (
        [((0, 1), FuncExpr.monomial(1)), (random_quadratic(rng), FuncExpr.one())], ZERO),
    # a*x + p(a)*e^(lam x): [D, U] is not central, so p(a) stays in B(n)
    "two-part": lambda lam, rng: (
        [((0, 1), FuncExpr.monomial(1)), (random_quadratic(rng), FuncExpr.exponential(lam))], ZERO),
}


@pytest.mark.parametrize("multiplier", sorted(LIFT_MULTIPLIERS))
def test_lifted_fold_matches_the_direct_vector_fold(multiplier):
    # the direct fold with MatrixMultiplier([(p(a), u), ...]) on c (x) phi is the reference
    rng = random.Random(2024)
    nonzero = 0
    for lam in LIFT_LAMBDAS:
        parts, mu = LIFT_MULTIPLIERS[multiplier](lam, rng)
        for m in (1, 2, 3):
            a = random_matrix(rng, m)
            direct_u = MatrixMultiplier([(poly_at(p, a), u) for p, u in parts])
            vectors = [[CycloScalar.of(random_rational(rng)) for _ in range(m)] for _ in range(2)]
            # 1 and e^(-lam x) are kernel targets of the grow multiplier; the third input is not
            for phi in (FuncExpr.one(), FuncExpr.exponential(-lam), random_func_expr(rng)):
                for n in range(7):
                    lifted = lift_binomial(n, mu, a, parts, phi, vectors)
                    assert len(lifted) == len(vectors)
                    for c, got in zip(vectors, lifted):
                        direct = build_binomial(n, mu, direct_u, Derivation(D_DX),
                                                VecFunc([phi.scaled(x) for x in c]))
                        assert got == direct, (multiplier, lam, m, n, c)
                        nonzero += not got.is_zero
    # of 2 lambdas * 3 dimensions * 3 inputs * 7 degrees * 2 vectors = 252 images
    assert nonzero >= 100


def test_graded_fold_keeps_exactly_e_floor_half_n_plus_1_slots():
    # B(n) has U-degree at most floor(n/2) (`build_binomial`) and a U raises the grade by at
    # most e, so e*floor(n/2) + 1 slots are exact, and the fold's top slot can be nonzero
    rng = random.Random(11)
    reach_top = set()
    for lam in LIFT_LAMBDAS:
        for multiplier in sorted(LIFT_MULTIPLIERS):
            parts, mu = LIFT_MULTIPLIERS[multiplier](lam, rng)
            e = max(len(p) - 1 for p, _ in parts)
            # at a = 1 the lift sums to U = sum p(1)*u
            u_at_one = sum((u.scaled(sum(p)) for p, u in parts), FuncExpr.zero())
            for phi in (FuncExpr.one(), FuncExpr.exponential(-lam)):
                for n in range(11):
                    size = e * (n // 2) + 1
                    longer = graded_fold(n, mu, parts, phi, size + 1)
                    assert longer.entries[size].is_zero, (multiplier, lam, n)
                    exact = graded_fold(n, mu, parts, phi, size)
                    assert longer.entries[:size] == exact.entries
                    assert sum(longer.entries, FuncExpr.zero()) == build_binomial(
                        n, mu, u_at_one, Derivation(D_DX), phi)
                    graded, _ = realize._graded_fold(n, mu, tuple((tuple(p), u) for p, u in parts),
                                                     phi)
                    assert graded == exact.terms, (multiplier, lam, n)
                    if size > 1 and not exact.entries[size - 1].is_zero:
                        reach_top.add(multiplier)  # e*floor(n/2) slots would lose this grade
    # grow meets no u at all (its E(t) is 0), and linear drops p, so its grades stop at floor(n/2)
    assert reach_top == {"decay", "sine", "two-part"}


def test_graded_multiplier_matches_the_matrix_multiplier_of_p_of_the_shift():
    # sum p(S)*u against p(S) given as a matrix on the same slots; terms shifted past the
    # last slot are dropped, and the slots kept agree with those of a longer vector
    rng = random.Random(4711)
    dropped = 0
    for size in (1, 2, 3, 4):
        shift = shift_matrix(size)
        for n_parts in (1, 2):
            for _ in range(4):
                parts = [(tuple(rng.choice((0, random_rational(rng))) for _ in range(3)),
                          random_func_expr(rng)) for _ in range(n_parts)]
                v = VecFunc([rng.choice((FuncExpr.zero(), random_func_expr(rng)))
                             for _ in range(size)])
                got = FuncMatrix(parts) * v
                assert got == MatrixMultiplier([(poly_at(p, shift), u) for p, u in parts]) * v
                longer = FuncMatrix(parts) * VecFunc(v.entries + (FuncExpr.zero(),) * 2)
                assert longer.entries[:size] == got.entries
                dropped += any(not g.is_zero for g in longer.entries[size:])
    assert dropped > 0


def count_folds(monkeypatch) -> list:
    """Record (n, mu) of every `realize.build_binomial` call from now on.

    The memos above the fold are cleared first, so no cached value answers
    without reaching the patched function.
    """
    calls = []
    plain = realize.build_binomial

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return plain(*args, **kwargs)

    realize._scalar_dichotomy.cache_clear()
    realize._graded_fold.cache_clear()
    monkeypatch.setattr(realize, "build_binomial", counted)
    return calls


def test_exp_dichotomy_is_evaluated_once_per_n_and_lambda(monkeypatch):
    cases = iter_cases("exp", SuiteConfig(n_max=5, lambdas=("2", "1+i")))
    calls = count_folds(monkeypatch)
    assert all(run_case(case).status == PASS for case in cases)
    # one kernel-target fold per j row, and one dichotomy per (n, lambda)
    rows_with_j = sum("j" in case for case in cases)
    pairs = {(case["n"], case["lambda"]) for case in cases}
    assert len(calls) == rows_with_j + len(pairs) < 2 * len(cases)


def test_vector_fold_is_evaluated_once_per_operator_n_and_lambda(monkeypatch):
    # the graded fold never sees the seeded a or c, so the dimensions and seeds share it
    calls = count_folds(monkeypatch)
    used = set()
    for n in range(5):
        for lam in (CycloScalar.of(2), parse_scalar("1+i")):
            for item in range(2, 8):
                for m in (2, 3):
                    for seed in (0, 1):
                        clauses = verify_vector_item(item, n, lam, m, seed)
                        assert all(c.residual().is_zero for c in clauses if not c.probe)
                        if clauses:  # items 2-4 fold the decay operator, 5-7 the sine
                            used.add((n, lam if item <= 4 else IMAG * lam))
    # item 4 states a decay clause at every n; at n = 0 no sine item states anything
    assert len(used) == 2 * 5 + 2 * 4
    assert len(calls) == len(used) and set(calls) == used


def test_seeded_draws_are_canonical_rationals():
    # one numerator, then one denominator, per entry; zero entries are dropped
    def draw(rng):
        return CycloScalar.of(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))

    for seed in range(20):
        for m in (1, 2, 3, 4):
            rng, reference = random.Random(seed), random.Random(seed)
            a, c = random_matrix(rng, m), realize.random_vector(rng, m)
            assert a == Matrix([[draw(reference) for _ in range(m)] for _ in range(m)])
            assert [x.ints for x in c] == [draw(reference).ints for _ in range(m)]
            assert rng.random() == reference.random()


def test_vector_items_small():
    def vector_case(item, n, seed):
        return run_case({"suite": "vector", "item": item, "n": n, "lambda": "1", "m": 2,
                         "seed": seed})

    for item in range(1, 9):
        rep = vector_case(item, 3, 99)
        assert rep.status == PASS, (item, rep.residual)
    rep = vector_case(3, 2, 7)
    assert rep.status == PASS
    rep4 = vector_case(4, 2, 7)
    assert rep4.status == PASS and rep4.params["minus_also_zero"] is False


def test_vector_rejects_bad_item(monkeypatch):
    # a bad item or dimension fails before any seeded data is drawn
    monkeypatch.setattr(realize, "derive_seed", None)
    for item in (0, 9):
        with pytest.raises(ValueError, match="1..8"):
            verify_vector_item(item, 2, ONE, 2, 7)
    with pytest.raises(ValueError):
        verify_vector_item(1, 2, ONE, 0, 7)


def dense_product(a: Matrix, b: Matrix) -> Matrix:
    """Reference: entry (i, j) is the sum over every k of a[i][k] * b[k][j], zeros included."""
    cols = list(zip(*b.rows))
    return Matrix([[sum((x * y for x, y in zip(row, col)), ZERO) for col in cols]
                   for row in a.rows])


def test_matrix_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    ident = Matrix.identity(2)
    assert a * ident == a
    assert (a - a).is_zero
    assert a**0 == ident
    assert a**2 == a * a
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    # non-square products, with zero entries on both sides
    half = Fraction(1, 2)
    wide = Matrix([[1, 0, half], [0, -3, 0]])
    tall = Matrix([[0, 2], [IMAG, 0], [0, 0]])
    column, row = Matrix([[1], [0], [-2]]), Matrix([[0, half, 3]])
    for left, right in ((wide, tall), (tall, wide), (column, row), (row, column),
                        (a, wide), (a, Matrix.zero((2, 3)))):
        product = left * right
        assert product == dense_product(left, right)
        assert product.shape == (left.shape[0], right.shape[1])
    with pytest.raises(ValueError):
        wide * wide
    assert str(wide) == "[[1, 0, 1/2], [0, -3, 0]]"
    # scalar multiples on either side
    for scalar in (3, Fraction(-2, 5), parse_scalar("1+i")):
        expected = Matrix([[scalar * x for x in r] for r in wide.rows])
        assert scalar * wide == wide * scalar == wide.scaled(scalar) == expected
    # the shape belongs to the value: it survives cancellation and keeps shapes apart
    with pytest.raises(ValueError):
        wide + tall
    with pytest.raises(ValueError):
        wide - tall
    assert wide != tall
    assert Matrix.zero((2, 2)) != Matrix.zero((2, 3))
    assert Matrix.zero((2, 3)) == Matrix([[0, 0, 0], [0, 0, 0]])
    assert str(wide - wide) == "[[0, 0, 0], [0, 0, 0]]"
    assert str(0 * wide) == "[[0, 0, 0], [0, 0, 0]]"
    assert wide.combine([]) == Matrix.zero((2, 3))
    assert wide.combine([(2, wide), (-1, wide)]) == wide
    with pytest.raises(AttributeError):
        wide.shape = (3, 2)


def test_matrix_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3, 4]]) ** -1


def test_eq5_matrix_oracle():
    rep = run_case({"suite": "eq5-matrix", "n": 1, "dim": 2, "seed": 7})
    assert rep.status == PASS
    assert run_case({"suite": "eq5-matrix", "n": 4, "dim": 3, "seed": 42}).status == PASS
    assert run_case({"suite": "eq5-matrix", "n": 6, "dim": 2, "seed": 7}).status == PASS


def test_w_independence_realized():
    def realized(n, lam, seed):
        return run_case({"suite": "cor-vw", "n": n, "lambda": lam, "seed": seed,
                         "variant": "realized"})

    for n in (1, 2, 4):
        assert realized(n, "1", 1729).status == PASS
    assert realized(3, "1/2", 4).status == PASS


def test_truncated_shift_examples():
    preset = cached_preset("first-order-plus", ONE)
    alpha = preset.alphabet
    u = NcPoly.generator(alpha, "U")
    d = NcPoly.generator(alpha, "D")
    relation = d * u - u * d - 1 * u
    mat = truncated_shift_matrix(relation, preset, 6)
    assert safe_block(mat, 5).is_zero
    assert truncated_shift_matrix(NcPoly.unit(alpha), preset, 4) == Matrix.identity(5)
    with pytest.raises(ValueError):
        truncated_shift_matrix(d * u, preset, 2)


def test_shift_matrix_agrees_with_normalize():
    rng = random.Random(31337)
    for preset_name in ("first-order-plus", "first-order-minus"):
        preset = cached_preset(preset_name, parse_scalar("1/2"))
        alpha = preset.alphabet
        for _ in range(50):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                word = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 5)))
                terms[word] = terms.get(word, 0) + rng.randint(-4, 4)
            p = NcPoly(alpha, terms)
            u_deg = p.letter_degree("U")
            size = u_deg + 3
            lhs = truncated_shift_matrix(p, preset, size)
            rhs = truncated_shift_matrix(normalize(p, preset), preset, size)
            block = size - u_deg
            assert safe_block(lhs, block) == safe_block(rhs, block)


def word_by_word_shift_matrix(p: NcPoly, preset, size: int, lam) -> Matrix:
    """Reference: sum of coeff times the product of the letters' matrices, word by word.

    D's eigenvalues take their sign from the preset's name, not from its rule.
    """
    dim = size + 1
    sign = 1 if preset.name == "first-order-plus" else -1
    letters = {
        p.alphabet.index("U"): Matrix([[int(i == j + 1) for j in range(dim)] for i in range(dim)]),
        p.alphabet.index("D"): Matrix(
            [[(sign * i) * lam if i == j else ZERO for j in range(dim)] for i in range(dim)]
        ),
    }
    total = Matrix.zero((dim, dim))
    for word, coeff in p.terms.items():
        mat = Matrix.identity(dim)
        for letter in word:
            mat = mat * letters[letter]
        total = total + coeff * mat
    return total


@pytest.mark.parametrize("preset_name", ["first-order-plus", "first-order-minus"])
def test_shift_matrix_matches_word_by_word_reference(preset_name):
    rng = random.Random(2718)
    lam = parse_scalar("1+i")
    preset = cached_preset(preset_name, lam)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            word = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
            terms[word] = terms.get(word, 0) + rng.randint(-4, 4)
        p = NcPoly(preset.alphabet, terms)
        size = p.letter_degree("U") + 3
        assert truncated_shift_matrix(p, preset, size) == word_by_word_shift_matrix(
            p, preset, size, lam)


def test_shift_oracle_reads_its_eigenvalue_off_the_d_u_rule():
    alpha = Alphabet(("U", "D"))
    u, d = NcPoly.generator(alpha, "U"), NcPoly.generator(alpha, "D")
    c = parse_scalar("2 - i")
    custom = RelationPreset("custom", alpha, ((("D", "U"), u * d + c * u),))
    assert safe_block(truncated_shift_matrix(d * u - u * d - c * u, custom, 6), 5).is_zero
    for name in ("second-order", "free", "invertible-plus"):
        preset = cached_preset(name, ONE)
        with pytest.raises(ValueError, match="shift representation needs one rule"):
            truncated_shift_matrix(NcPoly.unit(preset.alphabet), preset, 4)


def test_vector_apply_under_diagonal_matrix_is_slotwise():
    lam = parse_scalar("1/2")
    u1, u2 = FuncExpr.exponential(lam), sin_func(parse_scalar("2"))
    diag = MatrixMultiplier([(Matrix([[1, 0], [0, 0]]), u1), (Matrix([[0, 0], [0, 1]]), u2)])
    rng = random.Random(11)
    f1, f2 = random_func_expr(rng), random_func_expr(rng)
    for n in range(5):
        b = build_binomial(n, lam, U, D)
        got = apply_assigned(b, letter_actions(diag), VecFunc([f1, f2]))
        assert got == VecFunc([apply_assigned(b, letter_actions(u1), f1),
                               apply_assigned(b, letter_actions(u2), f2)])
    # the zero polynomial sends any vector to the zero vector of its dimension
    zero_poly = NcPoly.zero(UD)
    assert apply_assigned(zero_poly, letter_actions(diag), VecFunc([f1, f2])) == VecFunc.zero(2)


def test_pipeline_consistency():
    # normalizing before applying the operators never changes the result
    lam = parse_scalar("2")
    preset = cached_preset("first-order-plus", lam)
    alpha = preset.alphabet
    u = NcPoly.generator(alpha, "U")
    d = NcPoly.generator(alpha, "D")
    asg = letter_actions(FuncExpr.exponential(lam))
    rng = random.Random(5)
    for n in range(5):
        b = build_binomial(n, lam, u, d)
        f = random_func_expr(rng)
        assert apply_assigned(b, asg, f) == apply_assigned(normalize(b, preset), asg, f)


def third_order_u(lam) -> FuncExpr:
    from ncbinom.scalars import OMEGA

    return (FuncExpr.exponential(lam) + FuncExpr.exponential(OMEGA * lam)
            + FuncExpr.exponential(OMEGA * OMEGA * lam))


def mu_poly(*coeffs) -> NcPoly:
    """sum of coeffs[k] * mu^k, in the alphabet of realize.mu_gcd."""
    return NcPoly(realize._MU, {(0,) * k: c for k, c in enumerate(coeffs)})


def evaluate_mu_coefficients(coeffs, mu) -> FuncExpr:
    """B(n)*1 from its polynomials in mu, each evaluated at mu."""
    return FuncExpr({key: sum((c * mu ** len(w) for w, c in p.terms.items()), ZERO)
                     for key, p in coeffs.items()})


def test_verify_third_order(monkeypatch):
    # the polynomials in mu, interpolated from folds at mu = 0..n-1, agree with the free B(n)
    # applied word by word at two mu off the nodes, and with the fold at each node
    for n in (3, 5, 7, 9):
        for lam in (ONE, parse_scalar("1+i")):
            u = third_order_u(lam)
            coeffs = realize.mu_coefficients(n, u)
            assert all(max(map(len, p.terms)) < n for p in coeffs.values())
            for mu in (parse_scalar("1/3 + 2*i"), CycloScalar.of(n)):
                assert evaluate_mu_coefficients(coeffs, mu) == apply_assigned(
                    build_binomial(n, mu, U, D), letter_actions(u), FuncExpr.one())
            for k in range(n):
                at_k = CycloScalar.of(k)
                assert evaluate_mu_coefficients(coeffs, at_k) == build_binomial(
                    n, at_k, u, Derivation(D_DX), FuncExpr.one())
            assert run_case({"suite": "third-order", "n": n, "lambda": str(lam)}).status == PASS

    # a first-order u = e^(-lam x) collapses at mu = lam (the exp suite) and at mu = -lam
    two = parse_scalar("2")
    coeffs = realize.mu_coefficients(3, FuncExpr.exponential(-two))
    assert functools.reduce(realize.mu_gcd, coeffs.values(), mu_poly()) == mu_poly(-4, 0, 1)

    # a common factor (mu - 1) in every coefficient fails the case and is printed
    honest = realize.mu_coefficients
    monkeypatch.setattr(realize, "mu_coefficients", lambda n, u: {
        key: p * mu_poly(-1, 1) for key, p in honest(n, u).items()})
    report = run_case({"suite": "third-order", "n": 3, "lambda": "1"})
    assert report.status != PASS
    assert report.lhs == "coefficient-gcd: mu - I"

    # Euclid's gcd is monic: gcd(p*q, p*r) = p / 3 for coprime q and r, gcd(a, 0) = a / lead(a)
    p = mu_poly(parse_scalar("1+i"), 3)  # 3*mu + 1 + i
    q = mu_poly(1, 0, 1)  # mu^2 + 1
    r = mu_poly(-2, 5)  # 5*mu - 2
    zero = mu_poly()
    assert realize.mu_gcd(p * q, p * r) == realize.mu_gcd(p * r, p * q) == p.scaled(Fraction(1, 3))
    assert realize.mu_gcd(p * q, zero) == realize.mu_gcd(zero, p * q) == (p * q).scaled(
        Fraction(1, 3))
    assert realize.mu_gcd(q, r) == mu_poly(1)
    assert realize.mu_gcd(zero, zero) == zero

    with pytest.raises(ValueError):
        verify_third_order(2, ONE)
    with pytest.raises(ValueError):
        verify_third_order(3, ZERO)


def test_third_order_base_function_is_genuinely_third_order():
    lam = ONE
    u = third_order_u(lam)
    d3 = u.differentiate().differentiate().differentiate()
    assert d3 == u.scaled(lam**3)
    # no first- or second-order collapse
    assert u.differentiate() != u.scaled(lam)
    assert u.differentiate().differentiate() != u.scaled(lam * lam)


def test_vecfunc_basics():
    v = constant_vector([1, 2])
    w = constant_vector([1, 2])
    assert v == w
    assert (v - w).is_zero
    assert v.differentiate().is_zero
    with pytest.raises(ValueError):
        v - constant_vector([1, 2, 3])

    # a Combination keyed by (slot, c, alpha, beta), with its dimension as context
    rng = random.Random(808)
    f1, f2 = random_func_expr(rng), sin_func(3)
    v = VecFunc([f1, FuncExpr.zero(), f2])
    assert v.dim == 3 and v.entries == (f1, FuncExpr.zero(), f2)
    assert v == VecFunc(v.entries)
    assert str(v) == f"[{f1}, 0, {f2}]"
    assert str(VecFunc.zero(2)) == "[0, 0]"
    assert v.differentiate(X_D_DX).entries == tuple(e.differentiate(X_D_DX) for e in v.entries)
    assert (2 * v + v.combine([(-2, v)])).is_zero and (v - v).dim == 3
    # vectors of different dimensions never combine and never compare equal
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ValueError):
            op(v, VecFunc([f1, f2]))
    assert VecFunc.zero(2) != VecFunc.zero(3)
    assert v != VecFunc([f1, FuncExpr.zero(), f2, FuncExpr.zero()])
    with pytest.raises(AttributeError):
        v.dim = 4


def grid_matvec(parts, v: VecFunc) -> VecFunc:
    """Reference: the grid entry_ij = sum_k A_k[i][j]*u_k, then slot_i = sum_j entry_ij*v_j."""
    m = v.dim
    grid = [[FuncExpr.zero()] * m for _ in range(m)]
    for a, u in parts:
        for i in range(m):
            for j in range(m):
                grid[i][j] = grid[i][j] + a.rows[i][j] * u
    slots = []
    for row in grid:
        acc = FuncExpr.zero()
        for entry, comp in zip(row, v.entries):
            acc = acc + entry * comp
        slots.append(acc)
    return VecFunc(slots)


def test_matvec_matches_grid_reference_in_one_accumulate(monkeypatch):
    rng = random.Random(1729)
    passes = 0
    plain_accumulate = oracles.accumulate

    def counted_accumulate(*args):
        nonlocal passes
        passes += 1
        return plain_accumulate(*args)

    seen = set()
    for m in (1, 2, 3):
        for n_parts in (1, 2):
            for trial in range(6):
                parts = [
                    (Matrix([[rng.choice((0, random_rational(rng))) for _ in range(m)]
                             for _ in range(m)]),
                     sin_func(1 + k) if (trial + k) % 2 else random_func_expr(rng))
                    for k in range(n_parts)
                ]
                v = VecFunc([rng.choice((FuncExpr.zero(), random_func_expr(rng)))
                             for _ in range(m)])
                seen.update(x.is_zero for a, _ in parts for row in a.rows for x in row)
                seen.update(("zero slot", g.is_zero) for g in v.entries)
                want = grid_matvec(parts, v)
                passes = 0
                with monkeypatch.context() as patched:
                    patched.setattr(oracles, "accumulate", counted_accumulate)
                    got = MatrixMultiplier(parts) * v
                assert got == want
                assert passes == 1
    # zero and nonzero matrix entries and vector slots all occurred
    assert seen == {False, True, ("zero slot", False), ("zero slot", True)}

    u = sin_func(1)
    with pytest.raises(ValueError):
        MatrixMultiplier([])
    with pytest.raises(ValueError):
        MatrixMultiplier([(Matrix([[1, 2]]), u)])
    with pytest.raises(ValueError):
        MatrixMultiplier([(random_matrix(rng, 2), u), (random_matrix(rng, 3), u)])
    with pytest.raises(ValueError):
        MatrixMultiplier([(random_matrix(rng, 2), u)]) * constant_vector([1, 2, 3])


def test_funcexpr_coerces_plain_number_keys_like_term():
    for c, alpha, beta in ((0, 1, 0), (2, Fraction(-1, 2), 0), (Fraction(1, 3), 0, 3)):
        plain = FuncExpr({(c, alpha, beta): Fraction(3, 2)})
        want = FuncExpr.term(Fraction(3, 2), c=c, alpha=alpha, beta=beta)
        assert str(plain) == str(want)
        assert plain == want
        assert plain.differentiate() == want.differentiate()
        assert str(plain.differentiate(X_D_DX)) == str(want.differentiate(X_D_DX))


def test_term_keys_like_the_coercing_constructor():
    # `term` keys its exponents itself; the constructor goes through `_key`
    values = (0, 3, -2, Fraction(0), Fraction(-5, 4), ZERO, ONE, parse_scalar("1/2 + 1/3*i"))
    for coeff in values:
        for c, alpha, beta in ((0, 0, 0), (2, Fraction(1, 2), 0), (ONE, 0, parse_scalar("i")),
                               (Fraction(3), ZERO, -1), (IMAG, 4, Fraction(-2, 3))):
            got = FuncExpr.term(coeff, c, alpha, beta)
            want = FuncExpr({(c, alpha, beta): coeff})
            assert got == want and got.context is None
            assert list(got.terms.items()) == list(want.terms.items())
            assert all(type(v) is CycloScalar for v in got.terms.values())
            assert got.is_zero == (coeff == 0)


def test_funcexpr_keys_coerce_to_canonical_int_tuples():
    half_i = parse_scalar("1/2 + 1/2*i")
    # each row: one exponent written as int, Fraction, CycloScalar and non-canonical tuples
    spellings = (
        (2, Fraction(4, 2), CycloScalar.of(2), (2, 0, 0, 0, 1), (6, 0, 0, 0, 3), (-4, 0, 0, 0, -2)),
        (0, Fraction(0), ZERO, (0, 0, 0, 0, 1), (0, 0, 0, 0, 7)),
        (half_i, (1, 0, 0, 1, 2), (3, 0, 0, 3, 6), (-2, 0, 0, -2, -4)),
    )
    canonical = (CycloScalar.of(2), ZERO, half_i)
    want = FuncExpr.term(Fraction(3, 2), *canonical)
    assert list(want.terms) == [tuple(x.ints for x in canonical)]
    for c in spellings[0]:
        for alpha in spellings[1]:
            for beta in spellings[2]:
                got = FuncExpr({(c, alpha, beta): Fraction(3, 2)})
                assert got == want and str(got) == str(want)
    # keys read from one sum build another, and sums of spellings merge into one term
    f = want * sin_func(1) + FuncExpr.monomial(Fraction(1, 3))
    assert FuncExpr(f.terms) == f and str(FuncExpr(f.terms)) == str(f)
    twice = FuncExpr({(2, 0, half_i): 1}) + FuncExpr({((4, 0, 0, 0, 2), 0, (1, 0, 0, 1, 2)): 1})
    assert twice == want.scaled(Fraction(4, 3))


def differentiate_all_images(f: FuncExpr, kind: str) -> FuncExpr:
    """Reference: every term emits all three images, zero ones included."""
    shift = {D_DX: 0, X_D_DX: 1, XINV_D_DX: -1}[kind]
    images = []
    for key, v in f.terms.items():
        c, a, b = map(wrap, key)
        base = c + (shift - 1)
        images += [((base, a, b), v * c), ((base + 1, a, b), v * a),
                   ((base + 2, a, b), v * (2 * b))]
    return FuncExpr(accumulate(images))


def test_free_binomial_is_built_once_per_pair_under_a_cap():
    """Free generators get one B(n) per (n, lam) from cached_binomial's capped memo."""
    cached_binomial.cache_clear()
    for lam in (ZERO, ONE, IMAG, parse_scalar("1+i")):
        for n in range(9):
            b = cached_binomial(n, lam, U, D)
            assert cached_binomial(n, lam, U, D) is b
            # the memoized value equals a build that bypasses the memo
            fresh = build_binomial(n, lam, U, D)
            assert fresh is not b and fresh == b
    assert cached_binomial.cache_info().currsize == 36
    # more distinct builds than the cap leave the memo full, not grown
    cap = cached_binomial.cache_info().maxsize
    assert cap == BINOMIAL_MEMO_SIZE
    for n in range(2):
        for k in range(cap):
            cached_binomial(n, CycloScalar.of(k), U, D)
    assert cached_binomial.cache_info().currsize == cap


@pytest.mark.parametrize("kind", DERIVATION_KINDS)
def test_differentiate_matches_all_images_reference(kind):
    rng = random.Random(4242)
    exponents = (ZERO, ONE, parse_scalar("2"), parse_scalar("-1/2"), IMAG, parse_scalar("1+i"))
    zero_and_nonzero = set()
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            key = tuple(rng.choice(exponents) for _ in range(3))
            terms[key] = CycloScalar.of(rng.randint(-3, 3)) + rng.choice((ZERO, IMAG))
            zero_and_nonzero.update((slot, x.is_zero) for slot, x in enumerate(key))
        f = FuncExpr(terms)
        got, want = f.differentiate(kind), differentiate_all_images(f, kind)
        assert list(got.terms.items()) == list(want.terms.items())
    # each of c, alpha and beta is zero in some terms and nonzero in others
    assert zero_and_nonzero == {(slot, z) for slot in range(3) for z in (False, True)}

