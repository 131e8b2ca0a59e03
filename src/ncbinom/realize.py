"""Exact realization of the abstract identities on function spaces.

The carrier is the span of basis functions x^c * exp(a*x + b*x^2) with
exact scalar exponents; it is closed under the three derivations used
here (d/dx, x*d/dx, x^(-1)*d/dx) and under pointwise multiplication, so
every identity can be evaluated with no analysis and no floating point.
Sines enter through their exponential encoding, which keeps the
arithmetic in the ground field (it contains i).

Also here: constant matrices over the scalars, a kind of
`freealg.Combination` keyed by (row, column) with the shape as context
(for the vector-valued variants and the shifted-binomial matrix
oracle); vector-valued functions, keyed by (slot, c, alpha, beta) with
the dimension as context, and the lift's graded multiplier that acts on
them; and the proof, by one gcd of polynomials in mu, that no parameter
mu makes the combination vanish for a genuinely third-order exponential
sum.  Every single-mu verifier evaluates B(n)*f through
`apply_binomial`, which folds Horner's rule for B(n) into 2n - 1 actions
of U and n of D with no free expansion; the word-by-word evaluator
`apply_each` stays for the third-order proof (one free B(n) with mu as
a letter).  All eight vector items (U = sum p(a)*u, a a constant matrix
and each p a polynomial) read B(n)*(c (x) phi) off one graded scalar
fold, `apply_binomial_lifted`, on e*floor(n/2) + 1 slots: B(n) has
U-degree at most floor(n/2), by its generating function (see
`apply_binomial`).  The memos, each per process: `build_binomial`, LRU
128 on (n, lam, u, d), for the cases of one preset; `_scalar_dichotomy`,
LRU 128 on (kind, n, lam), for the j rows of `exp`; `_graded_fold`, LRU
128 on (n, mu, parts, phi), which never sees a or c, for vector items
2-4 and 5-7 over every m and seed; and each preset's `_nf_cache`, word
-> normal form, with no cap.
As in `binomial`, each verifier takes its scalars as the field elements
`cli.run_case` parses, with no coercion of its own, and returns its list
of clauses; `run_case` names the case and builds its report.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import comb, gcd
from operator import attrgetter

from .binomial import build_binomial, parity_clauses, shift_binomial_clauses
from .freealg import Alphabet, Combination, NcPoly, accumulate
from .report import Clause
from .scalars import IMAG, OMEGA, ONE, ZERO, CycloScalar, add_ints, wrap

# derivation kinds
D_DX = "d/dx"
X_D_DX = "x*d/dx"
XINV_D_DX = "x^-1*d/dx"
DERIVATION_KINDS = (D_DX, X_D_DX, XINV_D_DX)

FuncKey = tuple[tuple, tuple, tuple]  # canonical ints of the exponents (c, alpha, beta)

_ZERO_INTS = ZERO.ints

# shifts of the power of x in the three images of x^c e^{ax+bx^2}, per kind
_POWER_SHIFTS = {
    kind: tuple(CycloScalar.of(shift + k).ints for k in (-1, 0, 1))
    for kind, shift in ((D_DX, 0), (X_D_DX, 1), (XINV_D_DX, -1))
}


def _exponent(x) -> tuple:
    """Canonical ints of an exponent: an int, Fraction, CycloScalar or (n0, n1, n2, n3, d)."""
    if type(x) is CycloScalar:  # canonical already
        return x.ints
    if isinstance(x, tuple):
        *numerators, d = x
        return CycloScalar([Fraction(n, d) for n in numerators]).ints
    return _ZERO_INTS if x == 0 else CycloScalar.of(x).ints


def _derivative(terms: dict, kind: str) -> dict:
    """Exact image of terms keyed (..., c, alpha, beta) under one of the three derivations.

    d/dx sends x^c e^{ax+bx^2} to c x^(c-1) + a x^c + 2b x^(c+1), all
    times the same exponential; the other kinds shift the power of x by
    +1 or -1 afterwards.  Key entries before the exponents are kept.
    """
    if kind not in DERIVATION_KINDS:
        raise ValueError(f"unknown derivation kind {kind!r}")
    low, mid, high = _POWER_SHIFTS[kind]

    def images():
        # a zero factor gives a zero image, which accumulate would drop
        for key, v in terms.items():
            head, (c, a, b) = key[:-3], key[-3:]
            if c != _ZERO_INTS:
                yield head + (add_ints(c, low), a, b), v * wrap(c)
            if a != _ZERO_INTS:
                yield head + (add_ints(c, mid), a, b), v * wrap(a)
            if b != _ZERO_INTS:
                yield head + (add_ints(c, high), a, b), v * wrap(add_ints(b, b))

    return accumulate(images())


class FuncExpr(Combination):
    """Finite sum of terms coeff * x^c * exp(alpha*x + beta*x^2), exact.

    Keys hold the exponents' `ints`, lifted by `wrap` only to scale a coefficient or to print.
    """

    __slots__ = ()

    @staticmethod
    def _key(key) -> FuncKey:
        return tuple(map(_exponent, key))

    @staticmethod
    def term(coeff, c=0, alpha=0, beta=0) -> FuncExpr:
        # keyed here, not by `_key`; a zero coefficient (`random_func_expr` draws some) gives zero
        key, coeff = (_exponent(c), _exponent(alpha), _exponent(beta)), CycloScalar.of(coeff)
        return FuncExpr._raw(None, {key: coeff} if coeff else {})

    @staticmethod
    def one() -> FuncExpr:
        return FuncExpr.term(1)

    @staticmethod
    def monomial(c) -> FuncExpr:
        return FuncExpr.term(1, c=c)

    @staticmethod
    def exponential(alpha, beta=0) -> FuncExpr:
        return FuncExpr.term(1, alpha=alpha, beta=beta)

    def __mul__(self, other) -> FuncExpr:
        if isinstance(other, FuncExpr):
            right = other.terms.items()
            return self._like(accumulate(
                ((add_ints(c1, c2), add_ints(a1, a2), add_ints(b1, b2)), v1 * v2)
                for (c1, a1, b1), v1 in self.terms.items()
                for (c2, a2, b2), v2 in right
            ))
        return Combination.__rmul__(self, other)

    def differentiate(self, kind: str = D_DX) -> FuncExpr:
        return self._like(_derivative(self.terms, kind))

    def sorted_terms(self) -> list[tuple[FuncKey, CycloScalar]]:
        return sorted(
            self.terms.items(), key=lambda kv: tuple(wrap(x).sort_key() for x in kv[0])
        )

    def __str__(self) -> str:
        return " + ".join(_func_term_str(key, coeff) for key, coeff in self.sorted_terms()) or "0"


def _paren(scalar: CycloScalar) -> str:
    text = str(scalar)
    return f"({text})" if " " in text else text


def _func_term_str(key: FuncKey, coeff: CycloScalar) -> str:
    c, a, b = map(wrap, key)
    factors = []
    if not c.is_zero:
        factors.append("x" if c == ONE else f"x^{_paren(c)}")
    if not a.is_zero or not b.is_zero:
        inner = []
        if not a.is_zero:
            inner.append(f"{_paren(a)}*x")
        if not b.is_zero:
            inner.append(f"{_paren(b)}*x^2")
        factors.append(f"exp({' + '.join(inner)})")
    coeff_str = _paren(coeff)
    if not factors:
        return coeff_str
    if coeff == ONE:
        return " * ".join(factors)
    return " * ".join([coeff_str] + factors)


def sin_func(lam) -> FuncExpr:
    """sin(lam*x) encoded as (e^{i lam x} - e^{-i lam x}) / 2i."""
    half_over_i = (2 * IMAG).inv()
    return (FuncExpr.exponential(IMAG * lam) - FuncExpr.exponential(-(IMAG * lam))) * half_over_i


# ---- constant matrices over the scalars ---------------------------------


class Matrix(Combination):
    """Exact matrix: (row, column) -> nonzero scalar entry, of a fixed shape.

    The shape is the context, as the alphabet is for `NcPoly`; `rows` is a dense view.
    """

    __slots__ = ()

    _context_name = "shape"
    shape = property(attrgetter("context"))

    def __init__(self, rows):
        data = [tuple(row) for row in rows]
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged matrix")
        super().__init__({(i, j): x for i, row in enumerate(data) for j, x in enumerate(row)},
                         (len(data), len(data[0]) if data else 0))

    @staticmethod
    def identity(n: int) -> Matrix:
        return Matrix._raw((n, n), {(i, i): ONE for i in range(n)})

    @property
    def rows(self) -> tuple[tuple[CycloScalar, ...], ...]:
        n, m = self.shape
        get = self.terms.get
        return tuple(tuple(get((i, j), ZERO) for j in range(m)) for i in range(n))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            (n, k), (k2, m) = self.shape, other.shape
            if k != k2:
                raise ValueError(f"shape mismatch: {self.shape} times {other.shape}")
            # each left entry (i, j) meets only the entries of row j on the right
            by_row: dict[int, list] = {}
            for (j, col), b in other.terms.items():
                by_row.setdefault(j, []).append((col, b))
            return Matrix._raw((n, m), accumulate(
                ((i, col), a * b)
                for (i, j), a in self.terms.items() for col, b in by_row.get(j, ())
            ))
        return Combination.__rmul__(self, other)

    def _unit(self) -> Matrix:
        n, m = self.shape
        if n != m:
            raise ValueError("power of a non-square matrix")
        return Matrix.identity(n)

    def __str__(self) -> str:
        rows = ("[" + ", ".join(map(str, row)) + "]" for row in self.rows)
        return "[" + ", ".join(rows) + "]"


def random_rational(rng: random.Random, span: int = 5) -> CycloScalar:
    """num/den with |num| <= span and 1 <= den <= 4, made canonical in the field directly."""
    num, den = rng.randint(-span, span), rng.randint(1, 4)
    g = gcd(num, den)
    return wrap((num // g, 0, 0, 0, den // g))


def random_matrix(rng: random.Random, m: int) -> Matrix:
    entries = [((i, j), random_rational(rng)) for i in range(m) for j in range(m)]
    return Matrix._raw((m, m), {key: x for key, x in entries if not x.is_zero})


def random_vector(rng: random.Random, m: int) -> tuple[CycloScalar, ...]:
    return tuple(random_rational(rng) for _ in range(m))


def derive_seed(seed: int, *parts: int) -> int:
    x = seed & 0xFFFFFFFFFFFFFFFF
    for p in parts:
        x = (x * 6364136223846793005 + p + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    return x


# ---- vector and matrix valued functions ----------------------------------


class VecFunc(Combination):
    """Column vector of function expressions: (slot, c, alpha, beta) -> coefficient.

    The dimension is the context, as the shape is for `Matrix`; `entries` is a per-slot view.
    """

    __slots__ = ()

    _context_name = "dimension"
    dim = property(attrgetter("context"))

    def __init__(self, entries):
        # the entries' terms are already coerced and pruned
        entries = tuple(entries)
        object.__setattr__(self, "context", len(entries))
        object.__setattr__(self, "terms", {
            (i, *key): v for i, e in enumerate(entries) for key, v in e.terms.items()})

    @staticmethod
    def constant(values) -> VecFunc:
        # c (x) 1, keyed directly at the zero exponents
        values, key = tuple(map(CycloScalar.of, values)), (_ZERO_INTS,) * 3
        return VecFunc._raw(len(values), accumulate(((i, *key), v) for i, v in enumerate(values)))

    @property
    def entries(self) -> tuple[FuncExpr, ...]:
        slots = [{} for _ in range(self.dim)]
        for key, v in self.terms.items():
            slots[key[0]][key[1:]] = v
        return tuple(map(FuncExpr.zero()._like, slots))

    def differentiate(self, kind: str = D_DX) -> VecFunc:
        return self._like(_derivative(self.terms, kind))

    def __str__(self) -> str:
        return "[" + ", ".join(str(e) for e in self.entries) + "]"


class FuncMatrix:
    """The lift's graded multiplier: sum_d p[d]*S^d*u over its parts (p, u), S the shift.

    p is a polynomial by its coefficients and u a function; a term moves
    from slot k to slot k + d, and slots at or past the vector's dimension
    are dropped.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        # each p as its nonzero (d, p[d]), formed once
        self.parts = tuple((tuple((d, CycloScalar.of(x)) for d, x in enumerate(p) if x), u)
                           for p, u in parts)

    def matvec(self, v: VecFunc) -> VecFunc:
        def images():
            # each (u term, v term) pair sums its keys once and goes to each slot k + d kept
            for p, u in self.parts:
                for (k, c2, a2, b2), w2 in v.terms.items():
                    shifts = [(k + d, x) for d, x in p if k + d < v.dim]
                    for (c1, a1, b1), w1 in u.terms.items() if shifts else ():
                        key = (add_ints(c1, c2), add_ints(a1, a2), add_ints(b1, b2))
                        w = w1 * w2
                        for slot, x in shifts:
                            yield (slot, *key), x * w

        return v._like(accumulate(images()))

    def __mul__(self, v):
        # any operand but a vector is declined, so Python names both kinds
        if isinstance(v, VecFunc):
            return self.matvec(v)
        return NotImplemented


# ---- letter actions ----------------------------------------------------------


def letter_actions(u, kind: str = D_DX) -> dict:
    """U acts as multiplication by u (a function or a FuncMatrix), D as the derivation `kind`."""
    return {"U": lambda g: u * g, "D": lambda g: g.differentiate(kind)}


def apply_each(polys, assignment: dict, f) -> list:
    """Act with each polynomial on f; the rightmost letter of each word acts first.

    `assignment` maps each letter name to a callable g -> g'.  Distinct
    words share suffixes heavily, within one polynomial and across
    polynomials of one alphabet, so the image of each suffix is formed once
    for all of them.  The carrier's `combine` forms each sum.
    """
    polys = list(polys)
    names = polys[0].alphabet.names if polys else ()
    for p in polys:
        if p.alphabet.names != names:
            raise ValueError("apply_each needs polynomials over one alphabet")
    suffix_cache: dict[tuple[int, ...], object] = {(): f}

    def image_of(word):
        g = suffix_cache.get(word)
        if g is None:
            action = assignment.get(names[word[0]])
            if action is None:
                raise ValueError(f"generator {names[word[0]]!r} has no assigned operator")
            g = action(image_of(word[1:]))
            suffix_cache[word] = g
        return g

    return [f.combine((coeff, image_of(word)) for word, coeff in p.terms.items()) for p in polys]


def apply_assigned(p: NcPoly, assignment: dict, f):
    """Act with p on f: `apply_each` of one polynomial.

    It stays in `src` only because perfbench's tracer patches it by name;
    once the tracer counts the letter actions instead, it can join the oracles.
    """
    return apply_each([p], assignment, f)[0]


# ---- scalar-function verifiers --------------------------------------------


def apply_binomial(n: int, mu, u, f, kind: str = D_DX):
    """B(n) with parameter mu applied to f: U multiplies by u, D is the derivation `kind`.

    u is a function or a `FuncMatrix`, f a function or a vector of its
    space.  Every single-mu realized verifier evaluates B(n)*f here, with
    no free expansion.  Horner's rule on the sum over k of
    C(n,k) * F_0 ... F_(k-1) * U^(n-k) f, with F_k = D - U + k*mu, is
    folded so that U acts once per step: g_n = f and, for k = n-1 down
    to 0,

        g_k = (D + k*mu) g_(k+1) + U (C(n,k) U^(n-k-1) f - g_(k+1)),

    and B(n)*f = g_0.  That is 2n - 1 actions of U and n of D (none at
    n = 0), where the word path acts once per suffix of about 2^(n+1)
    words; Tier-1 keeps that path as the oracle.

    With D = d/dx, phi' = u*phi and s(t) = -log(1 - mu*t)/mu (t at mu = 0),
    sum_n B(n)*t^n/n! = phi*e^(s(t)*D)*e^(t*U)*phi^-1: D - U = phi*D*phi^-1,
    and the rising products D(D + mu)...(D + (k-1)mu) sum to e^(s(t)*D)
    (Graham, Knuth, Patashnik, Concrete Mathematics, ch. 5 and 7).  On g it
    is e^E(t)*g(x + s), E(t) = sum_j u^(j)*(t*s^j/j! - s^(j+1)/(j+1)!), and
    each coefficient of E starts at t^2, so B(n) has U-degree at most
    floor(n/2).  Only the derivation rule enters, so the bound holds for
    multiplication by any element of a commutative ring with a derivation,
    the lift's sum p(S)*u among them.
    """
    powers = [f]  # U^i f for i < n
    for _ in range(n - 1):
        powers.append(u * powers[-1])
    g = f
    for k in range(n - 1, -1, -1):
        step = g.differentiate(kind) + u * (powers[n - k - 1].scaled(comb(n, k)) - g)
        g = step + g.scaled(mu * k) if k and mu != 0 else step
    return g


def dichotomy_operator(kind: str, lam: CycloScalar) -> tuple[FuncExpr, CycloScalar, CycloScalar]:
    """(multiplier u, binomial parameter mu, even-case base) for kind "decay" or "sine".

    With U the multiplication by u and D = d/dx, B(n) built with mu sends
    1 to zero for odd n, and to (n-1)!! * base^(n/2) * e^(-mu*n*x/2) for
    even n; (2 d/dx + mu*n) annihilates the image for every n.
    """
    if kind == "decay":
        return FuncExpr.exponential(-lam), lam, -2 * lam
    return sin_func(lam), IMAG * lam, lam


def _decay(n: int, mu: CycloScalar) -> FuncExpr:
    """e^(-mu*n*x/2), the exponential of the even-case closed form."""
    return FuncExpr.exponential(-(mu * Fraction(n, 2)))


def _shifted(result, mu: CycloScalar, n: int):
    """(2 d/dx + mu*n) applied to a scalar or vector function."""
    return result.differentiate().scaled(2) + result.scaled(mu * n)


@functools.lru_cache(maxsize=128)  # every j row of `exp` states the same decay dichotomy
def _scalar_dichotomy(kind: str, n: int, lam: CycloScalar) -> tuple[Clause, ...]:
    """Parity and shift clauses of B(n)*1, B(n) built with the operator's mu."""
    u, mu, base = dichotomy_operator(kind, lam)
    result = apply_binomial(n, mu, u, FuncExpr.one())
    zero = FuncExpr.zero()
    clauses = parity_clauses(n, result, zero, base, _decay(n, mu).scaled)
    if n > 0:
        clauses.append(Clause("shifted-vanishes", _shifted(result, mu, n), zero))
    return tuple(clauses)


def verify_exponential(n: int, lam, j: int | None) -> list[Clause]:
    """All four displayed identities for exponential multiplication operators."""
    if j is not None and not (0 <= j <= n - 1):
        raise ValueError(f"j={j} outside 0..{n - 1}")
    dichotomy = _scalar_dichotomy("decay", n, lam)
    clauses = []
    if j is not None:
        grow, target = FuncExpr.exponential(lam), FuncExpr.exponential(-(lam * j))
        clauses.append(Clause("kernel-target", apply_binomial(n, lam, grow, target),
                              FuncExpr.zero()))
    return clauses + list(dichotomy)


def verify_sine(n: int, lam) -> list[Clause]:
    """Sine multiplication operator with binomial parameter i*lam."""
    return list(_scalar_dichotomy("sine", n, lam))


def verify_linear(n: int, a, b) -> list[Clause]:
    """Multiplication by a*x + b with zero binomial parameter."""
    u = FuncExpr.monomial(1).scaled(a) + FuncExpr.term(b)
    result = apply_binomial(n, ZERO, u, FuncExpr.one())
    zero = FuncExpr.zero()
    clauses = parity_clauses(n, result, zero, a, FuncExpr.term)
    if n > 0:
        clauses.append(Clause("derivative-vanishes", result.differentiate(), zero))
    return clauses


def verify_change_of_variables(n: int, lam, j: int, variant: str) -> list[Clause]:
    """Identities transported by x -> x^2/2 (gauss) and x -> ln x (log)."""
    if not (0 <= j <= n - 1):
        raise ValueError(f"j={j} outside 0..{n - 1}")
    half = CycloScalar.of(Fraction(1, 2))
    if variant == "gauss":
        u, kind = FuncExpr.exponential(0, lam * half), XINV_D_DX
        target = FuncExpr.exponential(0, -(lam * half * j))
    elif variant == "log":
        u, kind = FuncExpr.monomial(lam), X_D_DX
        target = FuncExpr.monomial(-(lam * j))
    else:
        raise ValueError(f"unknown change-of-variables variant {variant!r}")
    return [Clause("", apply_binomial(n, lam, u, target, kind), FuncExpr.zero())]


# ---- vector-function verifiers ---------------------------------------------


@functools.lru_cache(maxsize=128)  # item 8 alone draws data (its p) that enters the key
def _graded_fold(n: int, mu, parts: tuple, phi: FuncExpr) -> tuple[dict, int]:
    """The read-only terms of B(n)*(e_0 (x) phi) keyed (grade, exponents), and the top grade.

    See `apply_binomial_lifted`; the fold never sees a or c, so cases share
    it.  Its e*floor(n/2) + 1 slots (e the highest degree of a p) are
    exact: no action lowers a grade, a U raises it by at most e, and B(n)
    has U-degree at most floor(n/2) (`apply_binomial`).
    """
    start = VecFunc._raw(max(len(p) - 1 for p, _ in parts) * (n // 2) + 1,
                         {(0, *key): w for key, w in phi.terms.items()})
    graded = apply_binomial(n, mu, FuncMatrix(parts), start).terms
    return graded, max((key[0] for key in graded), default=-1)


def apply_binomial_lifted(n: int, mu, a: Matrix, parts, phi: FuncExpr, vectors) -> list[VecFunc]:
    """B(n)*(c (x) phi) for each constant vector c from one scalar fold; U = sum p(a)*u.

    `parts` are the (p, u) of U, p a polynomial in the constant matrix a
    by its coefficients (p[d] multiplies a^d) and u a function: U = a*u is
    [((0, 1), u)], and D is d/dx.  `apply_binomial` runs once per key of
    the memo `_graded_fold`, with a replaced by the shift S: e_k -> e_(k+1)
    and f = e_0 (x) phi, so slot k holds G_k phi, the grade-k part of
    B(n)*phi; each case lifts the image of its c (x) phi as
    sum_k (a^k c) (x) G_k phi.  Exact: e_k (x) psi -> a^k c (x) psi
    intertwines S with a, so p(S)*u with p(a)*u, and D with D, because a
    is constant.  The fold keeps e*floor(n/2) + 1 slots, the grades that
    the U-degree bound of `apply_binomial` leaves.
    """
    graded, top = _graded_fold(n, mu, tuple((tuple(p), u) for p, u in parts), phi)
    images = []
    for c in vectors:
        powers = [accumulate(enumerate(c))]  # a^k c as row -> nonzero entry
        for _ in range(top):
            v = powers[-1]
            powers.append(accumulate((i, x * v[j]) for (i, j), x in a.terms.items() if j in v))
        images.append(VecFunc._raw(a.shape[0], accumulate(
            ((i, *key[1:]), x * w) for key, w in graded.items()
            for i, x in powers[key[0]].items())))
    return images


def verify_vector_item(item: int, n: int, lam, m: int, seed: int) -> list[Clause]:
    """One of the eight vector-valued statements, with seeded exact data."""
    if item not in range(1, 9):
        raise ValueError("vector item must be 1..8")
    if m < 1:
        raise ValueError("dimension must be at least 1")
    # items 2 and 5 state the odd half of the dichotomy, 3 and 6 the even half, 8 both; at n = 0
    # B(0) = I and only item 4 states anything, so no other case draws data or folds
    if (n == 0 and item != 4) or (item in (2, 3, 5, 6) and (item in (2, 5)) != (n % 2 == 1)):
        return []
    rng = random.Random(derive_seed(seed, item, n, m))
    a = random_matrix(rng, m)
    zero = VecFunc.zero(m)
    if item == 1:
        grow = [((0, 1), FuncExpr.exponential(lam))]
        units = [[ONE if i == col else ZERO for i in range(m)] for col in range(m)]
        clauses = []
        for j in range(n):  # one fold per target e^(-j lam x) serves every unit vector
            images = apply_binomial_lifted(n, lam, a, grow, FuncExpr.exponential(-(lam * j)),
                                           units)
            clauses += (Clause(f"j={j},col={col}", image, zero) for col, image in enumerate(images))
        return clauses
    c = random_vector(rng, m)
    if item == 8:  # U = a*x + p(a), p of degree 2: [D, U] = a is central, mu = 0
        p = tuple(random_rational(rng, 3) for _ in range(3))
        parts, mu, base = [((0, 1), FuncExpr.monomial(1)), (p, FuncExpr.one())], ZERO, ONE
    else:
        u, mu, base = dichotomy_operator("decay" if item <= 4 else "sine", lam)
        parts = [((0, 1), u)]
    result, = apply_binomial_lifted(n, mu, a, parts, FuncExpr.one(), [c])
    clauses = []
    if item in (2, 3, 5, 6, 8):  # the even closed form mat*c (x) e^(-mu*n*x/2), apart from the lift
        (key, _), = _decay(n, mu).terms.items()
        clauses = parity_clauses(n, result, zero, base * a, lambda mat: VecFunc._raw(m, accumulate(
            ((i, *key), x * c[j]) for (i, j), x in mat.terms.items())))
    if item == 4:  # the sign probe on (2 d/dx +/- mu n)
        clauses.append(Clause("shift-plus-vanishes", _shifted(result, mu, n), zero))
        clauses.append(Clause("minus_also_zero", _shifted(result, -mu, n), zero, probe=True))
    elif item == 7 and n > 0:
        clauses.append(Clause("shifted-vanishes", _shifted(result, mu, n), zero))
    elif item == 8 and n > 0:
        clauses.append(Clause("derivative-vanishes", result.differentiate(), zero))
    return clauses


def verify_shift_binomial_matrices(n: int, dim: int, seed: int) -> list[Clause]:
    """Matrix oracle for the shifted binomial sum identity."""
    if dim < 2:
        raise ValueError("matrix oracle needs dim >= 2")
    rng = random.Random(derive_seed(seed, n, dim))
    a1 = random_matrix(rng, dim)
    a2 = random_matrix(rng, dim)
    return shift_binomial_clauses(n, a1, a2, Matrix.identity(dim))


# ---- realized W-independence ------------------------------------------------


def random_func_expr(rng: random.Random) -> FuncExpr:
    out = FuncExpr.zero()
    for _ in range(2):
        coeff = random_rational(rng, 4)
        c = rng.randint(0, 2)
        alpha = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        out = out + FuncExpr.term(coeff, c=c, alpha=alpha)
    return out


def verify_w_independence_realized(n: int, lam, seed: int) -> list[Clause]:
    """W-independence with concrete multiplication operators.

    V multiplies by a pseudo-random exponential-polynomial (so no
    relation between D and V is assumed at all); W multiplies by
    e^{lam*x}.  The two combinations must agree on five sample inputs.
    """
    rng = random.Random(derive_seed(seed, n))
    v = random_func_expr(rng)
    v_plus_w = v + FuncExpr.exponential(lam)
    clauses = []
    for idx in range(5):
        f = random_func_expr(rng)
        clauses.append(Clause(f"sample-{idx}", apply_binomial(n, lam, v_plus_w, f),
                              apply_binomial(n, lam, v, f)))
    return clauses


# ---- third-order proof -------------------------------------------------------

_MU = Alphabet(("mu",))  # polynomials in the parameter mu are NcPoly in this one letter
_UDM = Alphabet(("U", "D", "mu"))
# the free generators of the one abstract B(n), mu among them, that
# `mu_coefficients` applies word by word; `apply_binomial` builds no B(n)
_U, _D, _M = (NcPoly.generator(_UDM, name) for name in _UDM.names)


def mu_coefficients(n: int, u: FuncExpr) -> dict[FuncKey, NcPoly]:
    """Each exponential's coefficient in B(n)*1, U multiplying by u, as a polynomial in mu.

    One free B(n) is built with mu as a letter; a word with k mu letters
    carries mu^k.  With mu struck out, the words of each power add up
    (words that differ only in where mu sat collapse) to one polynomial
    in U and D, and the coefficient of mu^k is read off its image of 1.
    The images come from `apply_each` on the free expansion, a path
    independent of the fold in `apply_binomial`; this is also the
    function-space caller of `build_binomial` and `NcPoly.__mul__` that
    the traced function-space benchmark needs to show work in those layers.
    """
    m = _UDM.index("mu")
    by_power: dict[int, dict] = {}
    for word, coeff in build_binomial(n, _M, _U, _D).terms.items():
        accumulate([(tuple(i for i in word if i != m), coeff)],
                   by_power.setdefault(word.count(m), {}))
    images = apply_each([NcPoly._raw(_UDM, terms) for terms in by_power.values()],
                        letter_actions(u), FuncExpr.one())
    coefficients: dict[FuncKey, dict] = {}
    for k, image in zip(by_power, images):
        for key, coeff in image.terms.items():
            coefficients.setdefault(key, {})[(0,) * k] = coeff  # mu^k in `_MU`
    return {key: NcPoly._raw(_MU, terms) for key, terms in coefficients.items()}


def mu_gcd(a: NcPoly, b: NcPoly) -> NcPoly:
    """Monic gcd of two polynomials in mu, by Euclid's algorithm; gcd(0, 0) = 0."""

    def monic(p: NcPoly) -> NcPoly:
        return p.scaled(p.terms[max(p.terms, key=len)].inv())

    while not b.is_zero:
        b = monic(b)
        top = max(map(len, b.terms))
        # a word of the one letter mu is a power of mu; b's leading term is mu^top
        while not a.is_zero and len(lead := max(a.terms, key=len)) >= top:
            a -= NcPoly(_MU, {lead[top:]: a.terms[lead]}) * b
        a, b = b, a
    return a if a.is_zero else monic(a)


def verify_third_order(n: int, lam) -> list[Clause]:
    """Proof that no complex mu makes B(n)*1 vanish, for a genuinely third-order sum.

    u = e^{lam x} + e^{w lam x} + e^{w^2 lam x} satisfies u''' = lam^3 u
    and no lower-order equation of that shape; U multiplies by u, and
    `mu_coefficients` gives each coefficient of B(n)*1 as a polynomial in
    mu.  Exponentials with distinct exponents are linearly independent, so
    B(n)*1 vanishes at mu exactly when mu is a common root of all the
    coefficients.  Their gcd is formed over Q(z); a gcd over a field is the
    same in any extension field, C included, so gcd = 1 proves that no mu
    works.  n = 1 is excluded as degenerate: B(1) = D sends 1 to zero for
    every mu.
    """
    if lam == 0:
        raise ValueError("the third-order proof needs lam != 0")
    if n % 2 == 0 or n < 3:
        raise ValueError("the third-order proof covers odd n >= 3")
    u = (FuncExpr.exponential(lam) + FuncExpr.exponential(OMEGA * lam)
         + FuncExpr.exponential(OMEGA * OMEGA * lam))
    common = functools.reduce(mu_gcd, mu_coefficients(n, u).values(), NcPoly.zero(_MU))
    return [Clause("coefficient-gcd", common, NcPoly.unit(_MU))]
