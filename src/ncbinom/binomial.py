"""Construction of the binomial-type combination and its symbolic checks.

The central object is the degree-n combination

    sum over k of  C(n,k) * [product over j < k of (D - U + j*lam*I)] * U^(n-k)

with the product factors multiplied left to right in increasing j.  The
builders compute in whatever arithmetic their arguments carry: plain
`NcPoly` generators give the free expansion (503 words over U, D at
n = 8), and `Normal` generators of a preset give the normal form directly,
each product normalized as it is formed.  Every verifier except the free
identity `lemma-l2` takes its preset's generators as `Normal` values, so it
compares normal forms under the relations of its identity.  A verifier
returns its list of clauses and nothing else; `cli.run_case` names the
case and builds its report.  Verifiers and builders take their scalars as
the field elements that `run_case` parses and use them as given; their
arithmetic is also defined for int and Fraction.  Every comparison is
exact, with no numeric tolerance anywhere.

`build_binomial`, the one evaluator of B(n) in every algebra and on every
function space, folds Horner's rule into 3n - 1 products, each with u or
d as its left operand; `cached_binomial` is its memo, which every symbolic
verifier reads.  `binomial_sum` nests any sum of
C(n,k) * F_0 ... F_(k-1) * R_(n-k) by Horner's rule for
`build_binomial_alt` and `power_sum`.  Likewise `parity_clauses` is the
one statement of the parity dichotomy.
"""

from __future__ import annotations

import functools
from math import comb

from .freealg import Alphabet, NcPoly, commutator
from .report import Clause
from .rewrite import RelationPreset, cached_preset, kernel_eval, restrict_to_kernel
from .scalars import ZERO, CycloScalar


def double_factorial(k: int) -> int:
    """k!! = k * (k-2)!!, with (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError("double factorial defined for k >= -1")
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


def running_products(unit, factors) -> list:
    """[unit, f0, f0*f1, ...], one product per entry; n copies of x give x^0 .. x^n."""
    products = [unit]
    for factor in factors:
        products.append(products[-1] * factor)
    return products


def binomial_sum(n: int, factors, right):
    """Sum over k of C(n,k) * factors[0] ... factors[k-1] * right[n-k], for any ring.

    Horner's rule: n products, each factors[k] times the sum so far.
    """
    total = right[0]
    for k in range(n - 1, -1, -1):
        total = comb(n, k) * right[n - k] + factors[k] * total
    return total


def power_sum(n: int, a, b, unit):
    """Sum over k of C(n,k) * a^k * b^(n-k), each power of b a product from `unit`."""
    return binomial_sum(n, [a] * n, running_products(unit, [b] * n))


def parity_clauses(n: int, result, zero, base, embed) -> list[Clause]:
    """The parity dichotomy: odd n vanishes, even n > 0 is embed((n-1)!! * base^(n/2)).

    `embed` carries the closed form into the space of `result` (a normal
    form, a function, a vector); n = 0 gives no clause.
    """
    if n % 2 == 1:
        return [Clause("odd-vanishes", result, zero)]
    if n > 0:
        return [Clause("even-closed-form", result,
                       embed(double_factorial(n - 1) * base ** (n // 2)))]
    return []


def build_binomial(n: int, lam, u, d, f=None):
    """B(n) with parameter lam applied to f: U acts as `u * g`, D as `d * g`.

    f defaults to the unit u**0, so four arguments give B(n) itself, free
    or normal as u and d are.  On a function space d is a
    `realize.Derivation`, u a function or a `realize.FuncMatrix`, and f a
    function, a vector, or the identity `DiffOperator`, which gives B(n) as
    sum_r p_r*D^r.  No value is kept; `cached_binomial` is the memo.

    Horner's rule on the sum over k of
    C(n,k) * F_0 ... F_(k-1) * U^(n-k) f, with F_k = D - U + k*lam, is
    folded so that U acts once per step: g_n = f and, for k = n-1 down
    to 0,

        g_k = (D + k*lam) g_(k+1) + U (C(n,k) U^(n-k-1) f - g_(k+1)),

    and B(n)*f = g_0.  That is 2n - 1 actions of U and n of D (none at
    n = 0), where the word path acts once per suffix of about 2^(n+1)
    words; Tier-1 keeps that path as the oracle.

    With D = d/dx, phi' = u*phi and s(t) = -log(1 - lam*t)/lam (t at lam = 0),
    sum_n B(n)*t^n/n! = phi*e^(s(t)*D)*e^(t*U)*phi^-1: D - U = phi*D*phi^-1,
    and the rising products D(D + lam)...(D + (k-1)lam) sum to e^(s(t)*D)
    (Graham, Knuth, Patashnik, Concrete Mathematics, ch. 5 and 7).  On g it
    is e^E(t)*g(x + s), E(t) = sum_j u^(j)*(t*s^j/j! - s^(j+1)/(j+1)!), and
    each coefficient of E starts at t^2, so B(n) has U-degree at most
    floor(n/2).  Only the derivation rule enters, so the bound holds for
    multiplication by any element of a commutative ring with a derivation,
    the lift's sum p(S)*u among them.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    f = u**0 if f is None else f  # u**0: the unit in the arithmetic of u
    powers = [f]  # U^i f for i < n
    for _ in range(n - 1):
        powers.append(u * powers[-1])
    g = f
    for k in range(n - 1, -1, -1):
        step = d * g + u * (powers[n - k - 1].scaled(comb(n, k)) - g)
        g = step + g.scaled(lam * k) if k and lam != 0 else step
    return g


# B(n) values kept per process, for free and normal generators alike; least
# recently used first out
BINOMIAL_MEMO_SIZE = 128


# typed: a plain NcPoly and a Normal with equal terms compare equal, so an
# untyped key would hand a build in one arithmetic to the other
@functools.lru_cache(maxsize=BINOMIAL_MEMO_SIZE, typed=True)
def cached_binomial(n: int, lam, u: NcPoly, d: NcPoly) -> NcPoly:
    """B(n) from `build_binomial`; callers of equal arguments share one immutable value."""
    return build_binomial(n, lam, u, d)


def build_binomial_alt(n: int, lam, u: NcPoly, d: NcPoly) -> NcPoly:
    """Equivalent expansion that factors out one (D + k*lam*I); needs n > 0."""
    if n <= 0:
        raise ValueError("alternative expansion requires n > 0")
    unit = u**0
    factors = [d - u + (lam * j) * unit for j in range(n - 1)]
    powers = running_products(unit, [u] * (n - 1))
    right = [(d + (lam * (n - 1 - j)) * unit) * p for j, p in enumerate(powers)]
    return binomial_sum(n - 1, factors, right)


def falling_product(n: int, lam, d: NcPoly) -> NcPoly:
    """Ordered product of (D + j*lam*I) for j = 0 .. n-1."""
    unit = d**0  # the unit in the arithmetic of d
    return running_products(unit, (d + (lam * j) * unit for j in range(n)))[-1]


def kernel_dichotomy(n: int, lam: CycloScalar, preset: RelationPreset,
                     base: NcPoly) -> tuple[NcPoly, list[Clause]]:
    """B(n) restricted to ker D, with its parity clauses and the shift clause.

    On ker D the restriction vanishes for odd n and is (n-1)!! * base^(n/2)
    for even n > 0; (2D + n*lam) * B(n) vanishes there for every n.
    """
    u, d = preset.normal_generator("U"), preset.normal_generator("D")
    unit = u**0
    b = cached_binomial(n, lam, u, d)
    restricted = restrict_to_kernel(b, preset)
    zero = 0 * unit  # a Normal: comparing with it normalizes nothing
    clauses = parity_clauses(n, restricted, zero, base, lambda p: p)
    shifted = restrict_to_kernel((2 * d + (lam * n) * unit) * b, preset)
    clauses.append(Clause("shifted-vanishes", shifted, zero))
    return restricted, clauses


# ---- symbolic verifiers --------------------------------------------------


def verify_u_independence(n: int, lam) -> list[Clause]:
    """The combination collapses to the product of (D + j*lam*I) factors."""
    preset = cached_preset("first-order-plus", lam)
    d = preset.normal_generator("D")
    lhs = cached_binomial(n, lam, preset.normal_generator("U"), d)
    return [
        Clause("product-form", lhs, falling_product(n, lam, d)),
        Clause("no-U", NcPoly.scalar(preset.alphabet, lhs.letter_degree("U")),
               NcPoly.zero(preset.alphabet)),
    ]


def verify_ascending_recurrence(n: int, lam) -> list[Clause]:
    """B(n) equals B(n-1) * (D + (n-1)*lam*I) modulo the plus relations."""
    if n < 1:
        raise ValueError("recurrence needs n >= 1")
    preset = cached_preset("first-order-plus", lam)
    u, d = preset.normal_generator("U"), preset.normal_generator("D")
    lhs = cached_binomial(n, lam, u, d)
    rhs = cached_binomial(n - 1, lam, u, d) * (d + (lam * (n - 1)) * u**0)
    return [Clause("", lhs, rhs)]


def verify_minus_commutator_theorem(n: int, lam) -> list[Clause]:
    """Kernel restriction under DU -> UD - lam*U: parity dichotomy and shift."""
    preset = cached_preset("first-order-minus", lam)
    return kernel_dichotomy(n, lam, preset, (-2 * lam) * preset.normal_generator("U"))[1]


def verify_minus_recurrence(n: int, lam) -> list[Clause]:
    """Three-term recurrence under the minus relations (two-term at n = 2)."""
    if n < 2:
        raise ValueError("recurrence needs n >= 2")
    preset = cached_preset("first-order-minus", lam)
    u, d = preset.normal_generator("U"), preset.normal_generator("D")
    lhs = cached_binomial(n, lam, u, d)
    rhs = cached_binomial(n - 1, lam, u, d) * (d + (lam * (n - 1)) * u**0)
    rhs = rhs - (2 * (n - 1)) * lam * (u * cached_binomial(n - 2, lam, u, d))
    if n > 2:
        rhs = rhs + (2 * (n - 1) * (n - 2)) * (lam * lam) * (
            u * cached_binomial(n - 3, lam, u, d)
        )
    return [Clause("", lhs, rhs)]


def verify_second_commutator_theorem(n: int, lam) -> list[Clause]:
    """Kernel restriction when the second commutator is lam^2 * U.

    The generator C stands for the commutator of D and U.  At lam = 0 the
    same rules degenerate to a central C, and the two-step recurrence is
    cross-checked as an extra clause.
    """
    preset = cached_preset("second-order", lam)
    u, c, d = map(preset.normal_generator, ("U", "C", "D"))
    restricted, dichotomy = kernel_dichotomy(n, lam, preset, c - lam * u)
    clauses = [Clause("c-names-commutator", commutator(d, u), c)] + dichotomy
    if lam == 0 and n >= 3:
        prev = restrict_to_kernel(cached_binomial(n - 2, lam, u, d), preset)
        clauses.append(Clause("two-step-recurrence", restricted, (n - 1) * (c * prev)))
    return clauses


def verify_central_recurrence(n: int) -> list[Clause]:
    """Restriction drops by two degrees at multiplier (n-1)*C when lam = 0."""
    if n < 3:
        raise ValueError("two-step recurrence needs n >= 3")
    preset = cached_preset("second-order-central", ZERO)
    u, c, d = map(preset.normal_generator, ("U", "C", "D"))
    lhs = restrict_to_kernel(cached_binomial(n, ZERO, u, d), preset)
    prev = restrict_to_kernel(cached_binomial(n - 2, ZERO, u, d), preset)
    return [Clause("", lhs, (n - 1) * (c * prev))]


def verify_kernel_vectors(n: int, lam, j: int) -> list[Clause]:
    """Eigenvector evaluation at mu = -j*lam annihilates the combination.

    Out-of-range j is allowed and simply fails, serving as the negative
    control case.
    """
    if j < 0:
        raise ValueError("j must be non-negative")
    preset = cached_preset("first-order-plus", lam)
    b = cached_binomial(n, lam, preset.normal_generator("U"), preset.normal_generator("D"))
    value = kernel_eval(b, preset, -(lam * j))
    return [Clause("", value, 0 * value)]  # the Normal zero, so comparing normalizes nothing


def verify_w_independence(n: int, lam, mu) -> list[Clause]:
    """Replacing V by V + W does not change the combination, abstractly."""
    preset = cached_preset("partial-vw", lam, mu)
    v, w, d = map(preset.normal_generator, ("V", "W", "D"))
    lhs = cached_binomial(n, lam, v + w, d)
    rhs = cached_binomial(n, lam, v, d)
    return [Clause("", lhs, rhs)]


def verify_alt_expansion(n: int, lam) -> list[Clause]:
    """The two expansions agree term by term with no relations applied."""
    if n < 1:
        raise ValueError("alternative expansion requires n > 0")
    preset = cached_preset("free")
    u, d = preset.generator("U"), preset.generator("D")
    return [Clause("", cached_binomial(n, lam, u, d), build_binomial_alt(n, lam, u, d))]


def verify_inverse_factorization(n: int, lam) -> list[Clause]:
    """B(n) equals (D * Uinv)^n * U^n once U is invertible."""
    preset = cached_preset("invertible-plus", lam)
    uinv, u, d = map(preset.normal_generator, ("Uinv", "U", "D"))
    lhs = cached_binomial(n, lam, u, d)
    rhs = (d * uinv) ** n * u**n
    return [Clause("", lhs, rhs)]


def shift_binomial_clauses(n: int, a1, a2, unit) -> list[Clause]:
    """Shifting a1 down and a2 up by the unit leaves the binomial sum of a1 and a2 fixed."""
    return [Clause("", power_sum(n, a1 - unit, a2 + unit, unit), power_sum(n, a1, a2, unit))]


def verify_shift_binomial(n: int) -> list[Clause]:
    """The shifted binomial sum of the free generators A1 and A2."""
    alpha = Alphabet(("A1", "A2"))
    a1, a2 = (NcPoly.generator(alpha, name) for name in alpha.names)
    return shift_binomial_clauses(n, a1, a2, NcPoly.unit(alpha))


def verify_noncommuting_binomial_form(n: int, lam) -> list[Clause]:
    """B(n) as a binomial sum in DU - U^2 and U^2, times Uinv^n."""
    preset = cached_preset("invertible-minus", lam)
    uinv, u, d = map(preset.normal_generator, ("Uinv", "U", "D"))
    core = power_sum(n, d * u - u * u, u * u, u**0)
    lhs = cached_binomial(n, lam, u, d)
    rhs = core * uinv**n
    return [Clause("", lhs, rhs)]
