"""Normal ordering of free-algebra elements under commutation presets.

Each preset is one rule table over its alphabet: every adjacent pair of
generator names (upper, lower) that it rewrites, with the polynomial that
replaces it, in rule order (`PRESETS`).  Each monomial of a replacement is
the swapped (ascending) pair, a single letter, or the empty word.  That
shape is what guarantees termination: every monomial of a replacement is
smaller than the rule's left-hand side in the degree-lexicographic order
on words (shorter first, then by alphabet order), a total semigroup order
with no infinite descending chain.  Uniqueness of normal forms is not
assumed; `check_confluence` proves it by resolving the overlap
ambiguities (Bergman's diamond lemma).

The designated kernel generator D must be last in alphabet order.  In a
normal form all remaining D letters sit in a trailing block, so "evaluate
on a D-eigenvector" replaces the trailing block by a scalar power, and
"restrict to the D-kernel" is the same evaluation at eigenvalue zero.

Once confluence is proved the normal words are a basis of the quotient
algebra, so the normal form of a product is the normal form of the
product of normal forms.  `Normal` is a polynomial held in normal form
under one preset; its `*` normalizes each product at once, so any builder
written for "a ring with * and +" computes in the quotient algebra when
handed `Normal` generators, without ever forming the free expansion.
"""

from __future__ import annotations

from collections import namedtuple

from .freealg import Alphabet, Combination, NcPoly, Word, accumulate
from .scalars import ZERO, CycloScalar

class RelationPreset:
    """Named rule table over an alphabet; its scalars live only in the replacements.

    `rules` lists, in rule order, each left-hand pair of generator names
    (upper, lower) with its replacement polynomial.  This is the one place
    that turns those names into alphabet indices and checks each rule.
    """

    def __init__(
        self,
        name: str,
        alphabet: Alphabet,
        rules: tuple[tuple[tuple[str, str], NcPoly], ...],
    ):
        self.name = name
        self.alphabet = alphabet
        self.rules = rules
        self.d_index = alphabet.index("D")
        if self.d_index != len(alphabet) - 1:
            raise ValueError(f"D must be the maximal generator of {alphabet.names}")
        rule_map: dict[tuple[int, int], dict[Word, CycloScalar]] = {}
        for (upper, lower), right in rules:
            a, b = alphabet.index(upper), alphabet.index(lower)
            # each monomial is the ascending swap (b, a), one letter or the unit
            if any(len(word) > 2 or len(word) == 2 and (word != (b, a) or a <= b)
                   for word in right.terms):
                raise ValueError(
                    f"rule {upper} {lower} does not descend: a replacement monomial must be"
                    f" the ascending pair {lower} {upper}, one letter or the unit"
                )
            if (a, b) in rule_map:
                raise ValueError(f"duplicate rule for pair {upper} {lower}")
            rule_map[(a, b)] = dict(right.terms)
        self._rule_map = rule_map
        self._nf_cache: dict[Word, dict[Word, CycloScalar]] = {}

    def __repr__(self) -> str:
        return f"RelationPreset({self.name!r})"

    def generator(self, name: str) -> NcPoly:
        return NcPoly.generator(self.alphabet, name)

    def normal_generator(self, name: str) -> Normal:
        return normalize(self.generator(name), self)

    # ---- word-level normalization (memoized leftmost strategy) --------

    def _word_normal_form(self, word: Word) -> dict[Word, CycloScalar]:
        cache = self._nf_cache
        cached = cache.get(word)
        if cached is not None:
            return cached
        rule_map = self._rule_map
        pos = -1
        for i in range(len(word) - 1):
            if (word[i], word[i + 1]) in rule_map:
                pos = i
                break
        if pos < 0:
            result = {word: CycloScalar.of(1)}
        else:
            head, tail = word[:pos], word[pos + 2 :]
            result = {}
            for sub, coeff in rule_map[(word[pos], word[pos + 1])].items():
                reduced = self._word_normal_form(head + sub + tail)
                accumulate(((w2, coeff * c2) for w2, c2 in reduced.items()), result)
        cache[word] = result
        return result


class Normal(NcPoly):
    """A polynomial in normal form under `preset`.

    `*` normalizes each product at once; `+`, `-` and scalar `*` keep a
    `Normal`.  A plain `NcPoly` operand, on either side, is normalized
    first.  Two `Normal` values of different presets never combine or
    compare equal, even over one alphabet.

    The value is an element of the preset's quotient algebra, and `*` its
    product, only when the preset is confluent (`check_confluence(preset).ok`,
    proved for every shipped preset).  Under a non-confluent preset such as
    `incomplete_vw_fixture` a normal form depends on the rewrite order, and
    a product of normal forms need not be the normal form of the product.
    """

    __slots__ = ("preset",)

    @classmethod
    def _of(cls, preset: RelationPreset, clean_terms: dict[Word, CycloScalar]) -> Normal:
        obj = cls._raw(preset.alphabet, clean_terms)
        object.__setattr__(obj, "preset", preset)
        return obj

    def _like(self, clean_terms: dict[Word, CycloScalar]) -> Normal:
        return Normal._of(self.preset, clean_terms)

    def _coerce(self, other: NcPoly) -> Normal:
        if isinstance(other, Normal) and other.preset is not self.preset:
            raise ValueError(
                f"normal forms of presets {self.preset.name} and {other.preset.name} do not combine"
            )
        return normalize(other, self.preset)

    def __eq__(self, other) -> bool:
        if isinstance(other, Normal) and other.preset is not self.preset:
            return False
        return super().__eq__(other)

    # defining `__eq__` drops the inherited hash; equal values still hash alike
    __hash__ = NcPoly.__hash__

    def __add__(self, other) -> Normal:
        if not isinstance(other, NcPoly):
            return NotImplemented
        return super().__add__(self._coerce(other))

    __radd__ = __add__

    def __mul__(self, other) -> Normal:
        if isinstance(other, NcPoly):
            return normalize(NcPoly.__mul__(self, self._coerce(other)), self.preset)
        # a scalar scales; a sum of another kind gets NotImplemented
        return Combination.__rmul__(self, other)

    def __rmul__(self, other) -> Normal:
        if isinstance(other, NcPoly):
            return normalize(NcPoly.__mul__(self._coerce(other), self), self.preset)
        return Combination.__rmul__(self, other)


def normalize(p: NcPoly, preset: RelationPreset) -> Normal:
    """Rewrite to the normal form under the preset's relations.

    The normal form is unique, and the result's `*` is the quotient
    algebra's product, when the preset is confluent (see `Normal`).  A
    `Normal` of this same preset is returned as it is.
    """
    if isinstance(p, Normal) and p.preset is preset:
        return p
    if p.alphabet is not preset.alphabet and p.alphabet != preset.alphabet:
        raise ValueError(
            f"polynomial alphabet {p.alphabet.names} does not match preset {preset.name}"
        )
    return Normal._of(preset, accumulate(
        (w2, coeff * c2)
        for word, coeff in p.terms.items()
        for w2, c2 in preset._word_normal_form(word).items()
    ))


def kernel_eval(p: NcPoly, preset: RelationPreset, mu: CycloScalar) -> Normal:
    """Normal form with each trailing D-block D^c replaced by the scalar mu^c."""
    nf = normalize(p, preset)
    d = preset.d_index
    mu = CycloScalar.of(mu)

    def evaluated(word: Word, coeff: CycloScalar):
        count = 0
        while count < len(word) and word[len(word) - 1 - count] == d:
            count += 1
        if count == 0:
            return word, coeff
        # a zero value is dropped by `accumulate`
        return word[: len(word) - count], ZERO if mu.is_zero else coeff * mu**count

    # a prefix of a normal word is normal
    return Normal._of(preset, accumulate(
        evaluated(word, coeff) for word, coeff in nf.terms.items()
    ))


def restrict_to_kernel(p: NcPoly, preset: RelationPreset) -> Normal:
    """Action on ker D: every monomial of the normal form that ends in D vanishes."""
    return kernel_eval(p, preset, ZERO)


# ---- confluence proof ---------------------------------------------------


class ConfluenceReport(namedtuple("ConfluenceReport", "preset_name overlaps divergent")):
    """`overlaps`: every overlap word abc, in rule order; `divergent`: each
    (word, normal forms of both reducts) whose reducts differ."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.divergent

    @property
    def overlap_list(self) -> str:
        return ", ".join(self.overlaps) or "none"

    def __str__(self) -> str:
        if self.ok:
            return f"{self.preset_name}: confluent; overlaps resolved: {self.overlap_list}"
        listing = "; ".join(
            f"{word} -> {{{' | '.join(forms)}}}" for word, forms in self.divergent
        )
        return f"{self.preset_name}: divergent on {listing}"


def check_confluence(preset: RelationPreset) -> ConfluenceReport:
    """Prove unique normal forms at every word length, or name the divergent overlaps.

    Every rule rewrites a two-letter word to smaller words in the
    degree-lexicographic order (checked by `RelationPreset`), so rewriting
    terminates, and no two rules share a left-hand side, so no ambiguity
    is an inclusion.  By Bergman's diamond lemma (Adv. Math. 29, 1978)
    normal forms are then unique for every polynomial once each overlap
    ambiguity resolves: each word abc whose subwords ab and bc are both
    left-hand sides.  Each overlap is checked by contracting either redex
    once and normalizing both reducts.  Divergence is reported, never raised.
    """
    rule_map = preset._rule_map
    alphabet = preset.alphabet

    def contracted(head: Word, pair: tuple[int, int], tail: Word) -> NcPoly:
        """Normal form of head·pair·tail after contracting the redex `pair` once."""
        terms = {head + sub + tail: coeff for sub, coeff in rule_map[pair].items()}
        return normalize(NcPoly._raw(alphabet, terms), preset)

    overlaps: list[str] = []
    divergent: list[tuple[str, tuple[str, ...]]] = []
    for a, b in rule_map:
        for c in [c for b2, c in rule_map if b2 == b]:
            word = alphabet.word_str((a, b, c))
            overlaps.append(word)
            left, right = contracted((), (a, b), (c,)), contracted((a,), (b, c), ())
            if left != right:
                divergent.append((word, (str(left), str(right))))
    return ConfluenceReport(preset.name, tuple(overlaps), tuple(divergent))


# ---- shipped presets ----------------------------------------------------


def _letters(*names: str) -> tuple[Alphabet, list[NcPoly]]:
    alphabet = Alphabet(names)
    return alphabet, [NcPoly.generator(alphabet, name) for name in names]


def _first_order(name: str, c: CycloScalar) -> RelationPreset:
    """DU -> UD + c*U: the commutator of D with U is c*U."""
    alpha, (u, d) = _letters("U", "D")
    return RelationPreset(name, alpha, ((("D", "U"), u * d + c * u),))


def _second_order(name: str, lam: CycloScalar) -> RelationPreset:
    """C names the commutator of D and U; D moves past C at cost lam^2*U."""
    alpha, (u, c, d) = _letters("U", "C", "D")
    return RelationPreset(name, alpha, (
        (("D", "U"), u * d + c),
        (("D", "C"), c * d + (lam * lam) * u),
        (("C", "U"), u * c),
    ))


def _invertible(name: str, lam: CycloScalar, sign: int) -> RelationPreset:
    alpha, (uinv, u, d) = _letters("Uinv", "U", "D")
    unit = NcPoly.unit(alpha)
    return RelationPreset(name, alpha, (
        (("D", "U"), u * d + (sign * lam) * u),
        (("D", "Uinv"), uinv * d - (sign * lam) * uinv),
        (("U", "Uinv"), unit),
        (("Uinv", "U"), unit),
    ))


def _partial_vw(lam: CycloScalar, mu: CycloScalar) -> RelationPreset:
    """V and W commute; D moves past W at cost lam*W and past V at cost mu*V.

    The D-V rule is a sufficient extra hypothesis: without any D-V
    relation the two remaining rules are not confluent (see
    `incomplete_vw_fixture`), so the free-hanging case is exercised on
    the function-space realization instead.
    """
    alpha, (v, w, d) = _letters("V", "W", "D")
    return RelationPreset("partial-vw", alpha, (
        (("W", "V"), v * w),
        (("D", "V"), v * d + mu * v),
        (("D", "W"), w * d + lam * w),
    ))


# preset name -> its rule table, built from (lam, mu)
PRESETS = {
    "first-order-plus": lambda lam, mu: _first_order("first-order-plus", lam),
    "first-order-minus": lambda lam, mu: _first_order("first-order-minus", -lam),
    "second-order": lambda lam, mu: _second_order("second-order", lam),
    "second-order-central": lambda lam, mu: _second_order("second-order-central", ZERO),
    "invertible-plus": lambda lam, mu: _invertible("invertible-plus", lam, +1),
    "invertible-minus": lambda lam, mu: _invertible("invertible-minus", lam, -1),
    "partial-vw": _partial_vw,
    "free": lambda lam, mu: RelationPreset("free", Alphabet(("U", "D")), ()),
}

PRESET_NAMES = tuple(PRESETS)


def make_preset(name: str, lam=ZERO, mu=ZERO) -> RelationPreset:
    """Build the named preset; the one place that coerces lam and mu to scalars."""
    build = PRESETS.get(name)
    if build is None:
        raise ValueError(f"unknown preset {name!r}; choose one of {PRESET_NAMES}")
    return build(CycloScalar.of(lam), CycloScalar.of(mu))


def incomplete_vw_fixture(lam) -> RelationPreset:
    """`partial-vw` without its D-V rule: deliberately incomplete, diverges on D W V."""
    full = make_preset("partial-vw", lam)
    rules = tuple((pair, right) for pair, right in full.rules if pair != ("D", "V"))
    return RelationPreset("partial-vw-incomplete", full.alphabet, rules)


_preset_cache: dict[tuple, RelationPreset] = {}


def cached_preset(name: str, lam=ZERO, mu=ZERO) -> RelationPreset:
    """Shared preset instances so normal-form memo tables are reused.

    A scalar equals and hashes as the int or rational it equals, so the
    key needs no coercion.
    """
    key = (name, lam, mu)
    preset = _preset_cache.get(key)
    if preset is None:
        preset = _preset_cache[key] = make_preset(name, lam, mu)
    return preset
