"""Free associative algebra with unit over the exact cyclotomic scalars.

Polynomials are finite linear combinations of words over a fixed ordered
alphabet of named generators.  Nothing here knows about commutation
relations; products simply concatenate words.  The empty word is the
unit I.

Values are immutable after construction (term dicts are never mutated),
so they can be shared freely.  Equality is exact, term by term.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter

from .scalars import ONE, CycloScalar, signed_sum

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

# the operands that scale a sum; anything else is another kind
_SCALAR_TYPES = (CycloScalar, int, Fraction)

# bound once: every sum built passes through these
_new = object.__new__
_set = object.__setattr__


def accumulate(pairs, out: dict | None = None) -> dict:
    """Add each (key, scalar) pair into the sparse dict `out` and return it.

    Zero inputs are skipped and keys whose sum reaches zero are dropped,
    so the result holds nonzero coefficients only.  A new key is hashed
    once; the grown length, not identity, tells an insert from a hit.
    """
    if out is None:
        out = {}
    setdefault = out.setdefault
    size = len(out)
    for key, value in pairs:
        if value.is_zero:
            continue
        prev = setdefault(key, value)
        if len(out) > size:
            size += 1
            continue
        total = prev + value
        if total.is_zero:
            del out[key]
            size -= 1
        else:
            out[key] = total
    return out


class Alphabet:
    """Ordered generator names; the position in `names` is the order index."""

    __slots__ = ("names",)

    def __init__(self, names: tuple[str, ...]):
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        _set(self, "names", names)

    def __setattr__(self, name, value=None):
        raise AttributeError("Alphabet is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Alphabet, (self.names,)

    def __eq__(self, other) -> bool:
        return type(other) is Alphabet and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Alphabet(names={self.names!r})"

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown generator {name!r}; alphabet is {self.names}") from None

    def __len__(self) -> int:
        return len(self.names)

    def __str__(self) -> str:
        return str(self.names)

    def word_str(self, word: Word) -> str:
        if not word:
            return "I"
        return " ".join(self.names[i] for i in word)


class Combination:
    """Finite map key -> nonzero scalar coefficient: the one sparse-sum type.

    Its kinds are `NcPoly` (keys are words), `realize.FuncExpr` (exponent
    triples), `realize.VecFunc` ((slot, exponents) quadruples) and
    `realize.Matrix` ((row, column) pairs).  This class owns `+`, `-`,
    scalar `*`, `==`, hash, `combine`, `zero`, `**` and `repr`; a kind
    states only its `_key` (coercing the public constructor's keys; a
    tuple by default), product, `_unit` (where `**` starts) and `str`.
    A direct subclass is a kind, recorded as `_kind`; its own subclasses
    (`rewrite.Normal`, `realize.DiffOperator`) share it, so their members
    combine.  Sums of different kinds never add, subtract or compare equal.

    Every sum is tied to one `context`, and this class alone holds the
    rule for it: sums of one kind but different contexts raise
    `ValueError` ("<_context_name> mismatch: <a> vs <b>") in `+` and `-`
    and compare unequal.  The contexts are `NcPoly`'s alphabet ("alphabet
    mismatch"), `Matrix`'s shape ("shape mismatch") and `VecFunc`'s
    dimension ("dimension mismatch"); `FuncExpr` has none (None).  Each
    kind reads its context through a named view (`alphabet`, `shape`,
    `dim`).  Every result is built by `_like` from terms already coerced
    and pruned, with the context carried over; `Normal` also carries its
    preset.
    """

    __slots__ = ("context", "terms")

    _key = staticmethod(tuple)
    _context_name = "context"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if Combination in cls.__bases__:
            cls._kind = cls

    def __init__(self, terms: dict | None = None, context=None):
        clean = {}
        if terms:
            key = self._key
            for k, coeff in terms.items():
                coeff = CycloScalar.of(coeff)
                if not coeff.is_zero:
                    clean[key(k)] = coeff
        _set(self, "context", context)
        _set(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, context=None):
        # the zero of the kind: `Normal.zero(alphabet)` is a plain `NcPoly`
        return cls._kind._raw(context, {})

    @classmethod
    def _raw(cls, context, clean_terms: dict):
        # internal fast path: terms must already be pruned and coerced
        obj = _new(cls)
        _set(obj, "context", context)
        _set(obj, "terms", clean_terms)
        return obj

    def _like(self, clean_terms: dict):
        # `_raw` with this context, inlined: every result passes here
        obj = _new(type(self))
        _set(obj, "context", self.context)
        _set(obj, "terms", clean_terms)
        return obj

    def _accepts(self, other) -> bool:
        # a sum of this kind over another context is never combined
        if not isinstance(other, self._kind):
            return False
        # the one shared context object is the common case; skip the full `==`
        if self.context is not other.context and self.context != other.context:
            raise ValueError(
                f"{self._context_name} mismatch: {self.context} vs {other.context}"
            )
        return True

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, self._kind):
            return NotImplemented
        return ((self.context is other.context or self.context == other.context)
                and self.terms == other.terms)

    def __hash__(self) -> int:
        # sums are immutable, so a sum can key a dict or a memo
        return hash((self.context, frozenset(self.terms.items())))

    def __add__(self, other):
        if not self._accepts(other):
            return NotImplemented
        return self._like(accumulate(other.terms.items(), dict(self.terms)))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not self._accepts(other):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, other):
        # only a scalar scales; any other operand is declined, so Python names both kinds
        if isinstance(other, _SCALAR_TYPES):
            return self.scaled(other)
        return NotImplemented

    # scalars commute; a kind with a product of its own overrides `__mul__`
    __mul__ = __rmul__

    def scaled(self, value):
        c = CycloScalar.of(value)
        if c.is_zero:
            return self._like({})
        # nonzero scalar times nonzero coefficient stays nonzero in a field
        return self._like({k: c * v for k, v in self.terms.items()})

    def combine(self, pairs):
        """Sum of c*g over (scalar c, sum g of this kind) pairs, formed in one pass.

        This sum gives the result its class and context; its own terms are
        not added.
        """
        return self._like(accumulate(
            (key, c * v) for c, g in pairs for key, v in g.terms.items()
        ))

    def __pow__(self, exponent: int):
        # only an algebra has a unit; a kind without `_unit` declines, so Python raises TypeError
        if not hasattr(self, "_unit"):
            return NotImplemented
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"{type(self).__name__} powers take non-negative integer exponents")
        result = self._unit()  # in this sum's own arithmetic; zero ** 0 is the unit too
        for _ in range(exponent):
            result = result * self
        return result

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class NcPoly(Combination):
    """Finite map word -> nonzero scalar coefficient, over one alphabet."""

    __slots__ = ()

    _context_name = "alphabet"
    alphabet = property(attrgetter("context"))

    def __init__(self, alphabet: Alphabet, terms: dict[Word, CycloScalar] | None = None):
        super().__init__(terms, alphabet)

    # ---- constructors -------------------------------------------------

    @staticmethod
    def unit(alphabet: Alphabet) -> NcPoly:
        return NcPoly(alphabet, {EMPTY_WORD: CycloScalar.of(1)})

    @staticmethod
    def generator(alphabet: Alphabet, name: str) -> NcPoly:
        return NcPoly(alphabet, {(alphabet.index(name),): CycloScalar.of(1)})

    @staticmethod
    def scalar(alphabet: Alphabet, value) -> NcPoly:
        return NcPoly(alphabet, {EMPTY_WORD: CycloScalar.of(value)})

    # ---- structure ----------------------------------------------------

    def letter_degree(self, name: str) -> int:
        """Largest number of occurrences of one generator in any word."""
        idx = self.alphabet.index(name)
        return max((w.count(idx) for w in self.terms), default=0)

    # ---- arithmetic ---------------------------------------------------

    def __mul__(self, other) -> NcPoly:
        if self._accepts(other):
            right = other.terms.items()
            # a plain NcPoly, not `_like`: `normalize` returns a same-preset Normal unrewritten
            return NcPoly._raw(self.context, accumulate(
                (w1 + w2, c1 * c2) for w1, c1 in self.terms.items() for w2, c2 in right
            ))
        return Combination.__rmul__(self, other)

    def _unit(self) -> NcPoly:
        # `_like` keeps a `Normal`'s preset, so its powers multiply Normals
        return self._like({EMPTY_WORD: ONE})

    # ---- canonical output ---------------------------------------------

    def sorted_terms(self) -> list[tuple[Word, CycloScalar]]:
        # longest words first, then descending lexicographic on indices,
        # so normal-ordered output reads highest-degree-first
        return sorted(
            self.terms.items(), key=lambda kv: (-len(kv[0]), tuple(-i for i in kv[0]))
        )

    def __str__(self) -> str:
        pieces = []
        for word, coeff in self.sorted_terms():
            negative = _leading_negative(coeff)
            pieces.append((negative, _term_str(self.alphabet, word, -coeff if negative else coeff)))
        return signed_sum(pieces)


def _leading_negative(coeff: CycloScalar) -> bool:
    # the denominator is positive, so the first nonzero numerator carries the sign
    for n in coeff.ints[:4]:
        if n:
            return n < 0
    return False


def _term_str(alphabet: Alphabet, word: Word, coeff: CycloScalar) -> str:
    coeff_str = str(coeff)
    if " " in coeff_str:
        coeff_str = f"({coeff_str})"
    if not word:
        return coeff_str if coeff_str != "1" else "I"
    if coeff_str == "1":
        return alphabet.word_str(word)
    return f"{coeff_str} * {alphabet.word_str(word)}"


def commutator(p: NcPoly, q: NcPoly) -> NcPoly:
    return p * q - q * p
