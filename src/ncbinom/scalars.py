"""Exact scalar arithmetic in the degree-4 cyclotomic field Q(z).

Here z is a primitive 12th root of unity with minimal polynomial
z**4 == z**2 - 1.  Every element is (n0 + n1*z + n2*z**2 + n3*z**3) / d
with integer numerators n0..n3 over one positive integer denominator d,
the `nf_elem` layout of ANTIC (W. Hart, *ANTIC: Algebraic Number Theory
in C*, 2015).  The layout is canonical: d > 0 and
gcd(n0, n1, n2, n3, d) == 1, so zero is (0, 0, 0, 0, 1), equality is a
comparison of the five integers, and there is no floating point anywhere.
The rational coordinates (c0, c1, c2, c3) = (n0/d, ..., n3/d) in the
basis {1, z, z**2, z**3} are the read-only view `coords`.

The field contains the two special values the identity suites need:
the imaginary unit i = z**3 (i*i == -1) and the primitive cube root of
unity w = z**2 - 1 (w**3 == 1, w != 1).

Text form: "a0 + a1*z + a2*z^2 + a3*z^3" with zero terms omitted and
rationals printed "p/q" (denominator omitted when 1).  The parser also
accepts the sugar letters "i" and "w".
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import gcd, lcm

_RAT_TYPES = (int, Fraction)

_new = object.__new__


class ScalarParseError(ValueError):
    """Malformed scalar literal; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _scalar(n0: int, n1: int, n2: int, n3: int, d: int) -> CycloScalar:
    """The element (n0 + n1*z + n2*z^2 + n3*z^3) / d, for d > 0, made canonical.

    Over d == 1 the tuple is canonical as it stands, so no gcd is taken.
    """
    g = 1 if d == 1 else gcd(n0, n1, n2, n3, d)
    x = _new(CycloScalar)
    x.ints = (n0, n1, n2, n3, d) if g == 1 else (n0 // g, n1 // g, n2 // g, n3 // g, d // g)
    return x


def add_ints(a: tuple, b: tuple) -> tuple:
    """Canonical `ints` of the sum of two elements given by their `ints`: the one addition.

    `CycloScalar.__add__` and `realize`'s exponent keys use it; adding zero returns the other tuple.
    """
    a0, a1, a2, a3, d = a
    b0, b1, b2, b3, e = b
    if not (b0 or b1 or b2 or b3):
        return a
    if not (a0 or a1 or a2 or a3):
        return b
    if d == e:
        n0, n1, n2, n3 = a0 + b0, a1 + b1, a2 + b2, a3 + b3
    else:
        n0, n1, n2, n3 = a0 * e + b0 * d, a1 * e + b1 * d, a2 * e + b2 * d, a3 * e + b3 * d
        d *= e
    g = 1 if d == 1 else gcd(n0, n1, n2, n3, d)
    return (n0, n1, n2, n3, d) if g == 1 else (n0 // g, n1 // g, n2 // g, n3 // g, d // g)


def wrap(ints: tuple) -> CycloScalar:
    """The element whose canonical tuple is `ints`."""
    x = _new(CycloScalar)
    x.ints = ints
    return x


class CycloScalar:
    """Element (n0 + n1*z + n2*z^2 + n3*z^3) / d of Q(z), z^4 = z^2 - 1.

    `ints` is the canonical tuple (n0, n1, n2, n3, d); treat it as immutable.
    """

    __slots__ = ("ints",)

    def __init__(self, coords):
        """The element with the four rational coordinates `coords`."""
        c = [Fraction(x) for x in coords]
        d = lcm(*(x.denominator for x in c))
        self.ints = _scalar(*(x.numerator * (d // x.denominator) for x in c), d).ints

    @property
    def coords(self) -> tuple:
        """The coordinates (c0, c1, c2, c3) as Fractions."""
        n0, n1, n2, n3, d = self.ints
        return (Fraction(n0, d), Fraction(n1, d), Fraction(n2, d), Fraction(n3, d))

    @staticmethod
    def from_coords(c0, c1=0, c2=0, c3=0) -> CycloScalar:
        return CycloScalar((c0, c1, c2, c3))

    @staticmethod
    def of(value) -> CycloScalar:
        """Coerce an int or exact rational into the field."""
        if isinstance(value, CycloScalar):
            return value
        if isinstance(value, _RAT_TYPES):
            return _scalar(value.numerator, 0, 0, 0, value.denominator)
        raise TypeError(f"cannot coerce {type(value).__name__} to CycloScalar")

    @property
    def is_zero(self) -> bool:
        n = self.ints
        return not (n[0] or n[1] or n[2] or n[3])

    @property
    def is_rational(self) -> bool:
        n = self.ints
        return not (n[1] or n[2] or n[3])

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloScalar):
            return self.ints == other.ints
        if isinstance(other, _RAT_TYPES):
            return self.ints == CycloScalar.of(other).ints
        return NotImplemented

    def __hash__(self) -> int:
        # a rational hashes as the int or Fraction it equals
        n0, n1, n2, n3, d = self.ints
        if n1 or n2 or n3:
            return hash(self.ints)
        return hash(n0) if d == 1 else hash(Fraction(n0, d))

    def __add__(self, other) -> CycloScalar:
        if not isinstance(other, CycloScalar):
            if not isinstance(other, _RAT_TYPES):
                return NotImplemented
            other = CycloScalar.of(other)
        a, b = self.ints, other.ints
        n = add_ints(a, b)
        # canonical and immutable: adding zero can return the other operand
        if n is a:
            return self
        if n is b:
            return other
        x = _new(CycloScalar)
        x.ints = n
        return x

    __radd__ = __add__

    def __neg__(self) -> CycloScalar:
        n0, n1, n2, n3, d = self.ints
        x = _new(CycloScalar)
        x.ints = (-n0, -n1, -n2, -n3, d)
        return x

    def __sub__(self, other) -> CycloScalar:
        if isinstance(other, (CycloScalar,) + _RAT_TYPES):
            return self + (-CycloScalar.of(other))
        return NotImplemented

    def __rsub__(self, other) -> CycloScalar:
        if isinstance(other, _RAT_TYPES):
            return CycloScalar.of(other) + (-self)
        return NotImplemented

    def __mul__(self, other) -> CycloScalar:
        if not isinstance(other, CycloScalar):
            if not isinstance(other, _RAT_TYPES):
                return NotImplemented
            other = CycloScalar.of(other)
        a0, a1, a2, a3, d = self.ints
        b0, b1, b2, b3, e = other.ints
        # a canonical rational is exactly one when n0 == d (both then equal 1)
        if not (a1 or a2 or a3):
            if a0 == d:
                return other
            if b0 == e and not (b1 or b2 or b3):
                return self
            return _scalar(a0 * b0, a0 * b1, a0 * b2, a0 * b3, d * e)
        if not (b1 or b2 or b3):
            if b0 == e:
                return self
            return _scalar(b0 * a0, b0 * a1, b0 * a2, b0 * a3, d * e)
        # convolution up to degree 6, then reduce by z^4 = z^2 - 1
        # (z^5 = z^3 - z, z^6 = -1)
        c4 = a1 * b3 + a2 * b2 + a3 * b1
        c5 = a2 * b3 + a3 * b2
        return _scalar(
            a0 * b0 - c4 - a3 * b3,
            a0 * b1 + a1 * b0 - c5,
            a0 * b2 + a1 * b1 + a2 * b0 + c4,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + c5,
            d * e,
        )

    __rmul__ = __mul__

    def inv(self) -> CycloScalar:
        """Multiplicative inverse by the norm to Q(z^2).

        For self = A(z) / d, the product A(z) * A(-z) = b0 + b2*y lies in
        Q(y), y = z^2, y^2 = y - 1, where (b0 + b2*y) * (b0 + b2 - b2*y) is
        the positive rational N = b0^2 + b0*b2 + b2^2.  So the inverse is
        d * A(-z) * (b0 + b2 - b2*y) / N.
        """
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero scalar")
        n0, n1, n2, n3, d = self.ints
        b0 = n0 * n0 - n2 * n2 + 2 * n1 * n3 + n3 * n3
        b2 = 2 * n0 * n2 + n2 * n2 - n1 * n1 - 2 * n1 * n3
        # A(-z) * (c0 + c2*z^2) with A(-z) = n0 - n1*z + n2*z^2 - n3*z^3, reduced
        c0, c2 = b0 + b2, -b2
        return _scalar(
            d * (n0 * c0 - n2 * c2),
            d * (n3 * c2 - n1 * c0),
            d * (n2 * c0 + n0 * c2 + n2 * c2),
            -d * (n3 * c0 + n1 * c2 + n3 * c2),
            b0 * b0 + b0 * b2 + b2 * b2,
        )

    def __pow__(self, exponent: int) -> CycloScalar:
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return self.inv() ** (-exponent)
        result = ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def sort_key(self) -> tuple:
        # ints compare exactly with Fractions, so integer and zero coordinates need none
        n0, n1, n2, n3, d = self.ints
        if d == 1:
            return (n0, n1, n2, n3)
        return (n0 and Fraction(n0, d), n1 and Fraction(n1, d),
                n2 and Fraction(n2, d), n3 and Fraction(n3, d))

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"CycloScalar({format_scalar(self)!r})"


ZERO = CycloScalar.from_coords(0)
ONE = CycloScalar.from_coords(1)
ZETA = CycloScalar.from_coords(0, 1, 0, 0)
IMAG = CycloScalar.from_coords(0, 0, 0, 1)  # i = z^3
OMEGA = CycloScalar.from_coords(-1, 0, 1, 0)  # w = z^2 - 1


def format_scalar(x: CycloScalar) -> str:
    """Canonical text form in the basis {1, z, z^2, z^3}."""
    parts: list[tuple[bool, str]] = []  # (negative?, body without sign)
    *numerators, d = x.ints
    for k, n in enumerate(numerators):
        if not n:
            continue
        negative = n < 0
        g = gcd(n, d)
        mag = str(abs(n) // g) if g == d else f"{abs(n) // g}/{d // g}"
        if k == 0:
            body = mag
        else:
            power = "z" if k == 1 else f"z^{k}"
            body = power if mag == "1" else f"{mag}*{power}"
        parts.append((negative, body))
    return signed_sum(parts)


def signed_sum(parts) -> str:
    """Join (negative, body) pairs as "b0 - b1 + b2"; "0" when there are none."""
    out = []
    for negative, body in parts:
        if out:
            out.append(f" - {body}" if negative else f" + {body}")
        else:
            out.append(f"-{body}" if negative else body)
    return "".join(out) or "0"


_NUMBER_RE = re.compile(r"\d+")

_SYMBOL_VALUES = {"i": IMAG, "w": OMEGA, "z": ZETA}


@functools.lru_cache(maxsize=256)  # every case parses its lambda; scalars are immutable
def parse_scalar(text: str) -> CycloScalar:
    """Parse a scalar literal: a sum of signed terms.

    term := rational | [rational ['*']] symbol
    symbol := 'i' | 'w' | 'z' ['^' digits]

    Memoized per literal; a malformed literal raises each time, since errors are not cached.
    """
    pos = 0
    n = len(text)

    def skip_ws(p: int) -> int:
        while p < n and text[p].isspace():
            p += 1
        return p

    total = ZERO
    pos = skip_ws(pos)
    if pos >= n:
        raise ScalarParseError("empty scalar literal", pos)
    first = True
    while pos < n:
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos = skip_ws(pos + 1)
        elif not first:
            raise ScalarParseError("expected '+' or '-' between terms", pos)
        term, pos = _parse_term(text, pos)
        total = total + (term if sign == 1 else -term)
        pos = skip_ws(pos)
        first = False
    return total


def _parse_term(text: str, pos: int) -> tuple[CycloScalar, int]:
    n = len(text)
    coeff = None
    m = _NUMBER_RE.match(text, pos)
    if m:
        numerator = int(m.group())
        pos = m.end()
        denominator = 1
        if pos < n and text[pos] == "/":
            m2 = _NUMBER_RE.match(text, pos + 1)
            if not m2:
                raise ScalarParseError("expected denominator after '/'", pos + 1)
            denominator = int(m2.group())
            if denominator == 0:
                raise ScalarParseError("zero denominator", pos + 1)
            pos = m2.end()
        coeff = Fraction(numerator, denominator)
        if pos < n and text[pos] == "*":
            pos += 1
            if pos >= n or text[pos] not in _SYMBOL_VALUES:
                raise ScalarParseError("expected symbol after '*'", pos)
    if pos < n and text[pos] in _SYMBOL_VALUES:
        sym = text[pos]
        pos += 1
        value = _SYMBOL_VALUES[sym]
        if pos < n and text[pos] == "^":
            if sym != "z":
                raise ScalarParseError("power only allowed on 'z'", pos)
            m3 = _NUMBER_RE.match(text, pos + 1)
            if not m3:
                raise ScalarParseError("expected exponent digits after '^'", pos + 1)
            value = value ** int(m3.group())
            pos = m3.end()
        term = value if coeff is None else CycloScalar.of(coeff) * value
        return term, pos
    if coeff is None:
        raise ScalarParseError("expected a rational or symbol", pos)
    return CycloScalar.of(coeff), pos

