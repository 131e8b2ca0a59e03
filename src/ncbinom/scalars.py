"""Exact scalar arithmetic in the degree-4 cyclotomic field Q(z).

Here z is a primitive 12th root of unity with minimal polynomial
z**4 == z**2 - 1.  Every element is stored by its unique coordinates
(c0, c1, c2, c3) in the basis {1, z, z**2, z**3}, with exact rational
coordinates, so equality is coordinate-wise and there is no floating
point anywhere.

The field contains the two special values the identity suites need:
the imaginary unit i = z**3 (i*i == -1) and the primitive cube root of
unity w = z**2 - 1 (w**3 == 1, w != 1).

Text form: "a0 + a1*z + a2*z^2 + a3*z^3" with zero terms omitted and
rationals printed "p/q" (denominator omitted when 1).  The parser also
accepts the sugar letters "i" and "w".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

_RAT_TYPES = (int, Fraction)

_FOUR_ZEROS = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))


class ScalarParseError(ValueError):
    """Malformed scalar literal; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class CycloScalar:
    """Element c0 + c1*z + c2*z^2 + c3*z^3 of Q(z), z^4 = z^2 - 1."""

    coords: tuple

    @staticmethod
    def from_coords(c0, c1=0, c2=0, c3=0) -> CycloScalar:
        return CycloScalar((Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3)))

    @staticmethod
    def of(value) -> CycloScalar:
        """Coerce an int or exact rational into the field."""
        if isinstance(value, CycloScalar):
            return value
        if isinstance(value, _RAT_TYPES):
            return CycloScalar((Fraction(value),) + _FOUR_ZEROS[1:])
        raise TypeError(f"cannot coerce {type(value).__name__} to CycloScalar")

    @property
    def is_zero(self) -> bool:
        c = self.coords
        return not (c[0] or c[1] or c[2] or c[3])

    @property
    def is_rational(self) -> bool:
        c = self.coords
        return not (c[1] or c[2] or c[3])

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        if isinstance(other, CycloScalar):
            return self.coords == other.coords
        if isinstance(other, _RAT_TYPES):
            return self.coords == (Fraction(other),) + _FOUR_ZEROS[1:]
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(self.coords)
            object.__setattr__(self, "_hash", h)
            return h

    def __add__(self, other) -> CycloScalar:
        if isinstance(other, CycloScalar):
            a, b = self.coords, other.coords
            return CycloScalar((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))
        if isinstance(other, _RAT_TYPES):
            a = self.coords
            return CycloScalar((a[0] + Fraction(other), a[1], a[2], a[3]))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> CycloScalar:
        a = self.coords
        return CycloScalar((-a[0], -a[1], -a[2], -a[3]))

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
            if isinstance(other, _RAT_TYPES):
                r = Fraction(other)
                a = self.coords
                return CycloScalar((r * a[0], r * a[1], r * a[2], r * a[3]))
            return NotImplemented
        a, b = self.coords, other.coords
        if self.is_rational:
            r = a[0]
            return CycloScalar((r * b[0], r * b[1], r * b[2], r * b[3]))
        if other.is_rational:
            r = b[0]
            return CycloScalar((r * a[0], r * a[1], r * a[2], r * a[3]))
        # convolution up to degree 6, then reduce by z^4 = z^2 - 1
        # (z^5 = z^3 - z, z^6 = -1)
        c = [Fraction(0)] * 7
        for i in range(4):
            if a[i]:
                ai = a[i]
                for j in range(4):
                    c[i + j] += ai * b[j]
        return CycloScalar(
            (
                c[0] - c[4] - c[6],
                c[1] - c[5],
                c[2] + c[4],
                c[3] + c[5],
            )
        )

    __rmul__ = __mul__

    def inv(self) -> CycloScalar:
        """Multiplicative inverse via the extended euclidean algorithm."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero scalar")
        if self.is_rational:
            return CycloScalar((1 / self.coords[0],) + _FOUR_ZEROS[1:])
        g, s, _ = _poly_xgcd(list(self.coords), list(_MIN_POLY))
        # minimal polynomial is irreducible over Q, so the gcd is a constant
        assert len(g) == 1
        inv_coords = [x / g[0] for x in s] + [Fraction(0)] * 4
        return CycloScalar(tuple(inv_coords[:4]))

    def __truediv__(self, other) -> CycloScalar:
        return self * CycloScalar.of(other).inv()

    def __rtruediv__(self, other) -> CycloScalar:
        return CycloScalar.of(other) * self.inv()

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
        return self.coords

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"CycloScalar({format_scalar(self)!r})"


ZERO = CycloScalar.from_coords(0)
ONE = CycloScalar.from_coords(1)
ZETA = CycloScalar.from_coords(0, 1, 0, 0)
IMAG = CycloScalar.from_coords(0, 0, 0, 1)  # i = z^3
OMEGA = CycloScalar.from_coords(-1, 0, 1, 0)  # w = z^2 - 1

# minimal polynomial 1 - x^2 + x^4, coefficients low to high
_MIN_POLY = (Fraction(1), Fraction(0), Fraction(-1), Fraction(0), Fraction(1))


def _poly_trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_divmod(a: list, b: list) -> tuple[list, list]:
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        c = a[-1] / b[-1]
        q[shift] = c
        for k, bk in enumerate(b):
            a[shift + k] -= c * bk
        _poly_trim(a)
    return q, a


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a: list, b: list) -> list:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


def _poly_xgcd(a: list, b: list):
    """Return (g, s, t) with s*a + t*b = g over Q[x]."""
    r0, r1 = _poly_trim(list(a)), _poly_trim(list(b))
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
    return r0, s0, t0


def format_scalar(x: CycloScalar) -> str:
    """Canonical text form in the basis {1, z, z^2, z^3}."""
    parts: list[tuple[bool, str]] = []  # (negative?, body without sign)
    for k, c in enumerate(x.coords):
        if not c:
            continue
        negative = c < 0
        mag = -c if negative else c
        if k == 0:
            body = str(mag)
        else:
            power = "z" if k == 1 else f"z^{k}"
            body = power if mag == 1 else f"{mag}*{power}"
        parts.append((negative, body))
    if not parts:
        return "0"
    out = []
    for idx, (negative, body) in enumerate(parts):
        if idx == 0:
            out.append(f"-{body}" if negative else body)
        else:
            out.append(f" - {body}" if negative else f" + {body}")
    return "".join(out)


_NUMBER_RE = re.compile(r"\d+")

_SYMBOL_VALUES = {"i": IMAG, "w": OMEGA, "z": ZETA}


def parse_scalar(text: str) -> CycloScalar:
    """Parse a scalar literal: a sum of signed terms.

    term := rational | [rational ['*']] symbol
    symbol := 'i' | 'w' | 'z' ['^' digits]
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

