"""Truncated Novikov polynomials over exact rationals.

The coefficient ring used everywhere in this package is the subring of the
Novikov ring consisting of finite sums ``c_1*T^(e_1) + ... + c_r*T^(e_r)``
with rational coefficients and nonnegative rational exponents, optionally
truncated below a cutoff exponent.  Truncation at ``C`` is the quotient by
the ideal ``(T^C)``: every exponent ``>= C`` is dropped, which is exact
modulo ``T^C``.

Exponents and cutoffs are ``Fraction``s.  A coefficient is an ``int`` when
it is integral and a ``Fraction`` with denominator > 1 otherwise, so the
mostly integral arithmetic of the engine builds no ``Fraction``s; an ``int``
and the equal ``Fraction`` compare and hash alike.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Optional, Union

Rational = Union[int, Fraction]

INF = math.inf


def fmt_rational(x: Rational) -> str:
    if type(x) is int:
        return str(x)
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_RAT_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """``-p/q`` or ``p`` as a ``Fraction``; ValueError on anything else,
    including a zero denominator."""
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"not a rational: {text!r}")
    _, slash, denominator = text.partition("/")
    if slash and int(denominator) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(text)


def _exponent(term: tuple) -> Fraction:
    return term[0]


def _scalar(c: Rational) -> Rational:
    """A coefficient in canonical form: ``int`` when integral, else the
    ``Fraction``."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class NovikovPolynomial:
    """Immutable finite T-power series with rational exponents >= 0.

    ``terms`` is a sorted tuple of (exponent, coefficient) pairs with
    strictly increasing ``Fraction`` exponents and no zero coefficients,
    each an ``int`` when integral and a ``Fraction`` otherwise.  ``cutoff``
    of ``None`` means untruncated.
    """

    __slots__ = ("terms", "cutoff")

    def __init__(
        self,
        terms: Iterable[tuple[Rational, Rational]] = (),
        cutoff: Optional[Rational] = None,
    ):
        if cutoff is not None:
            cutoff = Fraction(cutoff)
            if cutoff <= 0:
                raise ValueError("cutoff must be positive")
        acc: dict[Fraction, Rational] = {}
        for e, c in terms:
            if not isinstance(e, Fraction):
                e = Fraction(e)
            if type(c) is not int and not isinstance(c, Fraction):
                c = Fraction(c)
            if e.numerator < 0:
                raise ValueError(f"negative exponent T^{e}")
            if cutoff is not None and e >= cutoff:
                continue
            prev = acc.get(e)
            acc[e] = c if prev is None else prev + c
        object.__setattr__(
            self,
            "terms",
            tuple(
                sorted(((e, _scalar(c)) for e, c in acc.items() if c), key=_exponent)
            ),
        )
        object.__setattr__(self, "cutoff", cutoff)

    @classmethod
    def _canonical(cls, terms: tuple, cutoff) -> "NovikovPolynomial":
        """Wrap ``terms`` that already satisfy the class invariant: strictly
        increasing ``Fraction`` exponents below ``cutoff``, and nonzero
        coefficients, ``int`` when integral."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "cutoff", cutoff)
        return p

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("NovikovPolynomial is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(cutoff: Optional[Rational] = None) -> "NovikovPolynomial":
        return NovikovPolynomial((), cutoff)

    @staticmethod
    def unit(cutoff: Optional[Rational] = None) -> "NovikovPolynomial":
        return NovikovPolynomial(((0, 1),), cutoff)

    @staticmethod
    def monomial(
        exponent: Rational, coeff: Rational = 1, cutoff: Optional[Rational] = None
    ) -> "NovikovPolynomial":
        return NovikovPolynomial(((exponent, coeff),), cutoff)

    # -- ring structure ---------------------------------------------------

    @staticmethod
    def _merge_cutoff(a: "NovikovPolynomial", b: "NovikovPolynomial"):
        if a.cutoff is None:
            return b.cutoff
        if b.cutoff is None:
            return a.cutoff
        return min(a.cutoff, b.cutoff)

    def __add__(self, other: "NovikovPolynomial") -> "NovikovPolynomial":
        """Merge the two sorted term tuples; exponents shared by both are
        summed, zero sums dropped, and exponents at or above the smaller
        cutoff cut from the end."""
        cutoff = self._merge_cutoff(self, other)
        a, b = self.terms, other.terms
        na, nb = len(a), len(b)
        out = []
        i = j = 0
        while i < na and j < nb:
            ta, tb = a[i], b[j]
            ea, eb = ta[0], tb[0]
            if ea is eb or ea == eb:
                c = ta[1] + tb[1]
                if c:
                    out.append((ea, _scalar(c)))
                i += 1
                j += 1
            elif ea < eb:
                out.append(ta)
                i += 1
            else:
                out.append(tb)
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        if cutoff is not None and self.cutoff is not other.cutoff:
            while out and out[-1][0] >= cutoff:
                out.pop()
        return self._canonical(tuple(out), cutoff)

    def __neg__(self) -> "NovikovPolynomial":
        return self._canonical(tuple((e, -c) for e, c in self.terms), self.cutoff)

    def __sub__(self, other: "NovikovPolynomial") -> "NovikovPolynomial":
        return self + (-other)

    def __mul__(self, other: "NovikovPolynomial") -> "NovikovPolynomial":
        """Products cut at the smaller cutoff.  A single-term factor c·T^e
        shifts and scales the other's terms (no addition if e = 0, no product
        if c = 1, as in most engine products), which stay sorted and nonzero;
        else products are summed per exponent, zeros dropped, sorted once."""
        cutoff = self._merge_cutoff(self, other)
        a, b = self.terms, other.terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            (e1, c1), = a
            one = c1 == 1
            out = []
            for e2, c2 in b:
                e = e1 + e2 if e1 else e2
                if cutoff is not None and e >= cutoff:
                    break
                out.append((e, c2 if one else _scalar(c1 * c2)))
            return self._canonical(tuple(out), cutoff)
        acc: dict = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                if cutoff is not None and e >= cutoff:
                    break
                prev = acc.get(e)
                acc[e] = c1 * c2 if prev is None else prev + c1 * c2
        terms = sorted(((e, _scalar(c)) for e, c in acc.items() if c), key=_exponent)
        return self._canonical(tuple(terms), cutoff)

    def scale(self, c: Rational) -> "NovikovPolynomial":
        if c == 1:
            return self
        if c == -1:
            return -self
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        if not c:
            return self._canonical((), self.cutoff)
        return self._canonical(
            tuple((e, _scalar(k * c)) for e, k in self.terms), self.cutoff
        )

    def truncate(self, cutoff: Rational) -> "NovikovPolynomial":
        return NovikovPolynomial(self.terms, cutoff)

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> Union[Fraction, float]:
        """Smallest exponent with nonzero coefficient; inf for zero."""
        if not self.terms:
            return INF
        return self.terms[0][0]

    def at_one(self) -> Fraction:
        """Evaluate at T = 1; sums the coefficients of all T-powers."""
        return sum((c for _, c in self.terms), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NovikovPolynomial)
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            ce = fmt_rational(e)
            exp = ce if "/" not in ce else f"({ce})"
            parts.append(f"{fmt_rational(c)}*T^{exp}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"NovikovPolynomial({self})"


def add_into(acc: dict, key, coeff) -> None:
    """``acc[key] += coeff`` in a sparse combination, dropping zero entries.

    Coefficients are tested by truthiness, so this serves Novikov and
    rational (``Fraction``) coefficients alike.
    """
    if not coeff:
        return
    prev = acc.get(key)
    total = coeff if prev is None else prev + coeff
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+(?:/\d+)?)\s*\*\s*T\^(?:\((?P<pexp>-?\d+(?:/\d+)?)\)|(?P<exp>-?\d+(?:/\d+)?))\s*$"
)


def parse_novikov(
    text: str, cutoff: Optional[Rational] = None
) -> NovikovPolynomial:
    """Parse the canonical text form ``c*T^e + ...`` (``T^(p/q)`` for fractions).

    A bare rational ``c`` is accepted as shorthand for ``c*T^0``, and ``0``
    parses to the zero polynomial.
    """
    text = text.strip()
    if text == "0":
        return NovikovPolynomial.zero(cutoff)
    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        m = _TERM_RE.match(chunk)
        if m:
            exp = m.group("pexp") or m.group("exp")
            terms.append((parse_rational(exp), parse_rational(m.group("coeff"))))
        elif _RAT_RE.match(chunk):
            terms.append((Fraction(0), parse_rational(chunk)))
        else:
            raise ValueError(f"cannot parse Novikov term {chunk!r}")
    return NovikovPolynomial(terms, cutoff)
