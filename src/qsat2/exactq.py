"""Exact Gaussian-rational scalars and projective single-qubit bras.

All constraint arithmetic in this package is done over Q[i] so that rank
computations, kernel bases and satisfiability checks are exact.  No floating
point is used anywhere in this module.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Both parts are `fractions.Fraction`, which keeps them reduced with a
    positive denominator, so structural equality is semantic equality.
    """

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re: int | Fraction, im: int | Fraction = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self) -> "GaussianRational":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        d = self.re * self.re + self.im * self.im
        return GaussianRational(self.re / d, -self.im / d)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        return self * other.inverse()

    def render(self) -> str:
        """Canonical text form `a/b+c/di`, e.g. `1/2-3/4i`."""
        sign = "+" if self.im >= 0 else "-"
        return (
            f"{self.re.numerator}/{self.re.denominator}"
            f"{sign}{abs(self.im.numerator)}/{self.im.denominator}i"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GQ({self.render()})"


GQ_ZERO = GaussianRational.of(0)
GQ_ONE = GaussianRational.of(1)

_GQ_RE = _re.compile(r"^(-?\d+)/(\d+)([+-])(\d+)/(\d+)i$")


def parse_gq(text: str) -> GaussianRational:
    """Parse the canonical `a/b+c/di` form.  Raises ValueError on junk."""
    m = _GQ_RE.match(text)
    if not m:
        raise ValueError(f"malformed Gaussian rational: {text!r}")
    a, b, sgn, c, d = m.groups()
    if b == "0" or d == "0":
        raise ValueError(f"zero denominator in {text!r}")
    im = Fraction(int(c), int(d))
    return GaussianRational(Fraction(int(a), int(b)), -im if sgn == "-" else im)


@dataclass(frozen=True)
class BraState:
    """A single-qubit bra (c0, c1), not both zero, in projective canonical form.

    Canonical form: the first nonzero component equals one.  Construct through
    `bra()` so equality of values coincides with projective equality.
    """

    c0: GaussianRational
    c1: GaussianRational

    def render(self) -> str:
        return f"({self.c0.render()},{self.c1.render()})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bra{self.render()}"


def bra(c0: GaussianRational | int | Fraction, c1: GaussianRational | int | Fraction) -> BraState:
    """Build a BraState, rescaling so the first nonzero component is 1."""
    if not isinstance(c0, GaussianRational):
        c0 = GaussianRational.of(c0)
    if not isinstance(c1, GaussianRational):
        c1 = GaussianRational.of(c1)
    if c0.is_zero() and c1.is_zero():
        raise ValueError("bra must have a nonzero component")
    scale = (c0 if not c0.is_zero() else c1).inverse()
    return BraState(c0 * scale, c1 * scale)


def parse_bra(text: str) -> BraState:
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"malformed bra: {text!r}")
    parts = text[1:-1].split(",")
    if len(parts) != 2:
        raise ValueError(f"malformed bra: {text!r}")
    return bra(parse_gq(parts[0]), parse_gq(parts[1]))
