"""Exact rational scalars.

Every distance, radius, and real-flavored point in the library is a
`fractions.Fraction`: stored in lowest terms with positive denominator,
with exact arithmetic and comparison.  Nothing in the library rounds.

Text form is the canonical "p/q" (denominator omitted when 1), e.g.
"3", "-1/2", "7/12".
"""

from __future__ import annotations

from fractions import Fraction

_ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse canonical "p/q" (or bare "p") text.

    Raises ValueError on malformed input, including a zero denominator.
    """
    text = text.strip()
    if "/" in text:
        num_text, _, den_text = text.partition("/")
        num = int(num_text)
        den = int(den_text)
        if den == 0:
            raise ValueError("zero denominator in rational literal: %r" % text)
        return Fraction(num, den)
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Canonical text: "p/q", with "/q" omitted for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def floor_reciprocal(value: Fraction) -> int:
    """floor(1/value) for positive value; 0 when value > 1.

    Used to turn a metric radius into the number of leading coordinates an
    open ball constrains: in a 1/(n+1)-quantized metric, dist(a, b) < r
    holds exactly when a and b agree below index floor(1/r).
    """
    if value <= 0:
        raise ValueError("radius must be positive")
    inv = _ONE / value
    return inv.numerator // inv.denominator
