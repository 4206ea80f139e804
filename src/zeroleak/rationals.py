"""Exact rational plumbing.

`fractions.Fraction` carries the rationals of the public results: it is
always reduced, keeps a positive denominator, and never rounds.  The hot
inner representations are fraction-free instead: the simplex dictionary
(its nonbasic columns only, with no slack identity) and stochastic mappings
hold integers over one common denominator and hand out Fractions only at
their edges.  This module adds the wire format ("p/q"
strings), the display-only bits rendering, the one step that puts a list
of fractions over their least common denominator, and `LeakageValue`, the
leakage stated as the rational it is the log2 of, which both the schemes
(`leakage`) and the adversary bounds (`bounds`) return.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import DomainError, ResourceBudgetError
from .values import FrozenValue

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/(-?\d+))?$")


def parse_ratio(text: str) -> Fraction:
    """Parse a "p/q" (or bare "p") decimal string into a Fraction."""
    if not isinstance(text, str):
        raise DomainError("bad_rational", f"expected a rational string, got {text!r}")
    match = _RATIONAL_RE.match(text.strip())
    if match is None:
        raise DomainError("bad_rational", f"cannot parse rational {text!r}")
    num_text, den_text = match.groups()
    try:
        num, den = int(num_text), int(den_text or 1)
    except ValueError:  # a part longer than the interpreter's int-string conversion limit
        limit = sys.get_int_max_str_digits()
        raise DomainError("bad_rational", f"rational {text[:24]}... has a part over {limit} digits long")
    if den == 0:
        raise DomainError("bad_rational", f"zero denominator in {text!r}")
    return Fraction(num, den)


def _over_one_denominator(fractions) -> tuple[int, list[int]]:
    """The least common denominator d and each fraction times d."""
    d = math.lcm(*(q.denominator for q in fractions))
    return d, [q.numerator * (d // q.denominator) for q in fractions]


def _decimal_digits(x: int) -> int:
    """The number of decimal digits of x >= 1, without writing x out."""
    # 30102999 / 10**8 is just under log10(2), so 10**k <= x from the start
    k = (x.bit_length() - 1) * 30102999 // 10**8
    while 10 ** (k + 1) <= x:
        k += 1
    return k + 1


def _shown_in_message(value: Fraction | int, show=str) -> str:
    """`show(value)` for an error message, unless a part of value has over 100
    digits: then an integer is named by its digit count and a fraction's parts
    by theirs, which also keeps the message clear of the int-string conversion
    limit."""
    p, q = value.numerator, value.denominator
    if abs(p) < 10**100 and q < 10**100:
        return show(value)
    sign = "a negative" if p < 0 else "a"
    if isinstance(value, int):
        return f"{sign} {_decimal_digits(abs(p))}-digit integer"
    return (
        f"{sign} fraction with a {_decimal_digits(abs(p))}-digit numerator"
        f" and a {_decimal_digits(q)}-digit denominator"
    )


def format_ratio(value: Fraction) -> str:
    """Render a Fraction as "p/q", always including the denominator.

    A part longer than the interpreter's int-string conversion limit cannot
    be written out; that is a resource limit of the answer, not bad input.
    """
    value = Fraction(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResourceBudgetError(
            "int_max_str_digits", limit, f"an answer has a rational with a part over {limit} digits long"
        )


def bits_display(value: Fraction) -> float:
    """Display-only base-2 logarithm, rounded to 12 decimal places.

    Exactness lives in the rational argument; this float is for report
    readability only and is never used in comparisons.
    """
    value = Fraction(value)
    if value <= 0:
        raise DomainError("bad_log_argument", f"log2 argument must be positive, got {value}")
    return round(math.log2(value.numerator) - math.log2(value.denominator), 12)


class LeakageValue(FrozenValue):
    """A leakage stated as the exact rational it is the log2 of."""

    log2_of: Fraction

    def __post_init__(self):
        if not isinstance(self.log2_of, Fraction) or self.log2_of < 1:
            raise DomainError("bad_leakage_value", f"leakage must be log2 of a rational >= 1, got {self.log2_of!r}")

    @property
    def bits(self) -> float:
        return bits_display(self.log2_of)
