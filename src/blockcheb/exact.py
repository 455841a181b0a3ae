"""Exact scalars: zero-convention binomials and PiRational.

Nothing here rounds.  Every exact Gram entry of the orthogonality
tables is a value a*pi + b with rational a and b, a PiRational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def binomial(n: int, k: int) -> int:
    """C(n, k), defined as 0 whenever k < 0, k > n or n < 0.

    The vanishing convention matters: the alternating block-count sums
    routinely produce out-of-range binomials that must drop out.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class PiRational:
    """An exact number of the form pi_part * pi + rational_part."""

    pi_part: Fraction
    rational_part: Fraction

    @staticmethod
    def of(pi_part=0, rational_part=0) -> "PiRational":
        return PiRational(Fraction(pi_part), Fraction(rational_part))

    def is_zero(self) -> bool:
        return self.pi_part == 0 and self.rational_part == 0

    def __float__(self) -> float:
        return float(self.pi_part) * math.pi + float(self.rational_part)

    def __str__(self) -> str:
        parts = []
        if self.pi_part:
            if self.pi_part == 1:
                parts.append("pi")
            elif self.pi_part == -1:
                parts.append("-pi")
            else:
                parts.append(f"{self.pi_part}*pi")
        if self.rational_part or not parts:
            if parts:
                sign = "+" if self.rational_part >= 0 else "-"
                parts.append(f"{sign} {abs(self.rational_part)}")
            else:
                parts.append(str(self.rational_part))
        return " ".join(parts)


class TrigPoly:
    """A name kept only because perfbench/tracer.py assigns
    TrigPoly.__mul__; ROADMAP item 1 deletes it together with that hook."""

    def __mul__(self, other):
        return NotImplemented
