"""Exact scalar and trigonometric-polynomial arithmetic.

Everything in this module stays in integer / rational arithmetic; nothing
here rounds.  Trigonometric polynomials are finite sums

    a_0 + sum_j a_j cos(j theta) + sum_j b_j sin(j theta)

with Fraction coefficients, and integrals over [0, pi] come out as exact
values a*pi + b (see PiRational).
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
    """Finite cos/sin series with exact rational coefficients.

    Representation invariants: no zero coefficients are stored, all
    frequencies are nonnegative, and frequency 0 appears only on the
    cosine side (sin 0 = 0 is dropped).
    """

    __slots__ = ("_cos", "_sin")

    def __init__(self, cos_terms=None, sin_terms=None):
        cos: dict[int, Fraction] = {}
        sin: dict[int, Fraction] = {}
        for j, c in (cos_terms or {}).items():
            _accumulate(cos, abs(j), Fraction(c))
        for j, c in (sin_terms or {}).items():
            c = Fraction(c)
            if j < 0:
                j, c = -j, -c
            if j != 0:
                _accumulate(sin, j, c)
        self._cos = cos
        self._sin = sin

    @staticmethod
    def constant(c) -> "TrigPoly":
        return TrigPoly(cos_terms={0: Fraction(c)})

    @staticmethod
    def cosine(j: int, c=1) -> "TrigPoly":
        return TrigPoly(cos_terms={j: Fraction(c)})

    @staticmethod
    def sine(j: int, c=1) -> "TrigPoly":
        return TrigPoly(sin_terms={j: Fraction(c)})

    @property
    def cos_terms(self) -> dict[int, Fraction]:
        return dict(self._cos)

    @property
    def sin_terms(self) -> dict[int, Fraction]:
        return dict(self._sin)

    def max_frequency(self) -> int:
        freqs = list(self._cos) + list(self._sin)
        return max(freqs) if freqs else 0

    def is_zero(self) -> bool:
        return not self._cos and not self._sin

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self._cos == other._cos and self._sin == other._sin

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        cos = dict(self._cos)
        sin = dict(self._sin)
        for j, c in other._cos.items():
            _accumulate(cos, j, c)
        for j, c in other._sin.items():
            _accumulate(sin, j, c)
        return _raw(cos, sin)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return _raw({j: -c for j, c in self._cos.items()},
                    {j: -c for j, c in self._sin.items()})

    def scale(self, r) -> "TrigPoly":
        r = Fraction(r)
        if r == 0:
            return TrigPoly()
        return _raw({j: c * r for j, c in self._cos.items()},
                    {j: c * r for j, c in self._sin.items()})

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        """Product via the product-to-sum rules.

        cos a cos b = (cos(a-b) + cos(a+b)) / 2
        sin a sin b = (cos(a-b) - cos(a+b)) / 2
        sin a cos b = (sin(a+b) + sin(a-b)) / 2
        """
        cos: dict[int, Fraction] = {}
        sin: dict[int, Fraction] = {}
        for j, cj in self._cos.items():
            for k, ck in other._cos.items():
                half = cj * ck / 2
                _add_cos(cos, j - k, half)
                _add_cos(cos, j + k, half)
            for k, ck in other._sin.items():
                half = cj * ck / 2
                _add_sin(sin, k + j, half)
                _add_sin(sin, k - j, half)
        for j, cj in self._sin.items():
            for k, ck in other._cos.items():
                half = cj * ck / 2
                _add_sin(sin, j + k, half)
                _add_sin(sin, j - k, half)
            for k, ck in other._sin.items():
                half = cj * ck / 2
                _add_cos(cos, j - k, half)
                _add_cos(cos, j + k, -half)
        return _raw(cos, sin)

    def integrate_0_to_pi(self) -> PiRational:
        """Exact integral over [0, pi].

        cos(j theta) integrates to 0 for j >= 1 and to pi for j = 0;
        sin(j theta) integrates to 2/j for odd j and 0 for even j.
        """
        pi_part = self._cos.get(0, Fraction(0))
        rational = Fraction(0)
        for j, b in self._sin.items():
            if j % 2 == 1:
                rational += b * Fraction(2, j)
        return PiRational(pi_part, rational)

    def __repr__(self) -> str:
        bits = []
        if 0 in self._cos:
            bits.append(str(self._cos[0]))
        for j in sorted(self._cos):
            if j:
                bits.append(f"{self._cos[j]}*cos({j}t)")
        for j in sorted(self._sin):
            bits.append(f"{self._sin[j]}*sin({j}t)")
        return "TrigPoly(" + (" + ".join(bits) if bits else "0") + ")"


def _accumulate(d: dict[int, Fraction], j: int, c: Fraction) -> None:
    new = d.get(j, Fraction(0)) + c
    if new:
        d[j] = new
    else:
        d.pop(j, None)


def _add_cos(d: dict[int, Fraction], j: int, c: Fraction) -> None:
    _accumulate(d, abs(j), c)


def _add_sin(d: dict[int, Fraction], j: int, c: Fraction) -> None:
    if j < 0:
        j, c = -j, -c
    if j != 0:
        _accumulate(d, j, c)


def _raw(cos: dict[int, Fraction], sin: dict[int, Fraction]) -> TrigPoly:
    # Internal fast path: frequency keys are already canonical.
    t = TrigPoly.__new__(TrigPoly)
    t._cos = {j: c for j, c in cos.items() if c}
    t._sin = {j: c for j, c in sin.items() if c}
    return t
