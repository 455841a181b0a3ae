"""Exact arithmetic foundations: binomials, PiRational, TrigPoly.

The Gauss-Legendre agreement test at the bottom is the one place this
file touches floating point; everything else asserts exact equality.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcheb.exact import PiRational, TrigPoly, binomial


# ------------------------------------------------------------- binomial

def test_binomial_small_values():
    assert binomial(0, 0) == 1
    assert binomial(5, 2) == 10
    assert binomial(7, 7) == 1
    assert binomial(6, 1) == 6
    assert binomial(10, 5) == 252


def test_binomial_vanishing_convention():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(-1, 0) == 0
    assert binomial(-3, -2) == 0
    assert binomial(0, 1) == 0


@given(st.integers(1, 60), st.integers(-2, 62))
def test_binomial_pascal_rule(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


@given(st.integers(0, 60), st.integers(0, 60))
def test_binomial_symmetry(n, k):
    assert binomial(n, k) == binomial(n, n - k) or k > n


# ----------------------------------------------------------- PiRational

def test_pirational_str_forms():
    assert str(PiRational.of(1)) == "pi"
    assert str(PiRational.of(-1)) == "-pi"
    assert str(PiRational.of(Fraction(1, 4))) == "1/4*pi"
    assert str(PiRational.of(0, Fraction(2, 3))) == "2/3"
    assert str(PiRational.of(1, 1)) == "pi + 1"
    assert str(PiRational.of(Fraction(1, 2), Fraction(-1, 3))) == "1/2*pi - 1/3"
    assert str(PiRational.of(0)) == "0"


def test_pirational_zero_and_equality():
    assert PiRational.of(0).is_zero()
    assert PiRational.of(1, 2) == PiRational(Fraction(1), Fraction(2))
    assert PiRational.of(1, 2) != PiRational.of(2, 1)
    assert not PiRational.of(1, 2).is_zero()
    assert not PiRational.of(0, Fraction(1, 3)).is_zero()


def test_pirational_float_and_hash():
    assert float(PiRational.of(Fraction(1, 2))) == pytest.approx(math.pi / 2)
    assert float(PiRational.of(0, Fraction(3, 4))) == 0.75
    # Hashability feeds the band-pattern frequency counts.
    assert len({PiRational.of(1), PiRational.of(1), PiRational.of(2)}) == 2


# ------------------------------------------------------------- TrigPoly

def test_trigpoly_canonicalization():
    assert TrigPoly(cos_terms={-3: 2}) == TrigPoly.cosine(3, 2)
    assert TrigPoly(sin_terms={-2: 5}) == TrigPoly.sine(2, -5)
    assert TrigPoly(sin_terms={0: 7}).is_zero()
    assert TrigPoly(cos_terms={2: 0}).is_zero()
    assert TrigPoly().is_zero()


def test_trigpoly_addition_cancels():
    assert (TrigPoly.cosine(2) + TrigPoly.cosine(2, -1)).is_zero()
    t = TrigPoly.cosine(1) + TrigPoly.sine(3, Fraction(1, 2))
    assert t - t == TrigPoly()


def test_trigpoly_max_frequency():
    assert TrigPoly().max_frequency() == 0
    assert (TrigPoly.cosine(4) + TrigPoly.sine(7)).max_frequency() == 7


def test_sin_squared_identity():
    expected = TrigPoly(cos_terms={0: Fraction(1, 2), 2: Fraction(-1, 2)})
    assert TrigPoly.sine(1) * TrigPoly.sine(1) == expected


def test_sin2_times_sin2_of_double():
    # sin^2(t) sin^2(2t) = 1/4 - 1/8 cos 2t - 1/4 cos 4t + 1/8 cos 6t
    product = (TrigPoly.sine(1) * TrigPoly.sine(1)) * \
        (TrigPoly.sine(2) * TrigPoly.sine(2))
    expected = TrigPoly(cos_terms={0: Fraction(1, 4), 2: Fraction(-1, 8),
                                   4: Fraction(-1, 4), 6: Fraction(1, 8)})
    assert product == expected


_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_trig = st.builds(
    TrigPoly,
    cos_terms=st.dictionaries(st.integers(0, 6), _fracs, max_size=3),
    sin_terms=st.dictionaries(st.integers(1, 6), _fracs, max_size=3))


@given(_trig, _trig)
def test_product_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=40)
@given(_trig, _trig, _trig)
def test_product_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40)
@given(_trig, _trig, _trig)
def test_product_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(_trig, _trig)
def test_integral_is_linear(a, b):
    whole = (a + b).integrate_0_to_pi()
    left, right = a.integrate_0_to_pi(), b.integrate_0_to_pi()
    assert whole.pi_part == left.pi_part + right.pi_part
    assert whole.rational_part == left.rational_part + right.rational_part


@given(st.integers(0, 8), st.integers(0, 8))
def test_cosine_products_stay_cosine(j, k):
    assert not (TrigPoly.cosine(j) * TrigPoly.cosine(k)).sin_terms


# ------------------------------------------------------------ integrals

def test_integral_basics():
    quarter = TrigPoly.constant(Fraction(1, 4))
    assert quarter.integrate_0_to_pi() == PiRational.of(Fraction(1, 4))
    assert TrigPoly.cosine(3).integrate_0_to_pi().is_zero()
    assert TrigPoly.sine(2).integrate_0_to_pi().is_zero()
    assert TrigPoly.sine(3).integrate_0_to_pi() == \
        PiRational.of(0, Fraction(2, 3))
    assert TrigPoly.sine(1).integrate_0_to_pi() == PiRational.of(0, 2)


def test_integral_matches_gauss_legendre_rule():
    """Exact integrals agree with a 64-node Gauss-Legendre rule on [0, pi].

    No frequency here exceeds 32, where the rule's truncation error is
    already far below rounding, so the budget is float64 rounding alone.
    """
    rng = random.Random(6021023)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    theta = (nodes + 1) * (math.pi / 2)
    weights = weights * (math.pi / 2)
    for _ in range(50):
        cos_terms = {rng.randrange(0, 33): rng.randint(-5, 5)
                     for _ in range(4)}
        sin_terms = {rng.randrange(1, 33): rng.randint(-5, 5)
                     for _ in range(4)}
        poly = TrigPoly(cos_terms=cos_terms, sin_terms=sin_terms)
        vals = np.zeros_like(theta)
        for j, c in poly.cos_terms.items():
            vals += float(c) * np.cos(j * theta)
        for j, c in poly.sin_terms.items():
            vals += float(c) * np.sin(j * theta)
        numeric = float(weights @ vals)
        assert abs(numeric - float(poly.integrate_0_to_pi())) <= 1e-12
