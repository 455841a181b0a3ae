"""Exact arithmetic foundations: binomials, PiRational, and the package's
public names.

Only the float conversion of PiRational touches floating point;
everything else asserts exact equality.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import blockcheb
from blockcheb.exact import PiRational, binomial


def test_every_public_name_resolves():
    for name in blockcheb.__all__:
        assert getattr(blockcheb, name) is not None, name


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
    # Equal values hash equal, so PiRationals can key sets and dicts.
    assert len({PiRational.of(1), PiRational.of(1), PiRational.of(2)}) == 2
