"""Weighted inner products: exact values, band patterns, numeric backend.

The deviation sets pinned here are the heart of the orthogonality story:
the published band patterns hold everywhere on [3,15]^2 for the
Chebyshev weight, but fail at specific low corner entries for the two
heavier weights.  mpmath quadrature provides an independent third route
for a handful of entries, including the deviating ones.
"""

import hashlib
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from blockcheb import cli, orthocheck
from blockcheb.errors import InvalidConfigError
from blockcheb.exact import PiRational
from blockcheb.orthocheck import (MAX_GRAM_ROW, MAX_HALF_EXPONENT, Weight,
                                  _gauss_legendre, gram_matrix,
                                  inner_product_exact, inner_product_numeric,
                                  theorem_band_value)
from blockcheb.polyfamily import (P_FAMILY, T_FAMILY, U_FAMILY, Family,
                                  build_definitional)
from reference_routes import beta_moments

FROZEN_GRAM = Path(__file__).parent / "data" / "gram_trigpoly.txt"
GRAM_DIGESTS = Path(__file__).parent / "data" / "golden" / "gram_sha256.txt"


# ----------------------------------------------------------------- weight

def test_weight_validation_and_str():
    assert str(Weight(-1)) == "(1-x^2)^(-1/2)"
    assert str(Weight(3)) == "(1-x^2)^(3/2)"
    with pytest.raises(InvalidConfigError):
        Weight(-2)
    with pytest.raises(InvalidConfigError, match="weight limit"):
        Weight(MAX_HALF_EXPONENT + 1)


def test_weight_limit_completes_on_both_routes():
    # The largest admitted weight still gives agreeing exact and numeric
    # values.
    w = Weight(MAX_HALF_EXPONENT)
    exact = float(inner_product_exact(3, 3, P_FAMILY, w))
    assert exact > 0
    assert abs(exact - inner_product_numeric(3, 3, P_FAMILY, w)) <= 1e-10


@pytest.mark.parametrize("q", [-1, 0, 1, 2, 3])
def test_beta_moments_match_mpmath(q):
    unit = mpmath.pi if q % 2 else 1
    with mpmath.workdps(30):
        for j, moment in enumerate(beta_moments(q, 9)):
            quad = mpmath.quad(
                lambda x, j=j: x ** (2 * j) * (1 - x ** 2) ** (mpmath.mpf(q) / 2),
                [-1, 0, 1])
            want = unit * mpmath.mpf(moment.numerator) / moment.denominator
            assert abs(quad - want) <= 1e-15, j


# ----------------------------------------------------------- exact values

def test_matches_frozen_trig_route_values():
    """Every entry the retired cos/sin-power route computed on its grid:
    families (2,2), (0,2), (3,3), q in {-1, 0, 1, 2, 3, 5}, 3 <= n <= m <= 15."""
    lines = FROZEN_GRAM.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == 1638
    for line in lines:
        fm, fp, q, n, m, want = line.split(" ", 5)
        got = inner_product_exact(int(n), int(m), Family(int(fm), int(fp)),
                                  Weight(int(q)))
        assert str(got) == want, line


def _per_term_fraction_sum(n, m, family, weight):
    """The per-term Fraction sum the integer route replaced."""
    pn = build_definitional(n, family)
    pm = build_definitional(m, family)
    even = (pn * pm).coeffs[::2]
    moments = beta_moments(weight.half_exponent, len(even))
    return sum((c * mj for c, mj in zip(even, moments)),
               Fraction(0))


@pytest.mark.parametrize("q", [-1, 0, 1, 2, 3, 5, 200])
def test_integer_route_matches_per_term_fraction_sum(q):
    w = Weight(q)
    rng = random.Random(8675309 + q)
    cells = [(60, 60)] + [(rng.randint(3, 60), rng.randint(3, 60))
                          for _ in range(10)]
    for family in (P_FAMILY, Family(0, 2), Family(3, 3), Family(1, 4)):
        for n, m in cells:
            want = _per_term_fraction_sum(n, m, family, w)
            want = PiRational(want, Fraction(0)) if q % 2 \
                else PiRational(Fraction(0), want)
            assert inner_product_exact(n, m, family, w) == want, (family, n, m)


@pytest.mark.parametrize("q", [-1, 0, 5])
@pytest.mark.parametrize("family", [P_FAMILY, Family(3, 3)])
def test_exact_gram_of_unsorted_repeated_rows(family, q):
    # Mixed lengths in no order, one row twice: every cell of both
    # triangles is the per-term sum of its own pair.
    w = Weight(q)
    rows = (60, 3, 10, 3)
    block = orthocheck.exact_gram(rows, family, w)
    for i, n in enumerate(rows):
        for j, m in enumerate(rows):
            want = _per_term_fraction_sum(n, m, family, w)
            want = PiRational(want, Fraction(0)) if q % 2 \
                else PiRational(Fraction(0), want)
            assert block[i][j] == want, (n, m)


def test_exact_gram_builds_moments_once_per_row(monkeypatch):
    lengths = []
    moments = orthocheck._integer_moments

    def counted(q, count):
        lengths.append(count)
        return moments(q, count)
    monkeypatch.setattr(orthocheck, "_integer_moments", counted)
    gram_matrix((3, 60), P_FAMILY, Weight(5), with_numeric=False)
    assert lengths == [n + 1 for n in range(3, 61)]


@pytest.mark.parametrize("q", [-1, 0, 1, 4])
def test_vectors_stay_exact_when_the_moment_table_grows(q):
    # Rows 3..10 build their vectors over short moment tables; row 60
    # builds a longer one, whose numerators and denominator differ.
    # Entries read from the old vectors and the new one must all still
    # be exact.
    w = Weight(q)

    def want(n, m):
        total = _per_term_fraction_sum(n, m, P_FAMILY, w)
        return PiRational(total, Fraction(0)) if q % 2 \
            else PiRational(Fraction(0), total)

    small = [(n, m) for n in range(3, 11) for m in range(n, 11)]
    for n, m in small:
        assert inner_product_exact(n, m, P_FAMILY, w) == want(n, m)
    for n in range(3, 61):
        assert inner_product_exact(n, 60, P_FAMILY, w) == want(n, 60), n
    for n, m in small:
        assert inner_product_exact(m, n, P_FAMILY, w) == want(n, m)


@pytest.mark.parametrize("q, distinct", [(-1, 3), (1, 5), (3, 8), (0, 183)])
def test_exact_gram_interns_equal_entries(q, distinct):
    # Each distinct value of the block is one object, and equal entries
    # anywhere in the block are that object.
    block = orthocheck.exact_gram(range(3, 29), P_FAMILY, Weight(q))
    assert len({id(v) for row in block for v in row}) == distinct
    first = {}
    for row in block:
        for v in row:
            assert first.setdefault(v, v) is v


def test_gram_documents_match_golden_digests(capsys):
    """The exact-only gram documents, byte for byte, as the per-term
    Fraction route wrote them."""
    lines = GRAM_DIGESTS.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == 6
    for line in lines:
        q, span, want = line.split()
        assert cli.main(["gram", "--weight", q, "--range", span,
                         "--no-numeric"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, line


def test_chebyshev_weight_corners():
    w = Weight(-1)
    quarter = PiRational.of(Fraction(1, 4))
    eighth = PiRational.of(Fraction(-1, 8))
    assert inner_product_exact(3, 3, P_FAMILY, w) == quarter
    assert inner_product_exact(5, 5, P_FAMILY, w) == quarter
    assert inner_product_exact(3, 5, P_FAMILY, w) == eighth
    assert inner_product_exact(4, 6, P_FAMILY, w) == eighth
    assert inner_product_exact(3, 4, P_FAMILY, w).is_zero()
    assert inner_product_exact(3, 9, P_FAMILY, w).is_zero()


def test_classical_u_and_t_orthogonality():
    half = PiRational.of(Fraction(1, 2))
    for n in range(0, 7):
        assert inner_product_exact(n, n, U_FAMILY, Weight(1)) == half
        for m in range(n + 1, 7):
            assert inner_product_exact(n, m, U_FAMILY, Weight(1)).is_zero()
    for n in range(1, 7):
        assert inner_product_exact(n, n, T_FAMILY, Weight(-1)) == half
        for m in range(n + 1, 7):
            assert inner_product_exact(n, m, T_FAMILY, Weight(-1)).is_zero()


def _deviations(q: int) -> dict:
    w = Weight(q)
    out = {}
    for n in range(3, 16):
        for m in range(n, 16):
            got = inner_product_exact(n, m, P_FAMILY, w)
            if got != theorem_band_value(m - n, w):
                out[(n, m)] = got
    return out


def test_band_pattern_holds_everywhere_for_q_minus1():
    assert _deviations(-1) == {}


def test_band_pattern_deviation_set_q1():
    assert _deviations(1) == {(3, 3): PiRational.of(Fraction(5, 32))}


def test_band_pattern_deviation_set_q3():
    assert _deviations(3) == {
        (3, 3): PiRational.of(Fraction(7, 64)),
        (4, 4): PiRational.of(Fraction(21, 128)),
        (3, 5): PiRational.of(Fraction(-7, 64)),
    }


def test_weight1_parity_vanishing():
    w = Weight(0)
    for n in range(3, 16):
        for m in range(n + 1, 16, 2):
            assert inner_product_exact(n, m, P_FAMILY, w).is_zero()


def test_mpmath_quadrature_cross_check():
    cases = [(3, 3, -1), (3, 3, 1), (3, 7, 1), (3, 3, 3), (4, 4, 3),
             (3, 5, 3)]
    with mpmath.workdps(30):
        for n, m, q in cases:
            pn = list(reversed(build_definitional(n, P_FAMILY).coeffs))
            pm = list(reversed(build_definitional(m, P_FAMILY).coeffs))

            def integrand(x, pn=pn, pm=pm, q=q):
                return mpmath.polyval(pn, x) * mpmath.polyval(pm, x) * \
                    (1 - x ** 2) ** (mpmath.mpf(q) / 2)

            quad = mpmath.quad(integrand, [-1, 1])
            exact = inner_product_exact(n, m, P_FAMILY, Weight(q))
            assert abs(float(quad) - float(exact)) <= 1e-12


# ----------------------------------------------------------- numeric side

@pytest.mark.parametrize("count", [2, 3, 10, 25])
def test_gauss_legendre_matches_numpy(count):
    nodes, weights = _gauss_legendre(count)
    want_nodes, want_weights = leggauss(count)
    assert np.max(np.abs(nodes.astype(float) - want_nodes)) <= 1e-15
    assert np.max(np.abs(weights.astype(float) - want_weights)) <= 1e-14


@pytest.mark.parametrize("q", [-1, 0, 3])
def test_node_count_is_load_bearing(q, monkeypatch):
    w = Weight(q)
    exact = float(inner_product_exact(15, 15, P_FAMILY, w))
    assert abs(exact - inner_product_numeric(15, 15, P_FAMILY, w)) <= 1e-10
    full = orthocheck.quadrature_nodes
    monkeypatch.setattr(orthocheck, "quadrature_nodes",
                        lambda n, m, weight: full(n, m, weight) - 2)
    assert abs(exact - inner_product_numeric(15, 15, P_FAMILY, w)) > 1e-10


def test_numeric_agrees_on_cheap_entries():
    # From each family's first row, row 0 of U included: the Chebyshev
    # conversion and Clenshaw's recurrence on rows of every length.
    for family in (P_FAMILY, U_FAMILY, T_FAMILY, Family(3, 3), Family(1, 4)):
        for q in (-1, 1, 3):
            w = Weight(q)
            for n in range(family.m, 9):
                for m in range(n, 9):
                    exact = float(inner_product_exact(n, m, family, w))
                    gap = abs(exact - inner_product_numeric(n, m, family, w))
                    assert gap <= 1e-10 * max(1.0, abs(exact)), \
                        (family, n, m, q)


def test_numeric_agrees_on_dense_entries():
    for q in (-1, 0, 1, 2, 3, 5):
        w = Weight(q)
        for n in range(3, 21):
            for m in range(n, 21):
                gap = abs(float(inner_product_exact(n, m, P_FAMILY, w))
                          - inner_product_numeric(n, m, P_FAMILY, w))
                assert gap <= 1e-10, (n, m, q)


@pytest.mark.parametrize("q", [-1, 0, 1, 3, MAX_HALF_EXPONENT])
def test_numeric_agrees_to_the_gram_limit(q):
    # Monomial Horner in longdouble missed the (60, 60) entry at q = -1
    # by about 1e4; the Chebyshev-basis rows keep every entry of the
    # largest admitted range within 1e-12 relative, on the one Gauss
    # rule the gram command runs.
    for entry in gram_matrix((3, MAX_GRAM_ROW), P_FAMILY, Weight(q)).entries():
        exact = float(entry.exact)
        gap = abs(exact - entry.numeric)
        assert gap <= 1e-12 * max(1.0, abs(exact)), (entry.n, entry.m)


# ------------------------------------------------------------ gram matrix

def test_gram_matrix_chebyshev_weight_bands():
    gm = gram_matrix((3, 8), P_FAMILY, Weight(-1))
    report = gm.band_report()
    assert report[0].uniform
    assert report[0].value == PiRational.of(Fraction(1, 4))
    assert report[2].uniform
    assert report[2].value == PiRational.of(Fraction(-1, 8))
    for off in (1, 3, 5):
        assert report[off].uniform
        assert report[off].value.is_zero()
    for entry in gm.entries():
        assert abs(float(entry.exact) - entry.numeric) <= 1e-10


def test_gram_matrix_symmetry_and_no_numeric():
    gm = gram_matrix((3, 6), P_FAMILY, Weight(1), with_numeric=False)
    assert gm.entry(5, 3) == gm.entry(3, 5)
    assert gm.entry(4, 4).numeric is None


@pytest.mark.parametrize("pair", [(2, 4), (4, 7), (1, 3), (7, 2)])
def test_gram_entry_refuses_pairs_outside_the_range(pair):
    # Row 2 would sit at block index -1, the last row, were it not refused.
    gm = gram_matrix((3, 6), P_FAMILY, Weight(1))
    with pytest.raises(KeyError):
        gm.entry(*pair)


def test_gram_matrix_sums_each_row_once(monkeypatch):
    # One Gauss rule per document, sized for its largest row: Clenshaw
    # runs once for each row of the range, at the same nodes.
    sizes = []
    clenshaw = orthocheck._clenshaw

    def counted(coeffs, x):
        sizes.append(len(x))
        return clenshaw(coeffs, x)
    monkeypatch.setattr(orthocheck, "_clenshaw", counted)
    gram_matrix((3, 8), P_FAMILY, Weight(1))
    assert sizes == [orthocheck.quadrature_nodes(8, 8, Weight(1))] * 6


def test_gram_band_report_flags_q1_corner():
    report = gram_matrix((3, 8), P_FAMILY, Weight(1),
                         with_numeric=False).band_report()
    diag = report[0]
    assert not diag.uniform
    assert diag.value == PiRational.of(Fraction(3, 16))
    assert diag.deviations == ((3, 3, PiRational.of(Fraction(5, 32))),)


def test_gram_matrix_range_validation():
    with pytest.raises(InvalidConfigError):
        gram_matrix((1, 5), P_FAMILY, Weight(-1))
    with pytest.raises(InvalidConfigError):
        gram_matrix((5, 3), P_FAMILY, Weight(-1))
    with pytest.raises(InvalidConfigError):
        inner_product_exact(1, 3, P_FAMILY, Weight(-1))


def test_theorem_band_values():
    assert theorem_band_value(0, Weight(-1)) == PiRational.of(Fraction(1, 4))
    assert theorem_band_value(1, Weight(-1)).is_zero()
    assert theorem_band_value(4, Weight(1)) == PiRational.of(Fraction(1, 32))
    assert theorem_band_value(6, Weight(3)) == \
        PiRational.of(Fraction(-1, 128))
    with pytest.raises(InvalidConfigError):
        theorem_band_value(0, Weight(5))
