"""Triangle rows, the alternative constructions, and their printed defects.

Classical Chebyshev rows are regenerated here from their own three-term
recurrences (never from the package) so the specialization checks have an
independent reference.  The printed-variant witnesses pinned below are
regression anchors: they must keep failing in exactly the recorded way.
"""

import hashlib
import os
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcheb import polyfamily
from blockcheb.blockcount import f_closed
from blockcheb.errors import InvalidConfigError
from blockcheb.exact import binomial
from blockcheb.polyfamily import (MAX_ROW, Family, IntPolynomial, P_FAMILY,
                                  T_FAMILY, Triangle, U_FAMILY,
                                  build_by_reduction,
                                  build_by_three_term, build_definitional,
                                  build_via_t_recurrence,
                                  chebyshev_u_coefficient,
                                  coeff_recurrence_e2, coeff_recurrence_e2_row,
                                  coeff_recurrence_e3, coeff_recurrence_e3_row,
                                  coeff_triple_sum, coeff_triple_sum_row,
                                  coefficient,
                                  coefficient_row, triangle, _coeff_any,
                                  _virtual_coeff)
from regen_golden import route_outputs

_DATA = os.path.join(os.path.dirname(__file__), "data")


def _classical_rows(seed0, seed1, upto):
    """Dense ascending rows of r_j = 2x r_{j-1} - r_{j-2}."""
    rows = [list(seed0), list(seed1)]
    while len(rows) <= upto:
        prev, prev2 = rows[-1], rows[-2]
        nxt = [0] + [2 * c for c in prev]
        for j, c in enumerate(prev2):
            nxt[j] -= c
        rows.append(nxt)
    return rows


def _seed_table():
    rows = {}
    with open(os.path.join(_DATA, "p22_table.seed"), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head, _, tail = line.partition(":")
            rows[int(head)] = tuple(int(c) for c in tail.split())
    return rows


# ------------------------------------------------------------ the triangle

def test_published_table_rows():
    for n, coeffs in _seed_table().items():
        assert build_definitional(n, P_FAMILY).coeffs == coeffs


def test_published_table_pretty_strings():
    expected = {2: "x^2", 3: "2x^3 - 2x", 4: "4x^4 - 5x^2 + 1",
                5: "8x^5 - 12x^3 + 4x", 6: "16x^6 - 28x^4 + 13x^2 - 1",
                7: "32x^7 - 64x^5 + 38x^3 - 6x"}
    for n, text in expected.items():
        assert str(build_definitional(n, P_FAMILY)) == text


def test_chebyshev_u_specialization():
    classical = _classical_rows([1], [0, 2], 30)
    for n in range(0, 31):
        assert list(triangle(U_FAMILY).row(n)) == classical[n]


def test_chebyshev_t_specialization():
    classical = _classical_rows([1], [0, 1], 30)
    for n in range(1, 31):
        assert list(triangle(T_FAMILY).row(n)) == classical[n]


def test_row_below_start_rejected():
    with pytest.raises(InvalidConfigError):
        coefficient(1, 0, P_FAMILY)
    with pytest.raises(InvalidConfigError):
        triangle(P_FAMILY).row(1)
    assert _coeff_any(1, 1, P_FAMILY) == 0


def test_triangle_is_shared_and_cached():
    assert triangle(P_FAMILY) is triangle(Family(2, 2))
    rows = triangle(Family(3, 3)).rows(6)
    assert [len(r) for r in rows] == [4, 5, 6, 7]
    with pytest.raises(InvalidConfigError):
        triangle(Family(3, 3)).rows(2)


def test_triangle_created_once_under_concurrent_lookups():
    """Threads that ask for a new family at once all get the one Triangle
    that stays registered; a lost creation race would hand some of them
    an orphan whose rows the others never see."""
    families = [Family(m, 40) for m in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for fam in families:
            barrier = threading.Barrier(8)
            got = []

            def look(fam=fam, barrier=barrier, got=got):
                barrier.wait(timeout=10)
                got.append(triangle(fam))
            workers = [threading.Thread(target=look) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            assert not any(w.is_alive() for w in workers)
            assert len(got) == 8
            assert all(tri is polyfamily._triangles[fam.m, fam.p]
                       for tri in got)
    finally:
        sys.setswitchinterval(interval)
        for fam in families:
            polyfamily._triangles.pop((fam.m, fam.p), None)


# Triangle rows come from generating-function columns; the tests below tie
# them to routes that do not share that code.

def test_triangle_rows_match_closed_form():
    for m in range(7):
        for p in range(1, 6):
            fam = Family(m, p)
            tri = Triangle(fam)
            for n in range(m, 41):
                expected = tuple(coefficient(n, k, fam) for k in range(n + 1))
                assert tri.row(n) == expected, (m, p, n)


def test_p22_rows_factor_through_chebyshev_u():
    one_minus_x2 = IntPolynomial((1, 0, -1))
    tri = Triangle(P_FAMILY)
    for n in range(3, 201):
        u = build_by_three_term(n - 2, U_FAMILY)
        assert IntPolynomial(tri.row(n)) == -(one_minus_x2 * u), n


def test_triangle_rows_same_stepwise_or_at_once():
    for fam in (Family(0, 1), Family(2, 2), Family(3, 4), Family(5, 3)):
        stepwise = Triangle(fam)
        rows = [stepwise.row(n) for n in range(fam.m, 61)]
        assert Triangle(fam).rows(60) == rows


def test_triangle_of_large_p_is_cheap():
    # Rows to MAX_ROW read C(p, j) only for j <= MAX_ROW, so a family
    # with p = 20000 must not compute all 20000 binomials.
    fam = Family(0, 20000)
    start = time.perf_counter()
    rows = Triangle(fam).rows(6)
    assert time.perf_counter() - start < 1.0
    assert rows == [tuple(coefficient(n, k, fam) for k in range(n + 1))
                    for n in range(7)]


def test_triangle_weights_grow_with_the_rows():
    # Row m + d reads only C(p, 1..min(p, d)), so row 5 of a family with
    # p = 10^63 needs five binomials, not min(p, MAX_ROW) of them.
    fam = Family(0, 10 ** 63)
    tri = Triangle(fam)
    assert tri.row(5) == tuple(coefficient(5, k, fam) for k in range(6))
    assert len(tri._weights) <= 5


def test_row_limit():
    tri = Triangle(Family(0, 1))
    assert tri.row(MAX_ROW) == (0,) * MAX_ROW + (1,)
    with pytest.raises(InvalidConfigError, match="row limit"):
        tri.row(MAX_ROW + 1)
    with pytest.raises(InvalidConfigError, match="row limit"):
        Triangle(P_FAMILY).rows(MAX_ROW + 1)


@settings(max_examples=60)
@given(st.integers(0, 4), st.integers(1, 4), st.integers(0, 10))
def test_leading_coefficient_and_parity(m, p, extra):
    fam = Family(m, p)
    n = m + extra
    row = triangle(fam).row(n)
    assert row[n] == p ** (n - m)
    assert all(row[k] == 0 for k in range(n + 1) if (n - k) % 2)


def test_family_validation():
    with pytest.raises(InvalidConfigError):
        Family(-1, 2)
    with pytest.raises(InvalidConfigError):
        Family(0, 0)
    assert str(Family(2, 3)) == "(m=2, p=3)"


# --------------------------------------------------------- IntPolynomial

def test_intpolynomial_basics():
    p = IntPolynomial((1, 0, -3, 0))
    assert p.coeffs == (1, 0, -3)
    assert p.degree == 2
    assert p.coeff(5) == 0
    assert str(IntPolynomial()) == "0"
    assert str(IntPolynomial((-1, 0, 1))) == "x^2 - 1"
    assert IntPolynomial.monomial(3, -2).coeffs == (0, 0, 0, -2)


def test_intpolynomial_algebra():
    a = IntPolynomial((1, 2))
    b = IntPolynomial((0, 1))
    assert (a * b).coeffs == (0, 1, 2)
    assert (3 * a).coeffs == (3, 6)
    assert (a - a).is_zero()
    assert a.shift(2).coeffs == (0, 0, 1, 2)
    assert IntPolynomial((5, 0, 0, 4)).derivative().coeffs == (0, 0, 12)


# ------------------------------------------- corrected construction routes

def test_all_routes_agree_small_sweep():
    # m >= 5 with p >= 3 spreads virtual mass over several shifted rows.
    for p in (1, 2, 3, 4, 5):
        for m in range(0, 7):
            fam = Family(m, p)
            for n in range(m, 17):
                base = build_definitional(n, fam)
                assert build_by_reduction(n, fam) == base
                for t in range(0, 4):
                    assert build_via_t_recurrence(n, fam, t) == base
                if p == 2:
                    assert build_by_three_term(n, fam) == base


def test_reduction_matches_u_composition():
    # Row n of (2, 2) must equal x^2 U_{n-2} - 2x U_{n-3} + U_{n-4}
    # with the classical U rows generated independently above.
    u = [IntPolynomial(r) for r in _classical_rows([1], [0, 2], 30)]
    for n in range(4, 31):
        composed = u[n - 2].shift(2) - 2 * u[n - 3].shift(1) + u[n - 4]
        assert build_definitional(n, P_FAMILY) == composed


def test_three_term_requires_p2():
    with pytest.raises(InvalidConfigError):
        build_by_three_term(3, Family(0, 3))


def test_three_term_route_stops_at_the_row_limit():
    # The recurrence refuses the rows build_by_reduction refuses.  Rows
    # m..n come back fresh from every call: none are kept between calls.
    fam = Family(0, 2)
    for build in (build_by_three_term, build_by_reduction):
        with pytest.raises(InvalidConfigError, match="above the row limit"):
            build(MAX_ROW + 1, fam)
    with pytest.raises(InvalidConfigError, match="above the row limit"):
        polyfamily.three_term_rows(MAX_ROW + 1, fam)
    rows = polyfamily.three_term_rows(MAX_ROW, fam)
    assert len(rows) == MAX_ROW + 1
    assert rows[-1] == build_by_three_term(MAX_ROW, fam)
    assert rows[:31] == [build_definitional(n, fam) for n in range(31)]
    rows.clear()
    assert polyfamily.three_term_rows(2, fam) == [
        build_definitional(n, fam) for n in range(3)]


def test_construction_argument_validation():
    with pytest.raises(InvalidConfigError):
        build_by_reduction(1, P_FAMILY)
    with pytest.raises(InvalidConfigError):
        build_via_t_recurrence(3, P_FAMILY, -1)
    with pytest.raises(ValueError):
        build_by_reduction(4, P_FAMILY, variant="fixed")


# --------------------------------------------- pinned printed-variant reds

def test_three_term_printed_diverges_for_m2():
    # Without the closing binomial term rows m+2..2m lose their tails.
    assert str(build_by_three_term(4, P_FAMILY, "printed")) == "4x^4 - 5x^2"
    assert str(build_by_three_term(5, P_FAMILY, "printed")) == \
        "8x^5 - 12x^3 + 2x"
    # Beyond 2m the recurrence carries the damage forward but adds none:
    # the m <= 1 families never disagree.
    for fam in (U_FAMILY, T_FAMILY):
        for n in range(fam.m, 15):
            assert build_by_three_term(n, fam, "printed") == \
                build_definitional(n, fam)


def test_reduction_printed_diverges_for_p3():
    fam = Family(1, 3)
    assert str(build_by_reduction(4, fam, "printed")) == "27x^4 - 27x^2 + 3"
    assert str(build_definitional(4, fam)) == "27x^4 - 27x^2 + 4"
    assert str(build_by_reduction(6, fam, "printed")) == \
        "243x^6 - 405x^4 + 189x^2 - 15"
    assert str(build_definitional(6, fam)) == "243x^6 - 405x^4 + 189x^2 - 21"
    # p <= 2 keeps both variants identical.
    for m in range(0, 4):
        for p in (1, 2):
            f2 = Family(m, p)
            for n in range(m, 12):
                assert build_by_reduction(n, f2, "printed") == \
                    build_definitional(n, f2)


def test_t_recurrence_printed_diverges_for_p3():
    fam = Family(0, 3)
    assert str(build_via_t_recurrence(2, fam, 1, "printed")) == "9x^2 - 4"
    assert str(build_definitional(2, fam)) == "9x^2 - 3"
    assert str(build_via_t_recurrence(0, fam, 3, "printed")) == "-x^2 + 1"
    assert str(build_via_t_recurrence(1, fam, 2, "printed")) == "2x"
    assert str(build_definitional(1, fam)) == "3x"


def test_virtual_coefficient_extends_past_left_edge():
    fam = Family(0, 3)
    # In-triangle the virtual coefficient is the coefficient.
    for n in range(0, 8):
        for k in range(0, n + 1):
            assert _virtual_coeff(n, k, fam) == coefficient(n, k, fam)
    # Past the left edge the zero-extension and the count disagree:
    # this single unit of mass is what the printed translations drop.
    assert _coeff_any(3, -1, fam) == 0
    assert _virtual_coeff(3, -1, fam) == 1


def test_closed_row_table_matches_f_closed():
    """Every lookup the closed-form row table serves, against f_closed:
    past the left edge (k < 0), right of the row and below the triangle
    start (n < m) included, where coefficient() refuses the row."""
    for p in range(1, 6):
        for m in range(7):
            fam = Family(m, p)
            for n in range(19):
                # Entry a is the power k = 2a + 2m - n, b = n - m - a.
                assert polyfamily._closed_row(n, m, p) == tuple(
                    (-1) ** (n - m - a) * f_closed(a, n - m - a, m, p)
                    for a in range(n - m + 1))
                for k in range(2 * m - n - 2, n + 3):
                    a, b = (n + k) // 2 - m, (n - k) // 2
                    want = 0
                    if (n - k) % 2 == 0 and a >= 0 and b >= 0:
                        want = (-1) ** b * f_closed(a, b, m, p)
                    assert _virtual_coeff(n, k, fam) == want, (fam, n, k)
                    assert _coeff_any(n, k, fam) == (want if k >= 0 else 0)
                    if n >= m:
                        assert coefficient(n, k, fam) == _coeff_any(n, k, fam)
                if n >= m:
                    assert coefficient_row(n, fam) == \
                        tuple(coefficient(n, k, fam) for k in range(n + 1))
                else:
                    with pytest.raises(InvalidConfigError):
                        coefficient(n, 0, fam)
                    with pytest.raises(InvalidConfigError):
                        coefficient_row(n, fam)


def test_route_outputs_match_golden_digests():
    """Every printed witness and every corrected output on the grid, byte
    for byte against the recorded digests, not only those verify prints."""
    with open(os.path.join(_DATA, "golden", "routes_sha256.txt"),
              encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines()
                 if not line.startswith("#")]
    outputs = route_outputs()
    assert len(lines) == len(outputs)
    for line in lines:
        route, count, want = line.split()
        out = outputs[route]
        assert len(out) == int(count), line
        digest = hashlib.sha256("\n".join(map(str, out)).encode()).hexdigest()
        assert digest == want, line


# --------------------------------------------------- coefficient recurrences

def test_coeff_recurrence_e2_corrected_sweep():
    for p in (2, 3):
        for m in range(0, 3):
            fam = Family(m, p)
            for n in range(m, 11):
                for t in range(0, 4):
                    for k in range(0, n + 1):
                        assert coeff_recurrence_e2(n, k, fam, t) == \
                            coefficient(n, k, fam)


def test_coeff_recurrence_e2_printed_witness():
    fam = Family(0, 3)
    assert coefficient(1, 1, fam) == 3
    assert coeff_recurrence_e2(1, 1, fam, 2, "printed") == 2
    assert coeff_recurrence_e2(1, 1, fam, 3, "printed") == 0


def test_coeff_recurrence_e3_corrected_domain():
    # Inside its domain the sign-repaired recurrence is exact.
    for p in (2, 3, 4):
        for m in range(0, 3):
            fam = Family(m, p)
            for n in range(max(m, 1), 11):
                for k in range(0, n + 1):
                    if n + k >= 2 * m + 2 and (p == 2 or k >= 1):
                        assert coeff_recurrence_e3(n, k, fam, "corrected") \
                            == coefficient(n, k, fam)


def test_coeff_recurrence_e3_blind_spots():
    # Anti-diagonal n + k = 2m: the descent has no room.
    assert coefficient(3, 1, P_FAMILY) == -2
    assert coeff_recurrence_e3(3, 1, P_FAMILY, "corrected") == 0
    # k = 0 with p >= 3: the power -1 lookup discards real count mass.
    fam = Family(0, 3)
    assert coefficient(4, 0, fam) == 15
    assert coeff_recurrence_e3(4, 0, fam, "corrected") == 12


def test_coeff_recurrence_e3_printed_witnesses():
    assert coeff_recurrence_e3(1, 1, U_FAMILY, "printed") == -2
    assert coefficient(1, 1, U_FAMILY) == 2
    assert coeff_recurrence_e3(2, 0, U_FAMILY, "printed") == 1
    assert coefficient(2, 0, U_FAMILY) == -1


def test_triple_sum_corrected_sweep():
    for p in (2, 3, 4):
        for m in range(0, 3):
            fam = Family(m, p)
            for n in range(m, 10):
                for k in range(0, n + 1):
                    assert coeff_triple_sum(n, k, fam, "corrected") == \
                        coefficient(n, k, fam)


def test_triple_sum_printed_witnesses():
    assert coeff_triple_sum(2, 0, U_FAMILY, "printed") == -4
    assert coefficient(2, 0, U_FAMILY) == -1
    assert coeff_triple_sum(3, 1, U_FAMILY, "printed") == -12
    assert coefficient(3, 1, U_FAMILY) == -4


def _triple_sum_reference(n, k, family, variant):
    """coeff_triple_sum as first written: every factor of every term
    computed inside the innermost loop, signs as powers of -1."""
    base = Family(0, family.p - 1)
    m = family.m
    total = 0
    if variant == "printed":
        for i in range(n + 1):
            for j in range(i + 1):
                for t in range(m + 1):
                    total += binomial(n, i) * binomial(m, t) * binomial(i, j) * \
                        (-1) ** (i - j + t) * _coeff_any(n - i - t, k + i - 2 * j + t, base)
        return total
    if (n - k) % 2:
        return 0
    a = (n + k - 2 * m) // 2
    for i in range(max(a + 1, 0)):
        for j in range(i + 1):
            for t in range(m + 1):
                total += binomial(a, i) * binomial(m, t) * binomial(i, j) * \
                    (-1) ** (i - j + t) * \
                    _virtual_coeff(n - m - i - t, k - m + i - 2 * j + t, base)
    return total


def _e2_reference(n, k, family, t, variant):
    """coeff_recurrence_e2 as first written: the printed sum plus, for
    the corrected variant, the hand-derived deficit sum below."""
    total = 0
    for i in range(t + 1):
        other = Family(family.m + t - i, family.p)
        total += (-1) ** (i + t) * binomial(t, i) * _coeff_any(n + 2 * t - i, k - i, other)
    if variant == "corrected":
        total += _deficit_reference(n, k, family, t)
    return total


def _deficit_reference(n, k, family, t):
    """Count mass the printed t-fold translation drops at power k,
    derived by hand from the count identity rather than through the
    virtual coefficient, so it checks coeff_recurrence_e2 independently:

        (-1)^b sum_{i=k+1}^t (-1)^i C(t,i) f(a, b+t, m+t-i, p)

    with a = (n+k-2m)/2 and b = (n-k)/2.  For n < k < t the true
    coefficient is 0 but the printed sum leaves stray mass, so b may be
    negative (only its parity is used)."""
    if k < 0 or k >= t or (n - k) % 2:
        return 0
    a = (n + k - 2 * family.m) // 2
    if a < 0:
        return 0
    b = (n - k) // 2
    total = 0
    for i in range(k + 1, t + 1):
        total += (-1) ** i * binomial(t, i) * \
            f_closed(a, b + t, family.m + t - i, family.p)
    return -total if b % 2 else total


@pytest.mark.parametrize("variant", ["printed", "corrected"])
def test_coefficient_sums_match_literal_transcriptions(variant):
    """The library sums equal the literal term-by-term loops on every cell,
    witnesses included: a printed variant fails either way, so its
    status alone would not show a slip.  Powers run two past each edge
    of the row, where the sums' index bounds cut in."""
    for p in (1, 2, 3, 4):
        for m in range(5):
            fam = Family(m, p)
            for n in range(13):
                for k in range(-2, n + 3):
                    if p > 1:
                        assert coeff_triple_sum(n, k, fam, variant) == \
                            _triple_sum_reference(n, k, fam, variant), \
                            (fam, n, k)
                    for t in range(4):
                        assert coeff_recurrence_e2(n, k, fam, t, variant) \
                            == _e2_reference(n, k, fam, t, variant), \
                            (fam, n, k, t)


@pytest.mark.parametrize("variant", ["printed", "corrected"])
def test_coefficient_recurrence_rows_match_their_terms(variant):
    """The row forms sum shifted triangle rows and the per-coefficient
    forms read the closed-form table term by term; they share no row
    code, so holding them equal checks both, printed failures included."""
    for p in range(1, 6):
        for m in range(7):
            fam = Family(m, p)
            for n in range(m, 19):
                assert coeff_recurrence_e3_row(n, fam, variant) == tuple(
                    coeff_recurrence_e3(n, k, fam, variant)
                    for k in range(n + 1)), (fam, n)
                for t in range(4):
                    assert coeff_recurrence_e2_row(n, fam, t, variant) == \
                        tuple(coeff_recurrence_e2(n, k, fam, t, variant)
                              for k in range(n + 1)), (fam, n, t)


def test_triple_sum_refuses_p_below_2():
    # Its base family (0, p - 1) would be (0, 0), which has no counts.
    fam = Family(0, 1)
    with pytest.raises(InvalidConfigError):
        coeff_triple_sum(3, 1, fam)
    with pytest.raises(InvalidConfigError):
        coeff_triple_sum_row(3, fam, "corrected")


def test_recurrence_variant_validation():
    with pytest.raises(ValueError):
        coeff_recurrence_e3(4, 2, P_FAMILY, "published")
    with pytest.raises(ValueError):
        coeff_triple_sum(4, 2, P_FAMILY, variant="fixed")
    with pytest.raises(InvalidConfigError):
        coeff_recurrence_e2(4, 2, P_FAMILY, -1)


# ------------------------------------------------------ closed coefficient

def test_chebyshev_u_coefficient_closed_form():
    classical = _classical_rows([1], [0, 2], 30)
    for n in range(0, 31):
        for k in range(0, n + 1):
            assert chebyshev_u_coefficient(n, k) == classical[n][k]
    assert chebyshev_u_coefficient(4, 1) == 0
    assert chebyshev_u_coefficient(3, 5) == 0
    assert chebyshev_u_coefficient(-1, 0) == 0
