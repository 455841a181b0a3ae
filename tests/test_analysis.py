"""Evaluation, zeros, extrema and bounds of the (2, 2) rows."""

import dataclasses
import hashlib
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockcheb import analysis, cli
from blockcheb.analysis import (bound_check, closed_form_zeros, evaluate,
                                evaluate_exact_at_float, extrema,
                                monic_sup_norm, numeric_zeros,
                                trig_form_residual, unit_bound_residual)
from blockcheb.errors import ConvergenceError, InvalidConfigError
from blockcheb.polyfamily import (Family, IntPolynomial, P_FAMILY, T_FAMILY,
                                  U_FAMILY, build_definitional)

FROZEN_EXTREMA = Path(__file__).parent / "data" / "extrema_theta.txt"
ROOT_DIGESTS = Path(__file__).parent / "data" / "golden" / "roots_sha256.txt"


# ------------------------------------------------------------- evaluation

def test_evaluate_stays_exact_for_exact_input():
    p4 = build_definitional(4, P_FAMILY)
    assert evaluate(p4, 1) == 0
    assert evaluate(p4, 0) == 1
    assert evaluate(p4, Fraction(1, 2)) == 0
    assert isinstance(evaluate(p4, Fraction(1, 3)), Fraction)
    assert evaluate(build_definitional(3, U_FAMILY), 1) == 4


def test_evaluate_exact_at_float_is_dyadic_exact():
    p4 = build_definitional(4, P_FAMILY)
    assert evaluate_exact_at_float(p4, 0.5) == 0
    assert evaluate_exact_at_float(p4, 1.0) == 0
    # 0.1 is not 1/10 as a double; the exact evaluator must see the
    # double, not the decimal.
    x = 0.1
    frac = Fraction(x)
    assert evaluate_exact_at_float(p4, x) == \
        4 * frac ** 4 - 5 * frac ** 2 + 1


def test_evaluate_empty_polynomial():
    assert evaluate(IntPolynomial(), 3) == 0
    assert evaluate_exact_at_float(IntPolynomial(), 0.7) == 0


def _parity_poly(kind: str, coeffs: list) -> IntPolynomial:
    """coeffs with the odd powers zeroed (even), the even ones (odd), or
    kept as drawn (mixed)."""
    keep = {"even": (0,), "odd": (1,), "mixed": (0, 1)}[kind]
    return IntPolynomial([c if j % 2 in keep else 0
                          for j, c in enumerate(coeffs)])


_POINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324,
                     2.0 ** -1022 - 5e-324, -(2.0 ** -1030), 0.1, -0.75]),
    # +-2^k out to the largest root bound _real_roots accepts.
    st.builds(lambda k, sign: math.copysign(math.ldexp(1.0, k), sign),
              st.integers(-1074, 1023), st.sampled_from((1.0, -1.0))),
    st.floats(-4.0, 4.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("even", "odd", "mixed")),
       st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=14), _POINTS)
@example("even", [], 0.5)                   # zero polynomial
@example("even", [7], -0.0)                 # constant
@example("odd", [5, 3], 5e-324)             # the even 5 is dropped
@example("mixed", [1, 1, 1], 2.0 ** 1023)
def test_exact_ratio_matches_fraction_horner(kind, coeffs, x):
    """The parity-split evaluation equals Horner in Fractions at the
    double's exact value, with the unreduced denominator 2^(s deg)."""
    poly = _parity_poly(kind, coeffs)
    num, den = analysis._eval_ratio(poly, x)
    want = Fraction(0)
    for c in reversed(poly.coeffs):
        want = want * Fraction(x) + c
    assert Fraction(num, den) == want
    s = Fraction(x).denominator.bit_length() - 1
    assert den == (1 if poly.is_zero() else 2 ** (s * poly.degree))


# ---------------------------------------------------------- trig residual

def test_trig_form_residual_small():
    for n in (3, 7, 12, 20, 25):
        worst = max(abs(trig_form_residual(n, math.pi * (j + 0.5) / 200))
                    for j in range(200))
        assert worst <= 1e-12


def test_trig_form_requires_n3():
    with pytest.raises(InvalidConfigError):
        trig_form_residual(2, 0.5)


# ------------------------------------------------------------------ zeros

def test_closed_form_zeros_small_rows():
    assert closed_form_zeros(3).roots == (-1.0, 0.0, 1.0)
    z4 = closed_form_zeros(4)
    third = math.cos(math.pi / 3)  # 0.500...01, the rounded cos, not 1/2
    assert z4.roots == (-1.0, -third, third, 1.0)
    assert z4.multiplicities == (1, 1, 1, 1)
    z5 = closed_form_zeros(5)
    assert z5.count == 5
    assert z5.roots[1] == pytest.approx(-math.sqrt(2) / 2, abs=1e-15)
    assert z5.roots[2] == 0.0


def test_closed_form_zeros_mirror_symmetry():
    for n in range(3, 21):
        roots = closed_form_zeros(n).roots
        assert len(roots) == n
        for a, b in zip(roots, reversed(roots)):
            assert a == -b  # exact float negation, not approximate


def test_closed_form_zeros_require_n3():
    with pytest.raises(InvalidConfigError):
        closed_form_zeros(2)


def test_numeric_zeros_match_closed_form():
    for n in (3, 4, 5, 10, 17, 20, 30, 45, 60):
        poly = build_definitional(n, P_FAMILY)
        numeric = numeric_zeros(poly, P_FAMILY)
        closed = closed_form_zeros(n)
        assert numeric.count == closed.count
        for a, b in zip(numeric.roots, closed.roots):
            assert abs(a - b) <= 1e-10


def test_numeric_zeros_double_root_at_origin():
    rs = numeric_zeros(build_definitional(2, P_FAMILY), P_FAMILY)
    assert rs.roots == (0.0,)
    assert rs.multiplicities == (2,)


def test_numeric_zeros_without_family_hint():
    rs = numeric_zeros(IntPolynomial((-2, 0, 1)))  # x^2 - 2
    assert len(rs.roots) == 2
    assert rs.roots[0] == pytest.approx(-math.sqrt(2), abs=1e-12)
    assert rs.roots[1] == pytest.approx(math.sqrt(2), abs=1e-12)


def test_numeric_zeros_cubic_family_start():
    rs = numeric_zeros(build_definitional(3, Family(3, 2)), Family(3, 2))
    assert rs.roots == (0.0,)
    assert rs.multiplicities == (3,)


def test_numeric_zeros_multiple_roots():
    def zeros(m, p, n):
        return numeric_zeros(build_definitional(n, Family(m, p)), Family(m, p))

    rs = zeros(2, 1, 4)  # (x^2 - 1)^2
    assert (rs.roots, rs.multiplicities) == ((-1.0, 1.0), (2, 2))
    rs = zeros(0, 3, 5)  # 27x(3x^2 - 2)^2
    assert rs.multiplicities == (2, 1, 2)
    assert rs.roots[1] == 0.0 and rs.roots[0] == -rs.roots[2]
    assert rs.roots[2] == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
    rs = zeros(6, 2, 11)  # triple roots at -1 and 1
    assert rs.count == 11
    assert (rs.roots[0], rs.roots[-1]) == (-1.0, 1.0)
    assert (rs.multiplicities[0], rs.multiplicities[-1]) == (3, 3)


def test_numeric_zeros_of_chebyshev_rows():
    # U_35 vanishes at cos(k pi/36), T_35 at cos((2k-1) pi/70).
    for family, angle in ((U_FAMILY, lambda k: k * math.pi / 36),
                          (T_FAMILY, lambda k: (2 * k - 1) * math.pi / 70)):
        rs = numeric_zeros(build_definitional(35, family), family)
        assert rs.count == len(rs.roots) == 35
        want = sorted(math.cos(angle(k)) for k in range(1, 36))
        assert max(abs(a - b) for a, b in zip(rs.roots, want)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(-40, 40),
                          st.integers(1, 3)), min_size=1, max_size=4),
       st.integers(1, 50))
def test_numeric_zeros_of_dyadic_factors(factors, c):
    # prod (2^e x - a)^k * (x^2 + c): the roots a/2^e are exact floats,
    # and x^2 + c adds a pair of complex roots that must not show up.
    poly = IntPolynomial((c, 0, 1))
    want: dict[Fraction, int] = {}
    for e, a, k in factors:
        for _ in range(k):
            poly = poly * IntPolynomial((-a, 2 ** e))
        want[Fraction(a, 2 ** e)] = want.get(Fraction(a, 2 ** e), 0) + k
    rs = numeric_zeros(poly)
    assert rs.roots == tuple(float(r) for r in sorted(want))
    assert rs.multiplicities == tuple(want[r] for r in sorted(want))


def _bisect_reference(poly, lo, hi):
    """The root of poly in (lo, hi] by exact float bisection, with signs
    from Horner in Fractions: a reference that shares no code with the
    refiner.  It returns a root that is a float exactly, and otherwise
    the midpoint of the two floats around it, as the refiner must."""
    def sign(x):
        v = evaluate(poly, Fraction(x))
        return (v > 0) - (v < 0)

    shi = smid = sign(hi)
    mid = hi
    while smid:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        smid = sign(mid)
        lo, hi = (lo, mid) if smid == shi else (mid, hi)
    return mid


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 400),
                          st.integers(1, 2)), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 6), st.integers(-300, 300)),
                max_size=3))
def test_numeric_zeros_match_reference_bisection(quadratics, linears):
    # prod ((2^e x)^2 - a)^k (2^e x - b): irrational roots +-sqrt(a)/2^e
    # inside and outside [-1, 1] beside exact dyadic ones.  Each factor
    # is bisected on its own bracket; numeric_zeros must give the same
    # floats with the same multiplicities.
    poly, want = IntPolynomial((1,)), Counter()
    for e, a, k in quadratics:
        factor = IntPolynomial((-a, 0, 4 ** e))
        for _ in range(k):
            poly = poly * factor
        for lo, hi in ((0.0, a + 1.0), (-a - 1.0, 0.0)):
            want[_bisect_reference(factor, lo, hi)] += k
    for e, b in linears:
        factor = IntPolynomial((-b, 2 ** e))
        poly = poly * factor
        want[_bisect_reference(factor, -abs(b) - 1.0, abs(b) + 1.0)] += 1
    rs = numeric_zeros(poly)
    assert rs.roots == tuple(sorted(want))
    assert rs.multiplicities == tuple(want[x] for x in rs.roots)


def test_numeric_zeros_error_paths():
    with pytest.raises(InvalidConfigError):
        numeric_zeros(IntPolynomial())
    # x^2 + 1 has no real roots, so a claimed full (2,2) root set of
    # degree 2 cannot be assembled.
    with pytest.raises(ConvergenceError):
        numeric_zeros(IntPolynomial((1, 0, 1)), P_FAMILY)
    # Roots 1 and 1 + 2^-60 share a float; a root near 2^1100 has none.
    with pytest.raises(ConvergenceError, match="closer than one float"):
        numeric_zeros(IntPolynomial((-2 ** 60, 2 ** 60))
                      * IntPolynomial((-2 ** 60 - 1, 2 ** 60)))
    with pytest.raises(ConvergenceError, match="beyond float range"):
        numeric_zeros(IntPolynomial((-2 ** 1100, 1)))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(-2 ** 40, 2 ** 40)),
                max_size=4),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.integers(1, 2 ** 20))
@example([], [0, 1], 1)
@example([(0, 5)], [1], 2 ** 20)
def test_roots_lie_inside_the_root_bound(linears, cofactor, lead):
    # prod (2^e x - a) times a small cofactor with a leading coefficient
    # `lead`: roots far outside [-1, 1], tiny and complex ones.  The bound
    # exponent is the least k >= 1 its definition allows, and every root
    # found lies strictly inside (-2^k, 2^k).
    poly = IntPolynomial(cofactor + [lead])
    for e, a in linears:
        poly = poly * IntPolynomial((-a, 2 ** e))
    *rest, top = map(abs, poly.coeffs)

    def holds(k):
        return all(top << ((k - 1) * i) > c
                   for i, c in enumerate(reversed(rest), 1))

    k = analysis._root_bound_exponent(poly)
    assert k >= 1 and holds(k) and (k == 1 or not holds(k - 1))
    bound = math.ldexp(1.0, k)
    assert all(-bound < x < bound for x in numeric_zeros(poly).roots)


# ---------------------------------------------------------------- extrema

def test_extrema_endpoints_and_counts():
    for n in range(3, 13):
        points = extrema(n)
        assert points[0] == (0.0, 1.0)
        assert points[-1] == (math.pi, -1.0)
        assert len(points) == n + 1
        thetas = [t for t, _ in points]
        assert thetas == sorted(thetas)


def test_extrema_of_cubic_at_inverse_sqrt3():
    interior = [x for t, x in extrema(3) if 0.0 < t < math.pi]
    assert len(interior) == 2
    assert interior[0] == pytest.approx(1 / math.sqrt(3), abs=1e-10)
    assert interior[1] == pytest.approx(-1 / math.sqrt(3), abs=1e-10)


def test_extrema_even_row_passes_through_origin():
    interior = [(t, x) for t, x in extrema(4) if 0.0 < t < math.pi]
    middle = interior[len(interior) // 2]
    assert middle == (math.pi / 2, 0.0)


@pytest.fixture(scope="module")
def extrema_to_60():
    return {n: extrema(n) for n in range(3, 61)}


def test_extrema_match_frozen_theta_route(extrema_to_60):
    # The (theta, x) pairs the tangent-equation bracketing route gave
    # before the Sturm route replaced it.
    lines = FROZEN_EXTREMA.read_text(encoding="utf-8").splitlines()[1:]
    got = [f"{n} {t!r} {x!r}" for n, points in extrema_to_60.items()
           for t, x in points]
    assert got == lines


def test_root_documents_match_golden_digests(capsys):
    """zeros --method numeric and extrema documents, byte for byte, as
    the full-length Horner evaluation wrote them."""
    lines = ROOT_DIGESTS.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == 5
    for line in lines:
        command, m, p, n, want = line.split()
        argv = ["extrema", "--n", n] if command == "extrema" else \
            ["zeros", "--method", "numeric", "--m", m, "--p", p, "--n", n]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, line


def test_extrema_satisfy_tangent_equation(extrema_to_60):
    # The paper's (n-1) tan t + tan((n-1) t) = 0, times cos t cos((n-1) t)
    # to clear the poles: a route independent of the roots of P_n'.
    for n, points in extrema_to_60.items():
        for theta, _ in points[1:-1]:
            residual = (n - 1) * math.sin(theta) * math.cos((n - 1) * theta) \
                + math.cos(theta) * math.sin((n - 1) * theta)
            assert abs(residual) <= (n - 1) * 1e-12, (n, theta)


def test_extrema_match_sturm_isolation(extrema_to_60):
    # Rolle brackets and exact Newton against the Sturm route, which
    # knows nothing of the closed-form zeros: float for float.
    for n in range(3, 31):
        sturm = numeric_zeros(build_definitional(n, P_FAMILY).derivative())
        interior = [x for _, x in extrema_to_60[n][1:-1]]
        assert interior == list(reversed(sturm.roots)), n


def test_extrema_match_reference_bisection(extrema_to_60):
    # The Rolle brackets bisected without the shared refiner.
    for n in (3, 4, 7, 12, 25):
        dp = build_definitional(n, P_FAMILY).derivative()
        zs = closed_form_zeros(n).roots
        want = [_bisect_reference(dp, lo, hi) for lo, hi in zip(zs, zs[1:])]
        interior = [x for _, x in extrema_to_60[n][1:-1]]
        assert interior == want[::-1], n


@pytest.mark.parametrize("corrupt", [
    lambda xs: xs[1:],
    lambda xs: (1.5,) + xs[1:],
    lambda xs: xs[:2] + (xs[3] - 1e-9,) + xs[3:],
], ids=["root-dropped", "root-outside", "no-sign-change"])
def test_extrema_certificate_rejects_wrong_root_sets(monkeypatch, corrupt):
    closed = analysis.closed_form_zeros

    def corrupted(n):
        rs = closed(n)
        return dataclasses.replace(rs, roots=corrupt(rs.roots))

    monkeypatch.setattr(analysis, "closed_form_zeros", corrupted)
    with pytest.raises(ConvergenceError):
        extrema(7)


def test_extrema_require_n3():
    with pytest.raises(InvalidConfigError):
        extrema(2)


# ----------------------------------------------------------------- bounds

def test_unit_circle_bound_sampled():
    # A route apart from the identity: 2000 exact samples of each row.
    grid = [-1.0 + 2.0 * i / 1999 for i in range(2000)]
    for n in (3, 4, 7, 12, 20):
        poly = build_definitional(n, P_FAMILY)
        worst = max(evaluate_exact_at_float(poly, x) ** 2 + Fraction(x) ** 2
                    for x in grid)
        assert worst == 1  # attained at x = -1 and 1, where P_n vanishes
        assert bound_check(n) == 1.0


def test_unit_bound_residual_vanishes_on_package_rows():
    for n in range(3, 201):
        residual = unit_bound_residual(build_definitional(n, P_FAMILY),
                                       build_definitional(n - 1, T_FAMILY))
        assert residual.is_zero(), n


def test_unit_bound_residual_catches_wrong_rows():
    for n in (3, 8, 15):
        p = build_definitional(n, P_FAMILY)
        t = build_definitional(n - 1, T_FAMILY)
        for k in range(n + 1):
            off = list(p.coeffs)
            off[k] += 1
            assert not unit_bound_residual(IntPolynomial(off), t).is_zero()
        wrong_t = build_definitional(n, T_FAMILY)
        assert not unit_bound_residual(p, wrong_t).is_zero()


def test_monic_sup_norm_sandwich():
    # Within a factor two of the Chebyshev minimum, but never below it.
    for n in (3, 4, 5, 9, 14, 20):
        sup = monic_sup_norm(n)
        assert sup <= 2.0 ** (2 - n) + 1e-12
        assert sup >= 2.0 ** (1 - n) - 1e-12


def test_bounds_require_n3():
    with pytest.raises(InvalidConfigError):
        bound_check(2)
    with pytest.raises(InvalidConfigError):
        monic_sup_norm(2)
