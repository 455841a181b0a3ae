"""Evaluation and real analysis of the (2, 2) family rows.

The degree-n row P_n of the (2, 2) family satisfies, for n >= 3,

    P_n(cos t) = -sin t * sin((n-1) t),

that is, P_n = (x^2 - 1) U_(n-2) as integer polynomials.  It gives
closed-form zeros {-1, 1} and cos(k pi / (n-1)), the bound
P_n(x)^2 + x^2 <= 1 on [-1, 1], and a monic sup norm within a factor two
of the Chebyshev minimum.  The bound is proved exactly, as an integer
polynomial identity that follows from the Pell identity for Chebyshev
T and U (see bound_check).  Real roots of any row are isolated exactly
by Sturm sequences over the integers (see numeric_zeros), and the
closed-form zeros are checked against them.  The extrema are the roots
of P_n', one between each pair of consecutive zeros by Rolle's theorem:
exact signs at the zeros certify the brackets (see extrema).  Both
routes refine each bracketed root by one exact safeguarded Newton
(see _refine).  The sup norm is evaluated exactly at the extrema.

Floating Horner is useless at the tolerances involved (coefficient sums
reach 1e7 by degree 25, so plain double evaluation carries ~1e-9 noise).
Every numeric check therefore evaluates rows exactly at the float point:
a double is a dyadic rational num/2^s, so the Horner recurrence can be
run in integer arithmetic and the sign or value read off exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConvergenceError, InvalidConfigError
from .polyfamily import (Family, IntPolynomial, P_FAMILY, T_FAMILY,
                         build_definitional)


def evaluate(poly: IntPolynomial, x):
    """Horner evaluation for exact input (int or Fraction)."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def _eval_ratio(poly: IntPolynomial, x: float) -> tuple[int, int]:
    """Exact value of poly at the float x, as an unreduced (num, den) pair.

    x = xn/2^s, so with H_j = 2^(s(deg-j)) times the Horner partial,
    everything stays in integers and den = 2^(s deg).  The sign of the
    returned numerator is the exact sign of poly(x).

    A polynomial with powers of one parity only (every family row, its
    derivative and its Sturm chain) is x^e Q(x^2), so Horner runs on
    y = xn^2 over 2^(2s) in half the steps and skips the zero
    coefficients; the numerator is the same integer either way.
    """
    if poly.is_zero():
        return 0, 1
    xn, xd = float(x).as_integer_ratio()
    s = xd.bit_length() - 1
    c = poly.coeffs
    deg = len(c) - 1
    e = deg % 2
    if any(c[1 - e::2]):            # mixed powers: Horner in x
        e, y, step = 0, xn, s
    else:                           # x^e Q(x^2): Horner in x^2
        c, y, step = c[e::2], xn * xn, 2 * s
    acc = shift = 0
    for q in reversed(c):
        acc = acc * y + (q << shift)
        shift += step
    return (acc * xn if e else acc), 1 << (s * deg)


def evaluate_exact_at_float(poly: IntPolynomial, x: float) -> Fraction:
    num, den = _eval_ratio(poly, x)
    return Fraction(num, den)


def _exact_sign(poly: IntPolynomial, x: float) -> int:
    num, _ = _eval_ratio(poly, x)
    return (num > 0) - (num < 0)


def trig_form_residual(n: int, theta: float) -> float:
    """P_n(cos theta) + sin(theta) sin((n-1) theta), zero for n >= 3.

    The row is evaluated exactly at the rounded cos theta, so the
    residual carries only the O(n^2 eps) sensitivity of the closed form,
    not the catastrophic cancellation of double Horner.
    """
    if n < 3:
        raise InvalidConfigError("trig closed form holds for n >= 3")
    num, den = _eval_ratio(build_definitional(n, P_FAMILY), math.cos(theta))
    # int true division rounds correctly, so this equals float(Fraction).
    return num / den + math.sin(theta) * math.sin((n - 1) * theta)


@dataclass(frozen=True)
class RootSet:
    """Real roots with multiplicities, ascending."""

    roots: tuple[float, ...]
    multiplicities: tuple[int, ...]

    @property
    def count(self) -> int:
        return sum(self.multiplicities)


def closed_form_zeros(n: int) -> RootSet:
    """The zeros {-1, 1} and cos(k pi/(n-1)), k = 1..n-2, of P_n, n >= 3.

    Mirror symmetry is built in exactly: the upper half is computed and
    negated for the lower half, and the middle zero is literal 0.0.
    """
    if n < 3:
        raise InvalidConfigError("closed-form zeros hold for n >= 3")
    xs = [-1.0, 1.0]
    for k in range(1, n - 1):
        if 2 * k == n - 1:
            xs.append(0.0)
        elif 2 * k < n - 1:
            xs.append(math.cos(k * math.pi / (n - 1)))
        else:
            xs.append(-math.cos((n - 1 - k) * math.pi / (n - 1)))
    xs.sort()
    return RootSet(tuple(xs), (1,) * n)


def _primitive(poly: IntPolynomial) -> IntPolynomial:
    """poly divided by the positive gcd of its coefficients."""
    g = math.gcd(*poly.coeffs)
    return IntPolynomial([c // g for c in poly.coeffs]) if g > 1 else poly


def _divide(a: IntPolynomial, b: IntPolynomial, scale: int = 1) -> tuple:
    """Quotient and remainder of scale^e * a by b, e = deg a - deg b + 1.

    scale = 1 divides exactly by a primitive factor b of a (Gauss's lemma);
    scale = |lead b| > 0 pseudo-divides and keeps the signs of a Sturm chain.
    """
    r, q, lead = list(a.coeffs), [], b.coeffs[-1]
    for s in range(len(r) - len(b.coeffs), -1, -1):
        c = scale * r[-1] // lead
        q = [scale * x for x in q] + [c]
        r = [scale * x - (c * b.coeffs[i - s] if i >= s else 0)
             for i, x in enumerate(r[:-1])]
    return IntPolynomial(q[::-1]), IntPolynomial(r)


def _sturm_chain(p: IntPolynomial) -> list[IntPolynomial]:
    """p, p' and the negated primitive pseudo-remainders down to gcd(p, p')."""
    chain = [p, _primitive(p.derivative())]
    while chain[-1].degree > 0:
        rem = _divide(chain[-2], chain[-1], abs(chain[-1].coeffs[-1]))[1]
        if rem.is_zero():
            break
        chain.append(-_primitive(rem))
    return chain


def _refine(f: IntPolynomial, df: IntPolynomial, lo: float, hi: float,
            slo: int) -> float:
    """The one simple root of f in (lo, hi), to float resolution, where f
    has the exact sign slo just right of lo and -slo at hi.

    Safeguarded Newton (rtsafe) from the bracket midpoint, with f and f'
    evaluated exactly: the sign of f at each iterate shrinks the bracket,
    a step that fails or leaves the bracket falls back to its midpoint,
    and a step that rounds to no move goes one float toward the root.  A
    root that is a float is returned exactly; otherwise the bracket
    closes on the two floats around the root and the result is
    0.5 * (lo + hi), whichever path led there.  f is never evaluated at
    lo, which may be a neighbouring root.
    """
    x = 0.5 * (lo + hi)
    while True:
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                return x
        num, den = _eval_ratio(f, x)
        if not num:
            return x
        if (num > 0) == (slo > 0):
            lo, toward = x, hi
        else:
            hi, toward = x, lo
        dnum, dden = _eval_ratio(df, x)
        try:
            newton = x - num * dden / (den * dnum)
        except (ZeroDivisionError, OverflowError):
            newton = math.nan
        x = math.nextafter(x, toward) if newton == x else newton


def _root_bound_exponent(p: IntPolynomial) -> int:
    """The least k >= 1 with 2^((k-1) i) |c_n| > |c_(n-i)| for every i.

    Then 2^k exceeds Fujiwara's bound 2 max_i |c_(n-i) / c_n|^(1/i), so
    every root of p lies strictly inside (-2^k, 2^k).  For integers,
    2^t |c_n| > |c| exactly when t >= (|c| // |c_n|).bit_length().
    """
    *rest, lead = map(abs, p.coeffs)
    return 1 + max((((c // lead).bit_length() + i - 1) // i
                    for i, c in enumerate(reversed(rest), 1)), default=0)


def _real_roots(p: IntPolynomial) -> dict[float, int]:
    """Real roots of p (degree >= 1) with their multiplicities.

    Sturm's theorem on the square-free part q = p / gcd(p, p'): with V(x)
    the sign variations of q's chain at x, exactly V(lo) - V(hi) roots of
    q lie in (lo, hi].  Halving dyadic intervals from the power-of-two
    Fujiwara bound isolates each root, and _refine takes it to float
    resolution, with the sign read at hi since lo may be a neighbouring
    root.  A root's multiplicity is one more than in the gcd.
    """
    chain = _sturm_chain(p)
    g, q = chain[-1], p
    if g.degree > 0:
        q = _divide(p, g)[0]
        chain = _sturm_chain(q)
    dq = q.derivative()
    k = _root_bound_exponent(q)
    if k > 1023:
        raise ConvergenceError(f"root bound 2^{k} is beyond float range")

    def variations(x: float) -> int:
        signs = [s for s in (_exact_sign(c, x) for c in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = math.ldexp(1.0, k)
    todo = [(-bound, bound, variations(-bound), variations(bound))]
    roots, distinct = {}, todo[0][2] - todo[0][3]
    while todo:
        lo, hi, vlo, vhi = todo.pop()
        mid = 0.5 * (lo + hi)
        if vlo - vhi == 1:
            shi = _exact_sign(q, hi)
            roots[_refine(q, dq, lo, hi, -shi) if shi else hi] = 1
        elif vlo > vhi and lo < mid < hi:
            vmid = variations(mid)
            todo += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    if len(roots) != distinct:
        raise ConvergenceError(f"{distinct} distinct roots, some closer "
                               f"than one float: {sorted(roots)}")
    for x, extra in (_real_roots(g).items() if g.degree > 0 else ()):
        roots[x] += extra
    return roots


# Sturm isolation of a (2, 2) row takes about 1 s at degree 200 and extrema
# at n = 200 about 0.9 s (CLI); the Sturm cost grows faster than the
# square of the degree, and the row limit alone would admit degree 1000.
MAX_ROOT_DEGREE = 200


def numeric_zeros(poly: IntPolynomial, family: Family | None = None) -> RootSet:
    """All real roots of poly with multiplicities, by exact Sturm isolation.

    One route for every family, in integer arithmetic (see _real_roots):
    no sampling grid and no tolerance, so a multiple root is one entry
    with its multiplicity.  For the (2, 2) family, a root count short of
    the degree is a ConvergenceError, since all its roots are real.
    """
    if poly.is_zero():
        raise InvalidConfigError("zero polynomial has no root set")
    if poly.degree > MAX_ROOT_DEGREE:
        raise InvalidConfigError(f"degree {poly.degree} above the "
                                 f"root-finding limit {MAX_ROOT_DEGREE}")
    roots = sorted(_real_roots(poly).items()) if poly.degree > 0 else []
    xs, ks = tuple(zip(*roots)) or ((), ())
    if family == P_FAMILY and sum(ks) != poly.degree:
        raise ConvergenceError(
            f"found {sum(ks)} of {poly.degree} roots: {list(xs)}")
    return RootSet(xs, ks)


def extrema(n: int) -> list[tuple[float, float]]:
    """Extreme points of P_n on [-1, 1] as (theta, x = cos theta) pairs.

    The endpoints theta = 0, pi are always extreme points; the interior
    ones are the roots of P_n', which Rolle's theorem places between
    consecutive closed-form zeros of P_n.  The exact sign of P_n' at the
    n zeros must change strictly across each of the n - 1 brackets: that
    accounts for all n - 1 roots of the degree-(n - 1) polynomial, one
    per bracket, so every critical point is found.  A bracket without a
    sign change, or a zero set that is not n ascending points of
    [-1, 1], raises ConvergenceError.  Each root is refined by _refine,
    as the Sturm route refines its roots; the points run by theta = acos(x).
    """
    if n < 3:
        raise InvalidConfigError("extrema characterized for n >= 3")
    if n - 1 > MAX_ROOT_DEGREE:
        raise InvalidConfigError(f"degree {n - 1} above the root-finding "
                                 f"limit {MAX_ROOT_DEGREE}")
    dp = build_definitional(n, P_FAMILY).derivative()
    ddp = dp.derivative()
    zs = closed_form_zeros(n).roots
    signs = [_exact_sign(dp, z) for z in zs]
    brackets = list(zip(zs, zs[1:], signs, signs[1:]))
    if len(zs) != n or not all(-1.0 <= lo < hi <= 1.0 and slo * shi < 0
                               for lo, hi, slo, shi in brackets):
        raise ConvergenceError(f"P_n' does not change sign between each "
                               f"pair of the {n} zeros {list(zs)}")
    roots = [_refine(dp, ddp, lo, hi, slo) for lo, hi, slo, _ in brackets]
    interior = [(math.acos(x), x) for x in reversed(roots)]
    return [(0.0, 1.0)] + interior + [(math.pi, -1.0)]


_ONE_MINUS_X2 = IntPolynomial((1, 0, -1))


def unit_bound_residual(p: IntPolynomial, t: IntPolynomial) -> IntPolynomial:
    """(1 - x^2 - p^2) - (1 - x^2) t^2, zero for p = P_n and t = T_(n-1).

    With P_n = -(1 - x^2) U_(n-2), the Pell identity
    T_(n-1)^2 - (x^2 - 1) U_(n-2)^2 = 1 makes this the zero polynomial.
    """
    return _ONE_MINUS_X2 - p * p - _ONE_MINUS_X2 * (t * t)


def bound_check(n: int) -> float:
    """Max of P_n(x)^2 + x^2 on [-1, 1], certified by the Pell identity.

    When unit_bound_residual vanishes for the package's own P_n and
    T_(n-1) rows, 1 - x^2 - P_n^2 = (1 - x^2) T_(n-1)^2 is >= 0 on
    [-1, 1] and zero at x = +-1, so the maximum is exactly 1.0.  Any
    nonzero residual leaves the bound unproven and gives math.inf.
    """
    if n < 3:
        raise InvalidConfigError("the unit bound is asserted for n >= 3")
    residual = unit_bound_residual(build_definitional(n, P_FAMILY),
                                   build_definitional(n - 1, T_FAMILY))
    return 1.0 if residual.is_zero() else math.inf


def monic_sup_norm(n: int) -> float:
    """Sup of |P_n|/2^(n-2) on [-1, 1], evaluated exactly at the extrema.

    The sup of a polynomial on an interval sits at a critical point or an
    endpoint, and extrema returns both endpoints and all n - 1 critical
    points of P_n or raises, so no other candidate is needed.
    """
    if n < 3:
        raise InvalidConfigError("monic scaling defined for n >= 3")
    poly = build_definitional(n, P_FAMILY)
    best = max(abs(evaluate_exact_at_float(poly, x)) for _, x in extrema(n))
    return float(best / 2 ** (n - 2))
