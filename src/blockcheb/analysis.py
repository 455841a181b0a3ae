"""Evaluation and real analysis of the (2, 2) family rows.

The degree-n row P_n of the (2, 2) family satisfies, for n >= 3,

    P_n(cos t) = -sin t * sin((n-1) t),

which gives closed-form zeros {-1, 1} and cos(k pi / (n-1)), the bound
P_n(x)^2 + x^2 <= 1 on [-1, 1], and a monic sup norm within a factor two
of the Chebyshev minimum.  The bound is proved exactly, as an integer
polynomial identity that follows from the Pell identity for Chebyshev
T and U (see bound_check); the zeros, extrema and sup norm are checked
numerically.

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

import numpy as np

from .errors import ConvergenceError, InvalidConfigError
from .polyfamily import (Family, IntPolynomial, P_FAMILY, T_FAMILY,
                         build_definitional)


def evaluate(poly: IntPolynomial, x):
    """Horner evaluation; exact for int/Fraction input, double for float."""
    acc = 0 if not isinstance(x, float) else 0.0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def _eval_ratio(poly: IntPolynomial, x: float) -> tuple[int, int]:
    """Exact value of poly at the float x, as an unreduced (num, den) pair.

    x = num/den with den a power of two, so with H_j = den^(deg-j) times
    the Horner partial, everything stays in integers.  The sign of the
    returned numerator is the exact sign of poly(x).
    """
    if poly.is_zero():
        return 0, 1
    xn, xd = float(x).as_integer_ratio()
    acc = 0
    dpow = 1
    for c in reversed(poly.coeffs):
        acc = acc * xn + c * dpow
        dpow *= xd
    return acc, dpow // xd


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
    """Real roots with multiplicities, ascending; n/family when known."""

    n: int | None
    family: Family | None
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
    return RootSet(n, P_FAMILY, tuple(xs), (1,) * n)


def _bisect_exact(poly: IntPolynomial, lo: float, hi: float) -> float:
    """Shrink a sign-change bracket of poly to float resolution."""
    slo = _exact_sign(poly, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        smid = _exact_sign(poly, mid)
        if smid == 0:
            return mid
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def numeric_zeros(poly: IntPolynomial, family: Family | None = None) -> RootSet:
    """All real roots of poly via exact-sign grid bisection.

    Roots at 0 are split off symbolically first (that is the only
    multiple root in this corpus).  The scan interval is the tight
    [-1-1e-6, 1+1e-6] for the (2,2) family, whose roots are known to lie
    in [-1, 1]; otherwise the Cauchy bound 1 + max|c_k/c_deg|.  A
    companion-matrix pass (numpy.roots) backstops roots the grid might
    straddle without a sign change.
    """
    if poly.is_zero():
        raise InvalidConfigError("zero polynomial has no root set")
    deg = poly.degree
    if deg == 0:
        return RootSet(None, family, (), ())

    shift = 0
    while poly.coeff(shift) == 0:
        shift += 1
    base = IntPolynomial(poly.coeffs[shift:])

    found: list[float] = []
    if base.degree > 0:
        if family is not None and family == P_FAMILY:
            lo, hi = -1.0 - 1e-6, 1.0 + 1e-6
        else:
            lead = base.coeffs[-1]
            bound = 1.0 + max(abs(c) / abs(lead) for c in base.coeffs)
            lo, hi = -bound, bound
        grid = np.linspace(lo, hi, max(1025, 128 * base.degree + 1))
        signs = [_exact_sign(base, float(g)) for g in grid]
        for i in range(len(grid) - 1):
            if signs[i] == 0:
                found.append(float(grid[i]))
            elif signs[i] * signs[i + 1] < 0:
                found.append(_bisect_exact(base, float(grid[i]), float(grid[i + 1])))
        if signs[-1] == 0:
            found.append(float(grid[-1]))

        companion = np.roots(list(reversed(base.coeffs)))
        for r in companion:
            if abs(r.imag) > 1e-8:
                continue
            xr = float(r.real)
            if any(abs(xr - f) <= 1e-7 * max(1.0, abs(f)) for f in found):
                continue
            eps = 1e-9 * max(1.0, abs(xr))
            a, b = xr - eps, xr + eps
            for _ in range(12):
                if _exact_sign(base, a) * _exact_sign(base, b) <= 0:
                    found.append(_bisect_exact(base, a, b))
                    break
                eps *= 4.0
                a, b = xr - eps, xr + eps
            else:
                found.append(xr)

    roots: list[tuple[float, int]] = [(f, 1) for f in found]
    if shift:
        roots.append((0.0, shift))
    roots.sort()

    if family is not None and family == P_FAMILY and sum(m for _, m in roots) != deg:
        raise ConvergenceError(
            f"found {sum(m for _, m in roots)} of {deg} roots: "
            f"{[r for r, _ in roots]}")
    return RootSet(None, family,
                   tuple(r for r, _ in roots), tuple(m for _, m in roots))


def _h(n: int, theta: float) -> float:
    """Pole-free form of the extremum equation (n-1)tan t + tan((n-1)t).

    Multiplying through by cos t cos((n-1)t) gives a continuous function
    with the same interior zeros plus the tan poles turned into sign
    anchors.
    """
    return (n - 1) * math.sin(theta) * math.cos((n - 1) * theta) + \
        math.cos(theta) * math.sin((n - 1) * theta)


def _refine_derivative_root(dpoly: IntPolynomial, x: float) -> float:
    """Tighten x to the nearest sign change of dpoly, exact arithmetic."""
    eps = 1e-9 * max(1.0, abs(x))
    for _ in range(14):
        a, b = x - eps, x + eps
        sa, sb = _exact_sign(dpoly, a), _exact_sign(dpoly, b)
        if sa == 0:
            return a
        if sb == 0:
            return b
        if sa * sb < 0:
            return _bisect_exact(dpoly, a, b)
        eps *= 4.0
    return x


def extrema(n: int) -> list[tuple[float, float]]:
    """Extreme points of P_n on [-1, 1] as (theta, x = cos theta) pairs.

    The endpoints theta = 0, pi are always extreme points.  Interior
    extrema solve (n-1)tan(t) + tan((n-1)t) = 0; its continuous form _h
    changes sign between consecutive poles (2j+1)pi/(2(n-1)) of the
    second tangent, with pi/2 added as an extra anchor (for even n the
    pole at pi/2 is itself the root t = pi/2, x = 0).  Each bracketed
    root is bisected in theta, then the x value is polished against the
    exact derivative sign.  Exactly n-1 interior extrema must emerge.
    """
    if n < 3:
        raise InvalidConfigError("extrema characterized for n >= 3")
    dpoly = build_definitional(n, P_FAMILY).derivative()

    anchors = [(2 * j + 1) * math.pi / (2 * (n - 1)) for j in range(n - 1)]
    if n % 2:
        # For odd n the pi/2 sign anchor splits the middle pole gap,
        # which carries two roots; for even n pi/2 is already a pole.
        anchors = sorted(anchors + [math.pi / 2])
    # An anchor where _h itself vanishes (pi/2 for even n, where the pole
    # coincides with the extremum x = 0) is a root in its own right; the
    # sign scan then needs probes just inside its two neighbor segments.
    tiny = 1e-9 * n
    gap = math.pi / (n - 1)
    probes: list[tuple[float, float | None]] = []
    for a in anchors:
        ha = _h(n, a)
        if abs(ha) < tiny:
            probes.append((a - gap / 8, None))
            probes.append((a, 0.0))
            probes.append((a + gap / 8, None))
        else:
            probes.append((a, ha))
    probes = sorted((t, _h(n, t) if v is None else v) for t, v in probes)

    interior: list[tuple[float, float]] = []
    for i, (theta, value) in enumerate(probes):
        if value == 0.0:
            interior.append((math.pi / 2, 0.0))
            continue
        if i == 0:
            continue
        prev_theta, prev_value = probes[i - 1]
        if prev_value == 0.0 or prev_value * value > 0:
            continue
        lo, hi = prev_theta, theta
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if _h(n, mid) * prev_value > 0:
                lo = mid
            else:
                hi = mid
        root_theta = 0.5 * (lo + hi)
        x = _refine_derivative_root(dpoly, math.cos(root_theta))
        interior.append((math.acos(max(-1.0, min(1.0, x))), x))

    interior.sort()
    if len(interior) != n - 1:
        raise ConvergenceError(
            f"expected {n - 1} interior extrema, found {len(interior)}: "
            f"{[t for t, _ in interior]}")
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
    """Sup of |P_n|/2^(n-2) on [-1, 1], certified at the extrema.

    The sup of a polynomial on an interval sits at a critical point or
    an endpoint; P_n vanishes at both endpoints for n >= 3, so the
    extrema list plus a coarse float grid (exact-checked at its argmax)
    covers it.
    """
    if n < 3:
        raise InvalidConfigError("monic scaling defined for n >= 3")
    poly = build_definitional(n, P_FAMILY)
    candidates = {x for _, x in extrema(n)}
    grid = np.linspace(-1.0, 1.0, 2001)
    coarse = [abs(evaluate(poly, float(g))) for g in grid]
    candidates.add(float(grid[int(np.argmax(coarse))]))
    best = Fraction(0)
    for x in candidates:
        val = abs(evaluate_exact_at_float(poly, x))
        if val > best:
            best = val
    return float(best / 2 ** (n - 2))
