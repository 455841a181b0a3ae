"""Weighted inner products of family rows over [-1, 1], exact and float.

Every integral here is of the form

    I(n, m) = integral_{-1}^{1} P_n(x) P_m(x) (1 - x^2)^(q/2) dx

with half-exponent q >= -1.  The exact route stays in x and pairs the
integer rows with the Beta moments M_2j = integral x^(2j) (1 - x^2)^(q/2)
dx, which are rational multiples of pi for odd q and rationals for even q
(Wallis), written as integer numerators N_j over one common
denominator D.  A Gram block builds each of its rows c = P_n one moment
vector v[i] = sum_j c[j] N_((i+j)/2) over even i + j (a Hankel moment
matrix times the row; Gautschi, *Orthogonal Polynomials: Computation and
Approximation*, ch. 2), from its own len(c) moments, so an entry is the
shorter row dotted with the longer row's vector over that vector's D:
one short integer dot product, reduced by one gcd, and one Fraction for
each distinct value.  Odd powers of x integrate to 0 against the even
weight.  The rows come from their integer coefficients, never from their
trigonometric closed form, so those identities stay independent test
targets.

The numeric backend is one Gauss rule in x per Gram block, exact for
every pair of its rows (Golub & Welsch 1969).  Odd q splits the weight
as (1 - x^2)^(-1/2) (1 - x^2)^((q+1)/2) and runs Gauss-Chebyshev of the
first kind on the polynomial part (Mason & Handscomb, *Chebyshev
Polynomials*); even q runs Gauss-Legendre on the whole polynomial.
Each row is summed once at the nodes in extended precision, apart from
the moment route: the integer row is converted exactly to the
Chebyshev-T basis and summed by Clenshaw's recurrence (Clenshaw 1955).
Monomial Horner would not do: the coefficients of the (2, 2) rows cancel
on [-1, 1], and at row 60 longdouble Horner misses by about 1e4.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add, mul
from typing import TYPE_CHECKING

from .errors import InvalidConfigError
from .exact import PiRational
from .polyfamily import Family, check_row, triangle

if TYPE_CHECKING:  # the numeric route imports numpy where it runs
    import numpy as np


# A bound on outside input: q sets the size of every moment and the Gauss
# node count, and 200 lies far beyond the weights the paper discusses.
MAX_HALF_EXPONENT = 200

# A Gram range to row N holds about N^2/2 inner products of degree up to
# 2N; 3..60 of the (2, 2) rows takes 9-24 ms exact-only in process (q from
# -1 to 200) and 46 ms with the numeric column at q = 200 (CPython 3.11,
# x86-64, on a shared machine).
MAX_GRAM_ROW = 60


@dataclass(frozen=True)
class Weight:
    """The weight (1 - x^2)^(q/2) on [-1, 1], by its half-exponent q."""

    half_exponent: int

    def __post_init__(self):
        if self.half_exponent < -1:
            raise InvalidConfigError(
                "weight (1-x^2)^(q/2) is integrable on [-1,1] only for q >= -1")
        if self.half_exponent > MAX_HALF_EXPONENT:
            raise InvalidConfigError(
                f"weight q={self.half_exponent} above the weight limit "
                f"{MAX_HALF_EXPONENT}")

    def __str__(self) -> str:
        return f"(1-x^2)^({self.half_exponent}/2)"


def _integer_moments(q: int, count: int) -> tuple[tuple[int, ...], int]:
    """The Beta moments M_0, M_2, ..., M_(2 count - 2) of the weight
    (1 - x^2)^(q/2), M_2j = integral of x^(2j) (1 - x^2)^(q/2) over
    [-1, 1] in units of pi for odd q, as integer numerators N_j over one
    denominator D.

    M_0 = t/b with t/b = q!!/(q+1)!! for odd q and 2 (q!!/(q+1)!!) for
    even q (Wallis), and M_(2j+2) = M_2j (2j+1)/(2j+q+3).  With
    A_j = prod_{i<j} (2i+1) and S_j = prod_{j<=i<count-1} (2i+q+3), that
    gives M_2j = t A_j S_j / (b S_0): N_j = t A_j S_j and D = b S_0 come
    from running products, with no gcd per term.
    """
    top, bottom = (1 if q % 2 else 2), 1
    for k in range(q, 0, -2):
        top, bottom = top * k, bottom * (k + 1)
    suffix = [1] * count
    for j in range(count - 2, -1, -1):
        suffix[j] = suffix[j + 1] * (2 * j + q + 3)
    numerators = []
    for j in range(count):
        numerators.append(top * suffix[j])
        top *= 2 * j + 1
    return tuple(numerators), bottom * suffix[0]


def exact_gram(rows, family: Family, weight: Weight) -> list[list[PiRational]]:
    """The exact Gram block of rows, in their order: each distinct row c
    gets one vector v[i] = sum_j c[j] N_((i+j)/2) over even i + j with the
    D of its own len(c) moments, and each unordered pair is the shorter
    row dotted with the longer row's vector over that vector's D.

    Equal entries are one object: the weighted rows are nearly orthogonal,
    so a block holds few distinct values (3 of the 351 entries of the
    (2, 2) rows 3..28 at q = -1), and each is built once."""
    q = weight.half_exponent
    built = []
    for n in sorted(set(rows)):
        row = triangle(family).row(n)
        numerators, denominator = _integer_moments(q, len(row))
        built.append((n, row, denominator, [
            sum(map(mul, row[i % 2::2], numerators[(i + 1) // 2:]))
            for i in range(len(row))]))
    values, interned = {}, {}
    for a, (n, row, _, _) in enumerate(built):
        for m, _, denominator, vector in built[a:]:
            dot = sum(map(mul, row, vector))
            common = gcd(dot, denominator)  # denominator > 0
            key = dot // common, denominator // common
            value = interned.get(key)
            if value is None:
                total = Fraction(*key)
                value = interned[key] = PiRational(total, Fraction(0)) \
                    if q % 2 else PiRational(Fraction(0), total)
            values[n, m] = values[m, n] = value
    return [[values[n, m] for m in rows] for n in rows]


def inner_product_exact(n: int, m: int, family: Family, weight: Weight) -> PiRational:
    return exact_gram((n, m), family, weight)[0][1]


def _chebyshev_row(row: tuple[int, ...]) -> np.ndarray:
    """The integer row as its coefficients a_t in the Chebyshev-T basis.

    2^k x^k = sum_j C(k, j) T_|k-2j| converts the integer row exactly
    into 2^d a_t, d its degree; only the final a_t are rounded, each
    2^d a_t cut to its top 63 bits, which extended precision holds.
    """
    import numpy as np
    d = len(row) - 1
    scaled, binom = [0] * (d + 1), [1]
    for k, c in enumerate(row):
        if c:
            c <<= d - k
            for j, b in enumerate(binom):
                scaled[abs(k - 2 * j)] += c * b
        binom = [1, *map(add, binom, binom[1:]), 1]
    shifts = [max(abs(a).bit_length() - 63, 0) for a in scaled]
    tops = np.array([a >> s for a, s in zip(scaled, shifts)],
                    dtype=np.longdouble)
    return np.ldexp(tops, np.array(shifts) - d)


def _clenshaw(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_t coeffs[t] T_t(x) by Clenshaw's recurrence."""
    import numpy as np
    b1 = b2 = np.zeros_like(x)
    two_x = 2 * x
    for c in coeffs[:0:-1]:
        b1, b2 = two_x * b1 - b2 + c, b1
    return x * b1 - b2 + coeffs[0]


def quadrature_nodes(n: int, m: int, weight: Weight) -> int:
    """Gauss nodes that integrate one inner product exactly.

    N nodes are exact to degree 2N - 1; the polynomial part has degree
    n + m + q + 1 for odd q and n + m + q for even q.
    """
    return (n + m + weight.half_exponent) // 2 + 2


# Name the benchmark tracer hooks; removed when ROADMAP item 1 re-points it.
trapezoid_nodes = quadrature_nodes


def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights in extended precision,
    by Newton's method on the Legendre three-term recurrence."""
    import numpy as np
    k = np.arange(count, 0, -1, dtype=np.longdouble)
    x = np.cos(np.arccos(np.longdouble(-1.0)) * (k - 0.25) / (count + 0.5))
    for _ in range(100):
        prev, cur = np.ones_like(x), x
        for j in range(2, count + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
        slope = count * (x * cur - prev) / (x * x - 1)
        step = cur / slope
        x = x - step
        if np.max(np.abs(step)) <= 4 * np.finfo(x.dtype).eps:
            break
    return x, 2 / ((1 - x * x) * slope * slope)


def numeric_gram(rows, family: Family, weight: Weight) -> np.ndarray:
    """The Gram block of rows in longdouble, (V * w (1-x^2)^((q+1)//2)) @ V^T
    with V the rows at one rule's nodes: N Gauss nodes are exact to degree
    2N - 1, so a rule sized for the largest row serves every pair.

    The product runs silent on overflow: an entry past the longdouble range
    only arises beside exact entries past the double range, which the gram
    command refuses with its one error line."""
    import numpy as np
    top = max(rows)
    count = quadrature_nodes(top, top, weight)
    q = weight.half_exponent
    if q % 2:
        k = np.arange(1, count + 1, dtype=np.longdouble)
        pi = np.arccos(np.longdouble(-1.0))
        x, w = np.cos((2 * k - 1) * pi / (2 * count)), pi / count
    else:
        x, w = _gauss_legendre(count)
    v = np.array([_clenshaw(_chebyshev_row(triangle(family).row(n)), x)
                  for n in rows])
    with np.errstate(over="ignore", invalid="ignore"):
        return (v * (w * (1 - x * x) ** ((q + 1) // 2))) @ v.T


def inner_product_numeric(n: int, m: int, family: Family, weight: Weight) -> float:
    return float(numeric_gram((n, m), family, weight)[0, 1])


@dataclass(frozen=True)
class GramEntry:
    n: int
    m: int
    exact: PiRational
    numeric: float | None


@dataclass(frozen=True)
class BandPattern:
    """What one |n - m| band of a Gram matrix looks like.

    value is the band's common entry when uniform, otherwise the most
    frequent one with the outliers listed in deviations.
    """

    uniform: bool
    value: PiRational
    deviations: tuple[tuple[int, int, PiRational], ...]


class GramMatrix:
    """The exact Gram block of rows lo..hi, with its numeric twin or None."""

    def __init__(self, lo: int, hi: int, exact: list[list[PiRational]],
                 numeric: np.ndarray | None):
        self.lo = lo
        self.hi = hi
        self.exact = exact
        self.numeric = numeric

    def entry(self, n: int, m: int) -> GramEntry:
        n, m = sorted((n, m))
        if n < self.lo or m > self.hi:
            raise KeyError(f"({n}, {m}) outside rows {self.lo}..{self.hi}")
        i, j = n - self.lo, m - self.lo
        numeric = None if self.numeric is None else float(self.numeric[i, j])
        return GramEntry(n, m, self.exact[i][j], numeric)

    def entries(self) -> list[GramEntry]:
        """The upper triangle, in (n, m) order."""
        return [self.entry(n, m) for n in range(self.lo, self.hi + 1)
                for m in range(n, self.hi + 1)]

    def band_report(self) -> dict[int, BandPattern]:
        report = {}
        lo, block = self.lo, self.exact
        for offset in range(len(block)):
            cells = [(lo + i, lo + i + offset, block[i][i + offset])
                     for i in range(len(block) - offset)]
            # Fractions are in lowest terms, so equal values have equal
            # integer keys, which hash and compare in C; a PiRational
            # hashes two Fractions in Python.
            keys = [(v.pi_part.numerator, v.pi_part.denominator,
                     v.rational_part.numerator, v.rational_part.denominator)
                    for _, _, v in cells]
            counts = Counter(keys)
            modal = max(counts, key=counts.get)  # the first most frequent
            deviations = tuple(cell for cell, key in zip(cells, keys)
                               if key != modal)
            report[offset] = BandPattern(not deviations,
                                         cells[keys.index(modal)][2],
                                         deviations)
        return report


def gram_matrix(n_range: tuple[int, int], family: Family, weight: Weight,
                with_numeric: bool = True) -> GramMatrix:
    """Symmetric Gram matrix of rows lo..hi under the given weight."""
    lo, hi = n_range
    check_row(lo, family)
    if lo > hi:
        raise InvalidConfigError(f"bad row range {lo}..{hi} for family {family}")
    check_row(hi, family)
    if hi > MAX_GRAM_ROW:
        raise InvalidConfigError(
            f"gram row {hi} above the Gram limit {MAX_GRAM_ROW}")
    rows = range(lo, hi + 1)
    return GramMatrix(lo, hi, exact_gram(rows, family, weight),
                      numeric_gram(rows, family, weight) if with_numeric
                      else None)


def theorem_band_value(offset: int, weight: Weight) -> PiRational:
    """The published band patterns for the (2, 2) family, by weight.

    q = -1: pi/4 on the diagonal, -pi/8 at offset 2, else 0.
    q = 1:  3pi/16, -pi/8, pi/32, else 0.
    q = 3:  5pi/32, -15pi/128, 3pi/64, -pi/128, else 0.

    These are the claimed values; whether the actual Gram entries obey
    them everywhere is a test outcome (they deviate near the low corner
    for q = 1 and q = 3).
    """
    q = weight.half_exponent
    patterns = {
        -1: {0: Fraction(1, 4), 2: Fraction(-1, 8)},
        1: {0: Fraction(3, 16), 2: Fraction(-1, 8), 4: Fraction(1, 32)},
        3: {0: Fraction(5, 32), 2: Fraction(-15, 128), 4: Fraction(3, 64),
            6: Fraction(-1, 128)},
    }
    if q not in patterns:
        raise InvalidConfigError(f"no published band pattern for q={q}")
    return PiRational.of(patterns[q].get(offset, 0))
