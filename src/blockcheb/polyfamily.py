"""The polynomial family P(n, m, p) built on block-intersection counts.

For a family (m, p) the triangle rows are indexed by degree n >= m, and
the coefficient of x^k in row n is

    c(n, k) = (-1)^((n-k)/2) f((n+k-2m)/2, (n-k)/2, m, p)

when n and k share parity and the first f argument is nonnegative, and 0
otherwise.  Family (0, 2) gives the Chebyshev U polynomials, (1, 2) the
Chebyshev T polynomials, and (2, 2) the family all the analytic results
in this package are about.

Triangle rows come from the generating function of the counts,
f(a, b, m, p) = [x^(a+b)] ((1+x)^p - 1)^a (1+x)^m, one column per a
extended by one coefficient per row (see Triangle).  Everything else
reads the closed form f_closed instead, one whole row at a time: the
table _closed_row holds the signed counts of a row for every power where
one can be nonzero, left-edge mass included.  coefficient(), the
left-edge terms of the corrected constructions and the per-coefficient
recurrences are index reads into it, so the triangle is checked against
a route it does not share.

Besides the definitional route the module implements the three published
alternative constructions (reduction to the m = 0 family, the p = 2
three-term recurrence, and the t-fold recurrence) plus the published
coefficient recurrences.  The constructions sum whole shifted triangle
rows, and so do the row forms of the E2 and E3 recurrences (identity (2)
yields both E2 and the t-fold recurrence); the per-coefficient forms
spell each printed sum out through the closed-form table, so a row form
checked against coefficient_row meets a route it does not share.  The
triple sum stays one power at a time, since its corrected outer range
depends on the power, over base-family rows a whole row fetches once.
Where a published formula disagrees with the oracle-validated triangle,
both the printed and the corrected variant are available and the
disagreement is pinned in the tests.  For the reduction, the t-fold
recurrence and the coefficient recurrences the printed proofs read every
coefficient past the triangle's left edge as 0; the corrected variant is
the same printed sum read through the virtual coefficient
(_virtual_coeff), the signed count that is still nonzero there once
p >= 3.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from math import comb, log10

from .blockcount import _f_closed_raw
from .errors import InvalidConfigError
from .exact import binomial

# Largest row a Triangle builds: (1, 4) to n = 1000 takes a few seconds
# and its serialized triangle alone runs to about 120 MB.
MAX_ROW = 1000


@dataclass(frozen=True)
class Family:
    """Identifies one polynomial family by its block sizes (m, p)."""

    m: int
    p: int

    def __post_init__(self):
        if self.m < 0 or self.p < 1:
            raise InvalidConfigError(f"invalid family m={self.m}, p={self.p}")

    def __str__(self) -> str:
        return f"(m={self.m}, p={self.p})"


U_FAMILY = Family(0, 2)
T_FAMILY = Family(1, 2)
P_FAMILY = Family(2, 2)


class IntPolynomial:
    """Immutable polynomial with integer coefficients, dense ascending."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @staticmethod
    def monomial(k: int, c: int = 1) -> "IntPolynomial":
        return IntPolynomial((0,) * k + (c,))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._c

    def coeff(self, k: int) -> int:
        return self._c[k] if 0 <= k < len(self._c) else 0

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial([a + b for a, b in
                              zip_longest(self._c, other._c, fillvalue=0)])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial([a - b for a, b in
                              zip_longest(self._c, other._c, fillvalue=0)])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self._c])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial([c * other for c in self._c])
        if isinstance(other, IntPolynomial):
            if self.is_zero() or other.is_zero():
                return IntPolynomial()
            out = [0] * (len(self._c) + len(other._c) - 1)
            for i, a in enumerate(self._c):
                if a:
                    for j, b in enumerate(other._c):
                        out[i + j] += a * b
            return IntPolynomial(out)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, s: int) -> "IntPolynomial":
        """Multiply by x**s."""
        if self.is_zero():
            return self
        return IntPolynomial((0,) * s + self._c)

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([k * c for k, c in enumerate(self._c)][1:])

    def __str__(self) -> str:
        if not self._c:
            return "0"
        bits = []
        for k in range(len(self._c) - 1, -1, -1):
            c = self._c[k]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                xpow = "x" if k == 1 else f"x^{k}"
                term = xpow if mag == 1 else f"{mag}{xpow}"
            bits.append((sign, term))
        first_sign, first_term = bits[0]
        out = ("-" if first_sign == "-" else "") + first_term
        for sign, term in bits[1:]:
            out += f" {sign} {term}"
        return out

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._c)!r})"


def coefficient(n: int, k: int, family: Family) -> int:
    """Definitional coefficient of x^k in the degree-n row of the family."""
    _check_start(n, family)
    return _coeff_any(n, k, family)


def coefficient_row(n: int, family: Family) -> tuple[int, ...]:
    """(coefficient(n, 0), ..., coefficient(n, n)), one closed-form row."""
    _check_start(n, family)
    return tuple(_window(_closed_row(n, family.m, family.p), n, family.m, 0,
                         n + 1))


# Bounded: a full verify run builds 380 rows and reads them about 7,300
# times, in the p >= 3 left edges of the corrected constructions, the
# triple sums and the coefficient side of every recurrence check.
@lru_cache(maxsize=1 << 12)
def _closed_row(n: int, m: int, p: int) -> tuple[int, ...]:
    """The signed counts c~(n, k) of row n of family (m, p) at the powers
    k = 2m - n, 2m - n + 2, ..., n, entry a = (n+k-2m)/2:

        c~(n, k) = (-1)^b f(a, b, m, p),  b = (n-k)/2 = n - m - a.

    Powers of the other parity are 0 and not stored, and a row below the
    triangle start (n < m) is empty.  Entries at k < 0 carry the
    left-edge mass that _virtual_coeff describes.  The counts come from
    the uncached sum, so the table adds nothing to _f_closed_raw's cache.
    """
    count = _f_closed_raw.__wrapped__
    d = n - m
    return tuple(-count(a, b, m, p) if b % 2 else count(a, b, m, p)
                 for a, b in zip(range(d + 1), range(d, -1, -1)))


def _window(row: tuple[int, ...], n: int, m: int, low: int,
            high: int) -> list[int]:
    """Powers low..high-1 of a row stored as _closed_row stores row n of a
    family with this m, and reaching at least power high - 1."""
    a = max((n + low + 1) // 2 - m, 0)     # the first entry at a power >= low
    k = 2 * (a + m) - n
    out = [0] * (high - low)
    if k < high:
        out[k - low::2] = row[a:a + (high - 1 - k) // 2 + 1]
    return out


def _virtual_coeff(n: int, k: int, family: Family) -> int:
    """The signed count behind c(n,k), total in the power index.

    Inside the triangle (0 <= k <= n, n >= m) this equals coefficient(),
    and right of it (k > n gives b < 0) or below its start (n < m gives
    a < 0) it is 0.  Past the left edge, k < 0, the same expression
    (-1)^((n-k)/2) f((n+k-2m)/2, (n-k)/2) can still be nonzero, because
    f(a, b, m, p) survives up to b = a(p-1) + m.  The published proofs
    read every out-of-triangle coefficient as 0, which loses exactly
    this mass; it is nonzero only once p >= 3.  Each corrected variant
    is its printed sum read through this lookup instead of _coeff_any.
    """
    row = _closed_row(n, family.m, family.p)
    a = (n + k) // 2 - family.m
    return row[a] if (n - k) % 2 == 0 and 0 <= a < len(row) else 0


def _coeff_any(n: int, k: int, family: Family) -> int:
    # Total lookup, 0 outside the triangle, as the printed proofs read it.
    return _virtual_coeff(n, k, family) if k >= 0 else 0


class Triangle:
    """Coefficient rows of one family, grown on demand from its generating function.

    The coefficient of x^k in row n is (-1)^b [x^d] Q_a with d = n - m,
    b = d - a, k = n - 2b and

        Q_a = ((1+x)^p - 1)^a (1+x)^m,

    the generating function of the block counts f(a, b, m, p).  Each
    column Q_a satisfies Q_a = ((1+x)^p - 1) Q_(a-1), so its coefficient
    at degree d is sum_{j=1..p} C(p,j) [x^(d-j)] Q_(a-1), and
    [x^d] Q_0 = C(m, d).  Adding a row therefore extends every column by
    one coefficient, O(n p) additions, and needs only the coefficients
    of the last p degrees.  The closed form f_closed and the
    enumeration oracle stay independent of this route; coefficient() and
    the alternative constructions' boundary terms use the closed form.

    Extension is serialized by a lock; reads of already-present rows are
    plain list lookups and safe alongside the extension.
    """

    def __init__(self, family: Family):
        self.family = family
        self._rows: list[tuple[int, ...]] = []
        # C(p, 1..min(p, d)): row m + d reads the last min(p, d) degrees.
        self._weights: list[int] = []
        # The coefficients [x^t] Q_a, a = 0..t, of the last
        # min(p, MAX_ROW) degrees t (d <= MAX_ROW), newest first.
        self._recent: deque[list[int]] = deque(maxlen=min(family.p, MAX_ROW))
        self._lock = threading.Lock()

    def row(self, n: int) -> tuple[int, ...]:
        """Coefficients (c(n,0), ..., c(n,n)) of the degree-n row."""
        check_row(n, self.family)
        idx = n - self.family.m
        if idx >= len(self._rows):
            with self._lock:
                while len(self._rows) <= idx:
                    self._rows.append(self._next_row())
        return self._rows[idx]

    def rows(self, max_n: int) -> list[tuple[int, ...]]:
        """Rows m..max_n; a max_n that row() rejects raises the same way."""
        self.row(max_n)
        return self._rows[:max_n - self.family.m + 1]

    def _next_row(self) -> tuple[int, ...]:
        m = self.family.m
        d = len(self._rows)
        n = m + d
        if 0 < d <= self.family.p:
            self._weights.append(binomial(self.family.p, d))
        level = [binomial(m, d)] + [0] * d  # [x^d] Q_a, a = 0..d
        for w, prev in zip(self._weights, self._recent):
            for a, value in enumerate(prev, 1):
                level[a] += w * value
        self._recent.appendleft(level)
        coeffs = [0] * (n + 1)
        for a in range(max(0, (d - m + 1) // 2), d + 1):
            coeffs[m - d + 2 * a] = -level[a] if (d - a) % 2 else level[a]
        return tuple(coeffs)


def _check_start(n: int, family: Family) -> None:
    if n < family.m:
        raise InvalidConfigError(f"row {n} below triangle start {family.m}")


def _check_variant(variant: str) -> None:
    if variant not in ("printed", "corrected"):
        raise ValueError(f"unknown variant {variant!r}")


def check_row(n: int, family: Family) -> None:
    """Reject a row index outside the family's triangle, above MAX_ROW, or
    whose top coefficient p^(n-m) alone has more digits than Python
    writes as a decimal string (sys.get_int_max_str_digits(), 0 if
    unlimited)."""
    _check_start(n, family)
    if n > MAX_ROW:
        raise InvalidConfigError(f"row {n} above the row limit {MAX_ROW}")
    limit = sys.get_int_max_str_digits()
    if limit and (n - family.m) * log10(family.p) >= limit:
        raise InvalidConfigError(
            f"row {n}: its top coefficient p^{n - family.m} has more than "
            f"{limit} digits, Python's limit for a decimal string")


# Unbounded on purpose: it grows only with the families a process asks
# for.  A CLI document asks for one, a full verify run registers 34, and
# check_row caps each Triangle at MAX_ROW rows.  Keyed by (m, p): a tuple
# of ints hashes in C, where a Family would run its dataclass __hash__.
_triangles: dict[tuple[int, int], Triangle] = {}
_triangles_lock = threading.Lock()


def triangle(family: Family) -> Triangle:
    return _triangle(family.m, family.p)


def _triangle(m: int, p: int) -> Triangle:
    # Dict reads are atomic, so an existing triangle needs no lock; the
    # lock only keeps two threads from creating the same one.
    tri = _triangles.get((m, p))
    if tri is None:
        with _triangles_lock:
            tri = _triangles.get((m, p))
            if tri is None:
                tri = _triangles[m, p] = Triangle(Family(m, p))
    return tri


def build_definitional(n: int, family: Family) -> IntPolynomial:
    """Row n of the family straight from the definitional coefficients."""
    return IntPolynomial(triangle(family).row(n))


def _shifted_row(n: int, m: int, p: int, s: int,
                 variant: str) -> list[int]:
    """x^s times row n of family (m, p), powers 0..n+s: with its powers
    0..s-1 filled in for s > 0, and without the row's lowest -s powers
    for s < 0.

    A printed proof shifts a row and reads what lands below x^s as 0.
    The row's coefficients at powers k - s < 0 are virtual coefficients
    (_virtual_coeff), and the "corrected" variant keeps them; for p <= 2
    they all vanish by the count's range, so only p >= 3 reads them.
    """
    row = _triangle(m, p).row(n)
    if s < 0:
        return list(row[-s:])
    if variant == "corrected" and s and p >= 3:
        low = _window(_closed_row(n, m, p), n, m, -s, 0)
    else:
        low = [0] * s
    return [*low, *row]


def _sum_rows(length: int, terms) -> IntPolynomial:
    """The polynomial sum of weight * row over (weight, row) terms, each
    row a coefficient list of at most length powers."""
    total = [0] * length
    for weight, row in terms:
        total[:len(row)] = [a + weight * c for a, c in zip(total, row)]
    return IntPolynomial(total)


def build_by_reduction(n: int, family: Family,
                       variant: str = "corrected") -> IntPolynomial:
    """Row n via the reduction to the m = 0 family:

        P(n,m,p) = sum_{i=0}^m (-1)^i C(m,i) x^(m-i) P(n-m-i,0,p).

    For m <= n < 2m some indices n-m-i go negative; those terms are zero
    polynomials, which is harmless (no count mass exists there).  What
    is not harmless is the window truncation in the published proof:
    it groups the count expansion into (0, p) rows on the claim that
    f(r, s, 0, p) vanishes for s > r, true only for p <= 2, so for
    p >= 3 it discards nonzero counts at powers below x^(m-i), and
    already x P(3,0,3) - P(2,0,3) = 27x^4 - 27x^2 + 3 misses the
    definitional 27x^4 - 27x^2 + 4.  The "printed" variant evaluates
    the sum verbatim; the "corrected" variant reads each shifted row
    through the virtual coefficient (_shifted_row) and equals the
    definitional row everywhere.
    """
    _check_start(n, family)
    _check_variant(variant)
    m = family.m
    return _sum_rows(n + 1, (
        (-comb(m, i) if i % 2 else comb(m, i),
         _shifted_row(n - m - i, 0, family.p, m - i, variant))
        for i in range(min(m, n - m) + 1)))


def three_term_rows(n: int, family: Family,
                    variant: str = "corrected") -> list[IntPolynomial]:
    """Rows m..n via the Chebyshev-style recurrence (p = 2 families only).

    Both variants seed with the published first two rows x^m and
    2x^(m+1) - m x^(m-1) and iterate P(n) = 2x P(n-1) - P(n-2), each
    row stepped once from the two before it.

    The published corollary stops there ("printed" variant), but the
    bare recurrence reproduces the triangle only for m <= 1: each row
    n = m+2 .. 2m additionally carries a boundary term

        (-1)^(n-m) C(m, n-m) x^(2m-n)

    that the recurrence cannot see (it comes from the f(0, ...) edge of
    the count, where conditioning on a block is impossible).  The
    "corrected" variant adds that term, vanishes for n > 2m, and equals
    the definitional row everywhere.  The printed variant's divergence
    for m >= 2 is pinned in the regression tests.
    """
    if family.p != 2:
        raise InvalidConfigError("three-term recurrence applies to p = 2 only")
    check_row(n, family)
    _check_variant(variant)
    m = family.m
    second = IntPolynomial.monomial(m + 1, 2)
    if m >= 1:
        second = second - IntPolynomial.monomial(m - 1, m)
    rows = [IntPolynomial.monomial(m), second]
    for deg in range(m + 2, n + 1):
        cur = rows[-1].shift(1) * 2 - rows[-2]
        if variant == "corrected" and 2 * m - deg >= 0:
            seam = (-1) ** (deg - m) * binomial(m, deg - m)
            if seam:
                cur = cur + IntPolynomial.monomial(2 * m - deg, seam)
        rows.append(cur)
    return rows[:n - m + 1]


def build_by_three_term(n: int, family: Family,
                        variant: str = "corrected") -> IntPolynomial:
    """Row n of three_term_rows."""
    return three_term_rows(n, family, variant)[-1]


def build_via_t_recurrence(n: int, family: Family, t: int,
                           variant: str = "corrected") -> IntPolynomial:
    """Row n via the t-fold recurrence into higher-m families:

        P(n,m,p) = sum_{i=0}^t (-1)^(t-i) C(t,i) x^i P(n+2t-i, m+t-i, p).

    The published claim is for every t >= 0 with no restriction on p,
    but the coefficient translation behind it replaces the count
    f(a, b+t, m+t-i, p) by c(n+2t-i, k-i, m+t-i, p) and reads it as 0
    for i > k, where the power k-i is negative.  The count is nonzero
    whenever i <= k + a(p-2), a window that is empty only for p <= 2,
    so the printed form already fails at n=2, m=0, p=3, t=1, where it
    yields 9x^2 - 4 against the definitional 9x^2 - 3.  The "printed"
    variant evaluates the sum verbatim; the "corrected" variant reads
    each shifted row through the virtual coefficient (_shifted_row) and
    equals the definitional row everywhere.
    """
    if t < 0:
        raise InvalidConfigError("t must be nonnegative")
    _check_start(n, family)
    _check_variant(variant)
    return _sum_rows(n + 2 * t + 1, (
        (-comb(t, i) if (t - i) % 2 else comb(t, i),
         _shifted_row(n + 2 * t - i, family.m + t - i, family.p, i, variant))
        for i in range(t + 1)))


def coeff_recurrence_e2(n: int, k: int, family: Family, t: int,
                        variant: str = "corrected") -> int:
    """Coefficient recurrence lifted from identity (2):

        c(n,k,m,p) = sum_{i=0}^t (-1)^(i+t) C(t,i) c(n+2t-i, k-i, m+t-i, p).

    Printed variant verbatim, every lookup past the left edge read as 0;
    the corrected variant reads those lookups through the virtual
    coefficient, which restores the count mass lost at k < t when p >= 3
    (see build_via_t_recurrence).  Both give 0 for k < 0.
    """
    if t < 0:
        raise InvalidConfigError("t must be nonnegative")
    _check_variant(variant)
    if k < 0:
        return 0
    lookup = _coeff_any if variant == "printed" else _virtual_coeff
    return sum((-1) ** (i + t) * comb(t, i) * lookup(
        n + 2 * t - i, k - i, Family(family.m + t - i, family.p))
        for i in range(t + 1))


def coeff_recurrence_e2_row(n: int, family: Family, t: int,
                            variant: str = "corrected") -> tuple[int, ...]:
    """coeff_recurrence_e2(n, k, family, t, variant) for k = 0..n: powers
    0..n of the t-fold recurrence, which is the same sum of rows."""
    return _powers_to(n, build_via_t_recurrence(n, family, t, variant))


def coeff_recurrence_e3(n: int, k: int, family: Family, variant: str) -> int:
    """Coefficient recurrence lifted from identity (3), both variants.

    printed:   sum_{i=1}^p (-1)^i     C(p,i) c(n-i, k+i-2, m, p)
    corrected: sum_{i=1}^p (-1)^(i-1) C(p,i) c(n-i, k+i-2, m, p)

    The corrected sign follows from the corrected identity (3); whether
    either variant matches coefficient() is a test outcome.  Two blind
    spots are worth knowing: the descent conditions on a block, so it
    says nothing on the n + k = 2m boundary of the triangle, and for
    k = 0 the i = 1 lookup lands at power -1, whose discarded mass is
    nonzero once p >= 3 (the same window defect the other printed
    translations suffer; here it is part of the formula either way).
    """
    _check_variant(variant)
    sign = 1 if variant == "printed" else -1
    return sum(sign * (-1) ** i * comb(family.p, i)
               * _coeff_any(n - i, k + i - 2, family)
               for i in range(1, family.p + 1))


def coeff_recurrence_e3_row(n: int, family: Family,
                            variant: str) -> tuple[int, ...]:
    """coeff_recurrence_e3(n, k, family, variant) for k = 0..n: the rows
    n-i shifted by x^(2-i), i <= n - m.  Both variants read every lookup
    below power 0 as 0, so each row is shifted as printed."""
    _check_start(n, family)
    _check_variant(variant)
    sign = 1 if variant == "printed" else -1
    return _powers_to(n, _sum_rows(n + 1, (
        (sign * (-1) ** i * comb(family.p, i),
         _shifted_row(n - i, family.m, family.p, 2 - i, "printed"))
        for i in range(1, min(family.p, n - family.m) + 1))))


def _powers_to(n: int, poly: IntPolynomial) -> tuple[int, ...]:
    # The coefficients of poly at powers 0..n.
    return (poly.coeffs + (0,) * (n + 1))[:n + 1]


def coeff_triple_sum(n: int, k: int, family: Family,
                     variant: str = "printed") -> int:
    """Triple-sum expression of c(n,k,m,p) over the (0, p-1) triangle.

    printed (verbatim):
        sum_{i<=n} sum_{j<=i} sum_{t<=m} C(n,i) C(m,t) C(i,j) (-1)^(i-j+t)
            c(n-i-t, k+i-2j+t, 0, p-1)

    The printed form recycles the row indices n, k as if they were the
    block-count arguments of the underlying identity, which they are
    not.  The corrected variant redoes the translation with
    a = (n+k-2m)/2 as the outer range and properly shifted lookups:

        sum_{i<=a} sum_{j<=i} sum_{t<=m} C(a,i) C(m,t) C(i,j) (-1)^(i-j+t)
            c~(n-m-i-t, k-m+i-2j+t, 0, p-1)

    where c~ is the virtual coefficient extended past the left edge of
    the triangle (_virtual_coeff); plain triangle lookups would reopen
    the dropped-mass defect one level down once p - 1 >= 3.  Agreement
    of either variant with coefficient() is a test outcome.
    """
    _check_variant(variant)
    return _triple_sum(n, k, family.m, variant == "printed",
                       _triple_sum_rows(n, family))


def coeff_triple_sum_row(n: int, family: Family,
                         variant: str = "printed") -> tuple[int, ...]:
    """coeff_triple_sum(n, k, family, variant) for k = 0..n, each power
    summed on its own over rows fetched once."""
    _check_start(n, family)
    _check_variant(variant)
    rows = _triple_sum_rows(n, family)
    return tuple(_triple_sum(n, k, family.m, variant == "printed", rows)
                 for k in range(n + 1))


def _triple_sum_rows(n: int, family: Family) -> list[tuple[int, ...]]:
    # Every lookup of the triple sums of row n reads a closed-form row
    # n - u, u <= n + m, of the (0, p-1) family.
    if family.p < 2:
        raise InvalidConfigError(f"triple sum needs p >= 2, got p={family.p}")
    return [_closed_row(n - u, 0, family.p - 1) if u <= n else ()
            for u in range(n + family.m + 1)]


def _triple_sum(n: int, k: int, m: int, printed: bool, rows) -> int:
    # Every lookup (N, K) has N - K = n - k - 2(i - j + t), and both
    # lookups vanish unless that is even and >= 0: so an odd n - k gives 0,
    # and j and t stop where N - K would turn negative.  One loop serves
    # both variants; only the outer range top (n or a), the index shift
    # of the lookups (0 or m) and the printed reading of powers below 0
    # as 0 differ.  Every binomial is in range by construction, so
    # math.comb needs no guard.
    if (n - k) % 2:
        return 0
    top, shift = (n, 0) if printed else ((n + k - 2 * m) // 2, m)
    if top < 0:
        return 0
    half = (n - k) // 2
    signed_cmt = [-comb(m, t) if t % 2 else comb(m, t) for t in range(m + 1)]
    # The lookup (N, K) = (n - shift - i - t, k - shift + i - 2j + t) reads
    # the closed-form row N, rows[shift + i + t], at entry
    # (N + K)/2 = j_top - j, whatever i and t are; j stops before
    # that turns negative.
    # The bounds are clipped by comparisons, not min() and max(): those
    # builtin calls were a third of the loop's time.
    j_top = (n + k) // 2 - shift
    total = 0
    for i in range(top + 1):
        c_top_i = comb(top, i)
        for j in range(i - half if i > half else 0,
                       (i if i < j_top else j_top) + 1):
            entry, inner = j_top - j, 0
            # K >= 0 from t = 2j - k + shift - i on.
            t_low = 2 * j - k + shift - i if printed else 0
            t_high = half - i + j if half - i + j < m else m
            for t in range(t_low if t_low > 0 else 0, t_high + 1):
                lookup = rows[shift + i + t]
                if entry < len(lookup):
                    inner += signed_cmt[t] * lookup[entry]
            if inner:
                term = c_top_i * comb(i, j) * inner
                total += -term if (i - j) % 2 else term
    return total


def chebyshev_u_coefficient(n: int, k: int) -> int:
    """Closed form for the x^k coefficient of the Chebyshev U_n:

        (-1)^((n-k)/2) sum_{i=0}^k C((n+k)/2, i) C((n+k)/2 - i, (n-k)/2)

    for n, k of equal parity, 0 otherwise.
    """
    if n < 0 or k < 0 or k > n or (n - k) % 2:
        return 0
    half_sum = (n + k) // 2
    half_diff = (n - k) // 2
    s = sum(binomial(half_sum, i) * binomial(half_sum - i, half_diff)
            for i in range(k + 1))
    return (-1) ** half_diff * s
