"""Reference routes the tests hold the package to, kept apart from it.

Neither shares code with blockcheb, which is what makes the agreement
worth checking:

  * count_intersecting_by_size, a pure-Python mask walk, against the
    numpy enumeration kernel in blockcount;
  * beta_moments, the Beta moments as Fractions from the Wallis
    recurrence, against orthocheck's integer moment route and mpmath.
"""

from __future__ import annotations

from fractions import Fraction


def count_intersecting_by_size(n: int, p: int, m: int) -> list[int]:
    """Counts, per subset size, the subsets meeting all n size-p blocks.

    Returns a list c with c[s] = number of s-subsets of the ground set
    that intersect every one of the n blocks of size p (the size-m block
    is unconstrained), for s = 0 .. n*p + m.  Walks every one of the
    2**(n*p + m) subsets, the n blocks of size p at positions 0..n*p-1
    and the size-m block last, as the numpy kernel lays them out.
    """
    nground = n * p + m
    block = (1 << p) - 1
    blocks = [block << (b * p) for b in range(n)]
    counts = [0] * (nground + 1)
    for mask in range(1 << nground):
        for bm in blocks:
            if not mask & bm:
                break
        else:
            counts[mask.bit_count()] += 1
    return counts


def beta_moments(q: int, count: int) -> list[Fraction]:
    """M_0, M_2, ..., M_(2 count - 2), where M_2j = integral of
    x^(2j) (1 - x^2)^(q/2) over [-1, 1], in units of pi for odd q.

    M_0 = q!!/(q+1)!! times pi for odd q and times 2 for even q (Wallis),
    and M_(2j+2) = M_2j (2j+1)/(2j+q+3).
    """
    moment = Fraction(1 if q % 2 else 2)
    for k in range(q, 0, -2):
        moment *= Fraction(k, k + 1)
    moments = []
    for j in range(count):
        moments.append(moment)
        moment *= Fraction(2 * j + 1, 2 * j + q + 3)
    return moments
