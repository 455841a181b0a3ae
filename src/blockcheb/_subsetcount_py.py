"""Pure-Python subset-enumeration kernel.

The reference kernel that the tests check the numpy kernel in
blockcount against.  Both walk every one of the 2**(n*p + m) subsets of
the ground set, so results are exhaustive counts, not formula
evaluations.

Ground-set layout (fixed so both kernels and all tests agree): the n
blocks of size p occupy positions 0..n*p-1 contiguously, the single
block of size m sits last.
"""

from __future__ import annotations


def count_intersecting_by_size(n: int, p: int, m: int) -> list[int]:
    """Counts, per subset size, the subsets meeting all n size-p blocks.

    Returns a list c with c[s] = number of s-subsets of the ground set
    that intersect every one of the n blocks of size p (the size-m block
    is unconstrained), for s = 0 .. n*p + m.
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
