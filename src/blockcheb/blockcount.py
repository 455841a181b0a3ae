"""Block-intersection subset counts and their published identities.

The central quantity is f(n, k, m, p): the number of (n+k)-subsets of a
ground set made of n blocks of size p plus one block of size m, counted
over subsets that intersect every one of the n size-p blocks.

Two independent routes compute it:

  * f_closed: the alternating binomial sum (inclusion-exclusion on the
    set of missed blocks).  The oracle sweep sums it as a whole row of
    sizes once per block shape (n, p), at m = 0, and steps that row to
    each larger extra block m by Pascal's rule (_f_closed_rows),
  * f_oracle: exhaustive enumeration of subsets (uint32 masks walked in
    numpy chunks).  A subset whose extra block has size j <= m is exactly
    a mask below 2^(n*p+j), so one walk of the n*p + m ground set counts
    every extra-block size j <= m at once: each mask is binned by its bit
    length and popcount, and the counts for j sum the bins of bit length
    up to n*p + j.  The same walk counts every shape with fewer blocks of
    the same size, whose extra block takes the place of the blocks left
    out, from the masks that meet the leading blocks, so a sweep walks
    once per block size p.  The tables live in one module dict, one
    entry per block shape (n, p).

Their agreement is the foundation everything else in the package is
checked against.  The identity checkers below sweep the five published
recurrence identities for f; identity (3) is checked in both its
printed form and the corrected form, because the printed one is wrong
(the counterexample is pinned in the tests and the verify suite).  They
read the scalar sum, not the stepped rows: E1 (Vandermonde in m) and E2
(the alternating sum over m + t - i) are exactly the (1+x)^m structure
that the stepping builds, so on stepped rows they would hold even from
a wrong m = 0 row.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb
from operator import add

from .errors import GroundSetTooLargeError, InvalidConfigError

BACKEND = "numpy"
ENUMERATION_BOUND = 24
IDENTITY_P_MAX = 4  # every identity sweep covers block sizes p = 1..4
E2_T_MAX = 3  # and E2 its shift t = 0..3
_CHUNK = 1 << 14  # masks per numpy pass; 64 KiB arrays stay in cache


def _kernel(n: int, p: int, m: int) -> list[list[list[int]]]:
    """Count tables of every shape n' = 0..n with block size p, from one
    walk: table n' holds the rows c[j][s] of the s-subsets meeting the
    first n' size-p blocks, with an extra block of size j, for every
    j = 0..n*p + m - n'*p.

    Walks every mask of the n*p + m ground set (blocks at bits
    0..n*p-1, the size-m block last), as the tests' pure-Python
    reference kernel does, one chunk of masks at a time, and tests every
    mask against every block in one OR-fold: ceil(log2 p) shift-OR
    steps, each widening the span OR-ed into a bit but never past p,
    gather each block's p bits onto its lowest bit.  The lowest unmet
    block bit, with an always-unmet sentinel bit at n*p, then sits at
    h*p for the number h of leading blocks the mask meets.  Masks are
    binned by that bit, bit length and popcount.  Shape n' reads the
    masks with h >= n': its blocks are the first n' blocks, and the
    rest of the ground set is its extra block, so a mask of bit length
    L lies in its ground set with extra block j exactly when
    L <= n'*p + j, and row j sums the bins of bit length up to n'*p + j.
    """
    import numpy as np  # here, so commands that enumerate nothing skip it
    base = n * p
    nground = base + m
    if m < 0 or not 0 <= nground <= ENUMERATION_BOUND:
        raise ValueError("ground set out of kernel range")
    steps = []
    reach = 1
    while reach < p:
        steps.append(min(reach, p - reach))
        reach += steps[-1]
    low = np.uint32(sum(1 << (b * p) for b in range(n)))
    sentinel = np.uint32(1 << base)
    one = np.uint32(1)
    width = nground + 1
    levels = base + 2
    # [bit length, 1 + lowest unmet block bit, popcount]: a flat index
    # stays below 25 * 26 * 25, so keys fit uint16.
    bins = np.zeros((width, levels, width), dtype=np.int64)
    total = 1 << nground
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.uint32)
        fold = masks
        for step in steps:
            fold = fold | fold >> step
        unmet = ~fold & low | sentinel
        # The bits up to and including the lowest set one: 1 + its position.
        first = np.bitwise_count(unmet ^ (unmet - one)).astype(np.uint16)
        keys = first * np.uint16(width) + np.bitwise_count(masks)
        if start:  # an aligned chunk past the first: one bit length
            bins[start.bit_length()] += np.bincount(
                keys, minlength=levels * width).reshape(levels, width)
        else:  # frexp's exponent of a mask is its bit length
            keys += np.frexp(masks)[1].astype(np.uint16) * \
                np.uint16(levels * width)
            bins += np.bincount(keys, minlength=bins.size).reshape(bins.shape)
    # Only the levels h*p + 1 are filled.  Taken from h = n down and
    # summed, met[L, n - h] counts by popcount the masks of bit length up
    # to L whose lowest unmet block bit is at h*p or past it: those that
    # meet the first h blocks.
    met = np.cumsum(np.cumsum(bins[:, base + 1:0:-p], axis=1), axis=0)
    tables = []
    for shape in range(n + 1):
        blocks = shape * p
        rows = met[blocks:, n - shape].tolist()
        tables.append([row[:blocks + j + 1] for j, row in enumerate(rows)])
    return tables


def _validate(n: int, m: int, p: int) -> None:
    if n < 0 or m < 0 or p < 1:
        raise InvalidConfigError(f"invalid block configuration n={n}, m={m}, p={p}")


def f_closed(n: int, k: int, m: int, p: int) -> int:
    """Closed-form count: sum_i (-1)^i C(n,i) C(np+m-ip, n+k).

    Returns 0 whenever n+k < 0 or n+k > np+m, where every binomial in
    the sum vanishes, and stops the sum where C(np+m-ip, n+k) reaches 0.
    """
    _validate(n, m, p)
    return _f_closed_raw(n, k, m, p)


# Bounded: a verify run fills 4,885 entries, all from the identity
# sweeps; polyfamily._closed_row reads the sum uncached.  The oracle
# sweep checks the stepped rows of _f_closed_rows, not this sum, against
# enumeration; only test_closed_form_equals_untruncated_sum ties the two.
@lru_cache(maxsize=1 << 16)
def _f_closed_raw(n: int, k: int, m: int, p: int) -> int:
    size = n + k
    top = n * p + m
    if not 0 <= size <= top:
        return 0
    total = 0
    # Past i = (top - size) // p, C(top - i*p, size) = 0.
    for i in range(min(n, (top - size) // p) + 1):
        term = comb(n, i) * comb(top - i * p, size)
        total += -term if i % 2 else term
    return total


def _f_closed_seed(n: int, p: int) -> tuple[int, ...]:
    """f_closed(n, s - n, 0, p) for s = 0..n*p: the sum over i of
    (-1)^i C(n, i) times the binomial row C(n*p - i*p, s)."""
    top = n * p
    row = [0] * (top + 1)
    for i in range(n + 1):
        size = top - i * p
        weight = -comb(n, i) if i % 2 else comb(n, i)
        for s in range(size + 1):
            row[s] += weight * comb(size, s)
    return tuple(row)


def _f_closed_rows(n: int, p: int):
    """The closed-form rows of the shape (n, p) for m = 0, 1, 2, ...:
    f_closed(n, s - n, m, p) for s = 0..n*p+m.

    Only the m = 0 row is summed, by _f_closed_seed.  One more element
    in the extra block multiplies the generating function
    ((1+x)^p - 1)^n (1+x)^m by 1 + x, so each next row is the last plus
    itself shifted by one size: C(N + 1, s) = C(N, s) + C(N, s - 1)
    holds term by term in the sum.
    """
    row = _f_closed_seed(n, p)
    while True:
        yield row
        row = (*map(add, row, (0, *row)), row[-1])


def f_oracle(n: int, k: int, m: int, p: int) -> int:
    """Enumeration count over all subsets of the n*p + m ground set."""
    _validate(n, m, p)
    if n * p + m > ENUMERATION_BOUND:
        raise GroundSetTooLargeError(
            f"ground set {n * p + m} exceeds enumeration bound {ENUMERATION_BOUND}")
    size = n + k
    counts = _count_table(n, p, m)[m]
    if size < 0 or size >= len(counts):
        return 0
    return counts[size]


# One table per block shape (n, p), its longest so far, since the table
# to extra block m holds every smaller one exactly.  A walk stores each
# shape (n', p), n' <= n, that it counts further than the stored table.
# With no blocks p does not matter, so n = 0 has one entry;
# n*p <= ENUMERATION_BOUND then allows at most
# 1 + sum_{n>=1} floor(24 / n) = 85 entries.  Two threads growing one
# entry at once may leave the shorter table there, which is still exact.
_tables: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = {}


def _count_table(n: int, p: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Kernel rows of the shape (n, p) for every extra block up to m or more."""
    if not n:
        p = 1
    table = _tables.get((n, p), ())
    if len(table) <= m:
        walked = [tuple(map(tuple, rows)) for rows in _kernel(n, p, m)]
        for shape, rows in enumerate(walked):
            key = (shape, p if shape else 1)
            if len(_tables.get(key, ())) < len(rows):
                _tables[key] = rows
        table = walked[n]
    return table


def _shapes(max_ground: int, p_max: int):
    """Every block shape (n, p) with n*p <= max_ground and 1 <= p <= p_max."""
    for p in range(1, p_max + 1):
        for n in range(max_ground // p + 1):
            yield n, p


def _configurations(max_ground: int, p_max: int):
    """Every (n, m, p) with n*p + m <= max_ground and 1 <= p <= p_max,
    with its subset sizes: every achievable size n + k in 0..n*p+m plus a
    margin of one size on both ends, where every count is 0.
    """
    for n, p in _shapes(max_ground, p_max):
        for m in range(max_ground - n * p + 1):
            yield n, m, p, range(-1, n * p + m + 2)


def sweep_oracle_vs_closed(max_ground: int = 14, p_max: int = 4):
    """Compare the closed-form rows with the enumerated count tables for
    every configuration in range.

    Covers every configuration of _configurations.  Returns (number of
    comparisons, list of failures).  The sweep always reaches the ground
    set n = 0, m = max_ground, so a max_ground past the enumeration bound
    is rejected before anything is enumerated.  So is a p_max past it,
    whose every p above max_ground adds only block-free shapes, as p = 1.

    The closed side sums each shape's m = 0 row once and steps it to
    every larger extra block m in _f_closed_rows, uncached; each row is
    compared whole with the enumerated row, and only a row that differs
    is compared size by size.  The enumeration side
    walks the whole max_ground ground set once per block size p, with
    as many blocks as fit, max_ground // p.  That walk counts every
    shape (n, p) at its largest extra block max_ground - n*p, and every
    smaller extra block is read off that shape's table.
    """
    if max_ground < 0 or p_max < 1:
        raise InvalidConfigError(
            f"oracle sweep needs max_ground >= 0 and p_max >= 1, "
            f"got max_ground={max_ground}, p_max={p_max}")
    for name, value in (("max_ground", max_ground), ("p_max", p_max)):
        if value > ENUMERATION_BOUND:
            raise GroundSetTooLargeError(
                f"oracle sweep {name} {value} exceeds enumeration "
                f"bound {ENUMERATION_BOUND}")
    # All walks come before the sums: walking between them measured a
    # peak resident set about 0.3 MB higher on the oracle workload.
    for p in range(1, p_max + 1):
        _count_table(max_ground // p, p, max_ground % p)
    tables = {(n, p): _count_table(n, p, max_ground - n * p)
              for n, p in _shapes(max_ground, p_max)}
    checked = 0
    failures = []
    for n, m, p, sizes in _configurations(max_ground, p_max):
        if not m:  # _configurations runs each shape's m up from 0
            rows = _f_closed_rows(n, p)
        closed = next(rows)
        counts = tables[n, p][m]
        checked += len(sizes)
        if closed == counts:
            continue
        for size in sizes:
            closed_at = closed[size] if 0 <= size < len(closed) else 0
            oracle_at = counts[size] if 0 <= size < len(counts) else 0
            if closed_at != oracle_at:
                failures.append({"n": n, "k": size - n, "m": m, "p": p,
                                 "closed": closed_at, "oracle": oracle_at})
    return checked, failures


def _e3(n, m, p, t, drop):
    """Identity (3): condition on the first block, which must be hit.

    The printed form lets the remaining blocks drop to size p - 1
    (drop = 1); conditioning on one block keeps them at size p (drop = 0).
    """
    return [(comb(p, i), -i, n - 1, m, p - drop) for i in range(1, p + 1)]


# Each identity: the least n and p where it applies, and the terms of its
# right-hand side at (n, m, p), and t for E2.  A term (w, shift, n', m',
# p') adds w f(n', k', m', p') at the subset size n' + k' = n + k + shift;
# the left side is f(n, k, m, p).  Every count argument and binomial is in
# range where an identity applies, so nothing needs f_closed's checks.
_IDENTITIES = {
    "E1": (0, 1, lambda n, m, p, t: [
        (comb(m, i), -i, n, 0, p) for i in range(m + 1)]),
    "E2": (0, 1, lambda n, m, p, t: [
        (-comb(t, i) if i % 2 else comb(t, i), t, n, m + t - i, p)
        for i in range(t + 1)]),
    "E3-printed": (1, 2, partial(_e3, drop=1)),
    "E3-corrected": (1, 2, partial(_e3, drop=0)),
    "E4": (0, 2, lambda n, m, p, t: [
        (comb(n, i) * comb(i, j), -i, n - j, m, p - 1)
        for i in range(n + 1) for j in range(i + 1)]),
}


def check_identity(identity_id: str, max_ground: int = 12):
    """Sweep one of the five published f-identities over a full range.

    Every configuration of _configurations(max_ground, IDENTITY_P_MAX)
    where the identity applies is visited, for each t = 0..E2_T_MAX in
    E2.  Both sides read the scalar closed form _f_closed_raw, which
    only test_closed_form_equals_untruncated_sum ties to the stepped
    rows the oracle sweep checks.  Returns (number of instances checked,
    list of failures), the shape of sweep_oracle_vs_closed.
    """
    if identity_id not in _IDENTITIES:
        raise ValueError(f"unknown identity {identity_id!r}")
    n_min, p_min, terms = _IDENTITIES[identity_id]
    ts = range(E2_T_MAX + 1) if identity_id == "E2" else (None,)
    checked = 0
    failures = []
    for n, m, p, sizes in _configurations(max_ground, IDENTITY_P_MAX):
        if n < n_min or p < p_min:
            continue
        lhs = [_f_closed_raw(n, s - n, m, p) for s in sizes]
        rhs = []
        for t in ts:
            row = [0] * len(sizes)
            for w, shift, n1, m1, p1 in terms(n, m, p, t):
                row = [r + w * _f_closed_raw(n1, s + shift - n1, m1, p1)
                       for r, s in zip(row, sizes)]
            rhs.append(row)
        checked += len(sizes) * len(ts)
        if all(row == lhs for row in rhs):
            continue
        for s, left, *rights in zip(sizes, lhs, *rhs):
            for t, right in zip(ts, rights):
                if left != right:
                    failures.append({"n": n, "k": s - n, "m": m, "p": p,
                                     **({} if t is None else {"t": t}),
                                     "lhs": left, "rhs": right})
    return checked, failures
