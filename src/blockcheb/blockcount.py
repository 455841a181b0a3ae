"""Block-intersection subset counts and their published identities.

The central quantity is f(n, k, m, p): the number of (n+k)-subsets of a
ground set made of n blocks of size p plus one block of size m, counted
over subsets that intersect every one of the n size-p blocks.

Two independent routes compute it:

  * f_closed: the alternating binomial sum (inclusion-exclusion on the
    set of missed blocks),
  * f_oracle: exhaustive enumeration of subsets (uint32 masks walked in
    numpy chunks).

Their agreement is the foundation everything else in the package is
checked against.  The identity checkers below sweep the five published
recurrence identities for f; identity (3) is checked in both its
printed form and the corrected form, because the printed one is wrong
(the counterexample is pinned in the tests and the verify suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GroundSetTooLargeError, InvalidConfigError
from .exact import binomial

BACKEND = "numpy"
ENUMERATION_BOUND = 24
_CHUNK = 1 << 14  # masks per numpy pass; 64 KiB arrays stay in cache


def _kernel(n: int, p: int, m: int) -> list[int]:
    """Counts c[s] of the s-subsets meeting all n size-p blocks.

    Walks every mask of the n*p + m ground set (blocks at bits
    0..n*p-1, the size-m block last), as the reference kernel in
    _subsetcount_py does, one chunk of masks at a time.
    """
    nground = n * p + m
    if not 0 <= nground <= ENUMERATION_BOUND:
        raise ValueError("ground set out of kernel range")
    blocks = [np.uint32(((1 << p) - 1) << (b * p)) for b in range(n)]
    counts = np.zeros(nground + 1, dtype=np.int64)
    total = 1 << nground
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.uint32)
        hit = np.ones(masks.size, dtype=bool)
        for block in blocks:
            hit &= (masks & block) != 0
        counts += np.bincount(np.bitwise_count(masks[hit]),
                              minlength=nground + 1)
    return counts.tolist()

IDENTITY_IDS = ("E1", "E2", "E3-printed", "E3-corrected", "E4")


def _validate(n: int, m: int, p: int) -> None:
    if n < 0 or m < 0 or p < 1:
        raise InvalidConfigError(f"invalid block configuration n={n}, m={m}, p={p}")


def f_closed(n: int, k: int, m: int, p: int) -> int:
    """Closed-form count: sum_i (-1)^i C(n,i) C(np+m-ip, n+k).

    Returns 0 automatically whenever n+k < 0 or n+k > np+m, since every
    binomial in the sum vanishes there.
    """
    _validate(n, m, p)
    return _f_closed_raw(n, k, m, p)


# Bounded: a verify run fills about 7k entries, an oracle sweep to ground
# 20 about 16k.
@lru_cache(maxsize=1 << 16)
def _f_closed_raw(n: int, k: int, m: int, p: int) -> int:
    size = n + k
    total = 0
    for i in range(n + 1):
        total += (-1) ** i * binomial(n, i) * binomial(n * p + m - i * p, size)
    return total


def f_oracle(n: int, k: int, m: int, p: int) -> int:
    """Enumeration count over all subsets of the n*p + m ground set."""
    _validate(n, m, p)
    if n * p + m > ENUMERATION_BOUND:
        raise GroundSetTooLargeError(
            f"ground set {n * p + m} exceeds enumeration bound {ENUMERATION_BOUND}")
    size = n + k
    counts = _counts_cached(n, p, m)
    if size < 0 or size >= len(counts):
        return 0
    return counts[size]


@lru_cache(maxsize=None)
def _counts_cached(n: int, p: int, m: int) -> tuple[int, ...]:
    return tuple(_kernel(n, p, m))


def sweep_oracle_vs_closed(max_ground: int = 14, p_max: int = 4):
    """Compare f_closed with f_oracle for every configuration in range.

    Covers all (n, k, m, p) with n*p + m <= max_ground and p <= p_max,
    with k running over every achievable subset size plus a margin on
    both ends.  Returns (number of comparisons, list of failures).

    Each count is visited once, so the closed form is called uncached:
    a sweep would fill _f_closed_raw with entries nothing reads.  The
    loops only reach valid configurations once the bounds are checked.
    """
    if max_ground < 0 or p_max < 1:
        raise InvalidConfigError(
            f"oracle sweep needs max_ground >= 0 and p_max >= 1, "
            f"got max_ground={max_ground}, p_max={p_max}")
    closed_sum = _f_closed_raw.__wrapped__
    checked = 0
    failures = []
    for p in range(1, p_max + 1):
        for n in range(max_ground // p + 1):
            for m in range(max_ground - n * p + 1):
                nground = n * p + m
                for size in range(-1, nground + 2):
                    k = size - n
                    closed = closed_sum(n, k, m, p)
                    oracle = f_oracle(n, k, m, p)
                    checked += 1
                    if closed != oracle:
                        failures.append({"n": n, "k": k, "m": m, "p": p,
                                         "closed": closed, "oracle": oracle})
    return checked, failures


@dataclass
class IdentityReport:
    """Outcome of sweeping one identity over a configuration range."""

    identity_id: str
    ranges: dict
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_identity(identity_id: str, max_ground: int = 12, p_max: int = 4,
                   t_max: int = 3) -> IdentityReport:
    """Sweep one of the five published f-identities over a full range.

    Every (n, k, m, p) with n*p + m <= max_ground and p <= p_max is
    visited (k covers all achievable sizes plus a margin); E2 is swept
    for t = 0..t_max.  Both sides are evaluated with f_closed, whose
    agreement with the enumeration oracle is checked separately.
    """
    if identity_id not in IDENTITY_IDS:
        raise ValueError(f"unknown identity {identity_id!r}")
    report = IdentityReport(identity_id,
                            {"max_ground": max_ground, "p_max": p_max,
                             **({"t_max": t_max} if identity_id == "E2" else {})})
    for p in range(1, p_max + 1):
        for n in range(max_ground // p + 1):
            for m in range(max_ground - n * p + 1):
                for size in range(-1, n * p + m + 2):
                    k = size - n
                    _check_one(report, identity_id, n, k, m, p, t_max)
    return report


def _check_one(report: IdentityReport, identity_id: str, n: int, k: int,
               m: int, p: int, t_max: int) -> None:
    lhs = f_closed(n, k, m, p)
    if identity_id == "E1":
        rhs = sum(binomial(m, i) * f_closed(n, k - i, 0, p) for i in range(m + 1))
        _record(report, n, k, m, p, lhs, rhs)
    elif identity_id == "E2":
        for t in range(t_max + 1):
            rhs = sum((-1) ** i * binomial(t, i) * f_closed(n, k + t, m + t - i, p)
                      for i in range(t + 1))
            _record(report, n, k, m, p, lhs, rhs, t=t)
    elif identity_id == "E3-printed":
        # As published: the right side drops to block size p-1.
        if n < 1 or p < 2:
            return
        rhs = sum(binomial(p, i) * f_closed(n - 1, k - i + 1, m, p - 1)
                  for i in range(1, p + 1))
        _record(report, n, k, m, p, lhs, rhs)
    elif identity_id == "E3-corrected":
        # Conditioning on the first block keeps block size p.
        if n < 1 or p < 2:
            return
        rhs = sum(binomial(p, i) * f_closed(n - 1, k - i + 1, m, p)
                  for i in range(1, p + 1))
        _record(report, n, k, m, p, lhs, rhs)
    elif identity_id == "E4":
        if p < 2:
            return
        rhs = sum(binomial(n, i) * binomial(i, j) * f_closed(n - j, k - i + j, m, p - 1)
                  for i in range(n + 1) for j in range(i + 1))
        _record(report, n, k, m, p, lhs, rhs)


def _record(report: IdentityReport, n, k, m, p, lhs, rhs, **extra) -> None:
    report.checked += 1
    if lhs != rhs:
        report.failures.append({"n": n, "k": k, "m": m, "p": p, **extra,
                                "lhs": lhs, "rhs": rhs})
