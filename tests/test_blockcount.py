"""The count kernel against brute force, and the published f-identities.

The enumerator here is written from scratch on itertools.combinations so
that neither the closed form nor the package's mask-walking kernels can
agree with it by construction.  The numpy kernel is also compared with
the pure-Python reference kernel, mask walk against mask walk.
"""

import hashlib
import itertools
import math
from pathlib import Path

import pytest

from blockcheb import blockcount, cli
from blockcheb.blockcount import (BACKEND, ENUMERATION_BOUND, _IDENTITIES,
                                  _configurations, _f_closed_raw,
                                  _f_closed_rows, _kernel, check_identity,
                                  f_closed, f_oracle, sweep_oracle_vs_closed)
from blockcheb.errors import GroundSetTooLargeError, InvalidConfigError
from reference_routes import count_intersecting_by_size

ORACLE_DIGESTS = Path(__file__).parent / "data" / "golden" / "oracle_sha256.txt"


def _independent_count(n: int, k: int, m: int, p: int) -> int:
    """Third route: label every element, enumerate combinations."""
    elements = [("block", b, i) for b in range(n) for i in range(p)]
    elements += [("extra", 0, i) for i in range(m)]
    size = n + k
    if size < 0 or size > len(elements):
        return 0
    count = 0
    for subset in itertools.combinations(elements, size):
        hit = {e[1] for e in subset if e[0] == "block"}
        if len(hit) == n:
            count += 1
    return count


def test_closed_form_against_independent_enumerator():
    for p in range(1, 4):
        for n in range(0, 8 // p + 1):
            for m in range(0, 8 - n * p + 1):
                for size in range(0, n * p + m + 1):
                    k = size - n
                    want = _independent_count(n, k, m, p)
                    assert f_closed(n, k, m, p) == want
                    assert f_oracle(n, k, m, p) == want


def test_frozen_example_counts():
    assert f_closed(1, 0, 0, 2) == 2
    assert f_closed(1, 1, 1, 2) == 3
    assert f_closed(2, 1, 0, 2) == 4
    assert f_closed(2, 0, 0, 2) == 4
    assert f_closed(0, 0, 5, 3) == 1
    assert f_closed(3, 0, 0, 2) == 8


def test_degenerate_configurations():
    # With no size-p blocks nothing is constrained: plain C(m, k).
    for k in range(-1, 7):
        want = math.comb(4, k) if 0 <= k <= 4 else 0
        assert f_closed(0, k, 4, 3) == want
    assert f_closed(0, 0, 0, 1) == 1


def test_singleton_blocks_reduce_to_binomial():
    # p = 1 forces every block element in, leaving C(m, k) free choices.
    for n in range(0, 5):
        for m in range(0, 5):
            for k in range(-1, m + 2):
                want = math.comb(m, k) if 0 <= k <= m else 0
                assert f_closed(n, k, m, 1) == want


def test_transversal_count_is_p_to_the_n():
    for p in range(1, 5):
        for n in range(0, 5):
            assert f_closed(n, 0, 0, p) == p ** n


def test_zero_outside_achievable_sizes():
    assert f_closed(2, -3, 0, 2) == 0
    assert f_closed(2, 5, 0, 2) == 0
    assert f_oracle(2, -3, 0, 2) == 0
    assert f_oracle(2, 5, 0, 2) == 0


def test_default_sweep_is_clean():
    checked, failures = sweep_oracle_vs_closed(max_ground=10, p_max=4)
    assert checked == 1419
    assert failures == []


@pytest.fixture
def fresh_tables():
    """Empty count tables, and none left behind, corrupted or not."""
    blockcount._tables.clear()
    yield
    blockcount._tables.clear()


def test_sweep_reports_a_corrupted_kernel_table(monkeypatch, fresh_tables):
    # Shape (2, 2) is counted once, at m = 2, inside the one p = 2 walk
    # (3, 2, 0); three of its counts go wrong.
    checked, failures = sweep_oracle_vs_closed(max_ground=6, p_max=2)
    assert failures == []
    blockcount._tables.clear()

    def corrupted_kernel(n, p, m):
        tables = _kernel(n, p, m)
        if p == 2:
            assert (n, m) == (3, 0)
            rows = tables[2]
            rows[0][0] += 1
            rows[1][5] -= 1
            rows[1][3] += 2
        return tables
    monkeypatch.setattr(blockcount, "_kernel", corrupted_kernel)
    assert sweep_oracle_vs_closed(max_ground=6, p_max=2) == (checked, [
        {"n": 2, "k": -2, "m": 0, "p": 2, "closed": 0, "oracle": 1},
        {"n": 2, "k": 1, "m": 1, "p": 2,
         "closed": f_closed(2, 1, 1, 2), "oracle": f_closed(2, 1, 1, 2) + 2},
        {"n": 2, "k": 3, "m": 1, "p": 2, "closed": 1, "oracle": 0},
    ])


def test_sweep_reports_a_corrupted_closed_row(monkeypatch, fresh_tables):
    checked, failures = sweep_oracle_vs_closed(max_ground=6, p_max=3)
    assert failures == []

    def corrupted_rows(n, p):
        # Corrupt copies: the builder steps its next row from the one it
        # yielded, so only the corrupted m differs.
        for m, row in enumerate(_f_closed_rows(n, p)):
            row = list(row)
            if (n, m, p) == (1, 2, 3):
                row[4] -= 1
                row[1] += 1
            if (n, m, p) == (0, 6, 1):
                row[0] = 7
            yield tuple(row)
    monkeypatch.setattr(blockcount, "_f_closed_rows", corrupted_rows)
    assert sweep_oracle_vs_closed(max_ground=6, p_max=3) == (checked, [
        {"n": 0, "k": 0, "m": 6, "p": 1, "closed": 7, "oracle": 1},
        {"n": 1, "k": 0, "m": 2, "p": 3, "closed": 4, "oracle": 3},
        {"n": 1, "k": 3, "m": 2, "p": 3, "closed": 4, "oracle": 5},
    ])


def test_sweep_reports_a_corrupted_seed_row_at_every_m(monkeypatch,
                                                       fresh_tables):
    # Size 2 of the m = 0 row of shape (1, 3), raised by 1, is carried
    # into every stepped row: row m is off by C(m, j) at size 2 + j.
    checked, failures = sweep_oracle_vs_closed(max_ground=6, p_max=3)
    assert failures == []
    seed = blockcount._f_closed_seed

    def corrupted_seed(n, p):
        row = seed(n, p)
        return row[:2] + (row[2] + 1,) + row[3:] if (n, p) == (1, 3) else row
    monkeypatch.setattr(blockcount, "_f_closed_seed", corrupted_seed)
    checked_again, failures = sweep_oracle_vs_closed(max_ground=6, p_max=3)
    assert checked_again == checked
    assert [f["m"] for f in failures] == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]
    assert failures == [
        {"n": 1, "k": s - 1, "m": m, "p": 3,
         "closed": f_closed(1, s - 1, m, 3) + math.comb(m, s - 2),
         "oracle": f_closed(1, s - 1, m, 3)}
        for m in range(4) for s in range(2, 3 + m)]


def test_oracle_documents_match_golden_digests(capsys):
    """oracle documents, byte for byte, as one kernel walk per
    configuration wrote them."""
    lines = ORACLE_DIGESTS.read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == 4
    for line in lines:
        max_ground, p_max, want = line.split()
        argv = ["oracle"] if max_ground == "default" else \
            ["oracle", "--max-ground", max_ground, "--p-max", p_max]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, line


def test_sweep_leaves_closed_form_cache_alone():
    _f_closed_raw.cache_clear()
    sweep_oracle_vs_closed(max_ground=8, p_max=3)
    assert _f_closed_raw.cache_info().currsize == 0


def test_closed_form_equals_untruncated_sum():
    # The literal inclusion-exclusion sum, every term, margins included.
    def untruncated(n, k, m, p):
        def c(a, b):
            return math.comb(a, b) if 0 <= b <= a else 0
        return sum((-1) ** i * c(n, i) * c(n * p + m - i * p, n + k)
                   for i in range(n + 1))
    closed = _f_closed_raw.__wrapped__
    for n, m, p, sizes in _configurations(20, 6):
        want = [untruncated(n, s - n, m, p) for s in sizes]
        assert [closed(n, s - n, m, p) for s in sizes] == want, (n, m, p)
        # The builder's row m holds sizes 0..n*p+m, so both margins of
        # sizes read 0; every row up to m = 20 - n*p is checked.
        if not m:
            rows = _f_closed_rows(n, p)
        row = next(rows)
        assert type(row) is tuple and len(row) == n * p + m + 1
        assert [0, *row, 0] == want, (n, m, p)


def test_count_tables_stay_bounded(monkeypatch):
    walks = []

    def counting_kernel(n, p, m):
        walks.append((n, p, m))
        return _kernel(n, p, m)
    monkeypatch.setattr(blockcount, "_kernel", counting_kernel)
    blockcount._tables.clear()
    for p in range(1, 40):
        assert f_oracle(0, 1, 3, p) == 3
    assert list(blockcount._tables) == [(0, 1)]
    walks.clear()
    sweep_oracle_vs_closed(max_ground=10, p_max=12)
    shapes = {(n, p if n else 1) for p in range(1, 13)
              for n in range(10 // p + 1)}
    assert set(blockcount._tables) == shapes
    # One walk of the whole ground set per block size p <= max_ground,
    # with as many blocks as fit; p = 11, 12 add only the block-free shape.
    assert walks == [(10 // p, p, 10 % p) for p in range(1, 11)]


def test_sweep_rejects_bound_before_enumerating(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("kernel called before the bound check")
    monkeypatch.setattr(blockcount, "_kernel", no_kernel)
    blockcount._tables.clear()
    with pytest.raises(GroundSetTooLargeError, match="max_ground 40"):
        sweep_oracle_vs_closed(max_ground=40)
    with pytest.raises(GroundSetTooLargeError):
        sweep_oracle_vs_closed(max_ground=ENUMERATION_BOUND + 1, p_max=1)
    with pytest.raises(GroundSetTooLargeError, match="p_max 25"):
        sweep_oracle_vs_closed(max_ground=2, p_max=ENUMERATION_BOUND + 1)
    assert not blockcount._tables


def test_oracle_respects_enumeration_bound():
    assert ENUMERATION_BOUND == 24
    assert f_oracle(10, 0, 0, 2) == f_closed(10, 0, 0, 2)
    with pytest.raises(GroundSetTooLargeError):
        f_oracle(12, 0, 1, 2)


def test_invalid_configurations_rejected():
    with pytest.raises(InvalidConfigError):
        f_closed(-1, 0, 0, 2)
    with pytest.raises(InvalidConfigError):
        f_closed(0, 0, -1, 2)
    with pytest.raises(InvalidConfigError):
        f_closed(0, 0, 0, 0)
    with pytest.raises(InvalidConfigError):
        f_oracle(1, 0, 0, -3)
    with pytest.raises(InvalidConfigError):
        sweep_oracle_vs_closed(max_ground=-1)
    with pytest.raises(InvalidConfigError):
        sweep_oracle_vs_closed(p_max=0)


# ------------------------------------------------------------ identities

def test_identity_sweep_counts_and_outcomes():
    expectations = {"E1": (2204, True), "E2": (8816, True),
                    "E4": (1203, True), "E3-corrected": (852, True)}
    for identity_id, (checked, passed) in expectations.items():
        count, failures = check_identity(identity_id, max_ground=12)
        assert count == checked
        assert (not failures) is passed


def test_identity_e3_printed_fails_with_canonical_witness():
    checked, failures = check_identity("E3-printed", max_ground=10)
    assert (checked, len(failures)) == (517, 170)
    assert {"n": 2, "k": 0, "m": 0, "p": 2,
            "lhs": 4, "rhs": 2} in failures


def test_identity_e2_sweeps_every_t():
    # E1 checks one instance per configuration, E2 one per t = 0..3.
    configurations, _ = check_identity("E1", max_ground=6)
    checked, failures = check_identity("E2", max_ground=6)
    assert checked == 4 * configurations
    assert failures == []


def test_unknown_identity_rejected():
    assert set(_IDENTITIES) == \
        {"E1", "E2", "E3-printed", "E3-corrected", "E4"}
    with pytest.raises(ValueError):
        check_identity("E9")


# --------------------------------------------------------------- kernels

def test_backend_is_declared():
    assert BACKEND == "numpy"


def test_numpy_and_reference_kernels_agree():
    # Every row j of every shape n' <= n of one walk is a whole walk of
    # the reference kernel.  p = 1..7 runs every sequence of fold steps:
    # none for p = 1, then 1; 1,1; 1,2; 1,2,1; 1,2,2; 1,2,3.
    for p in range(1, 8):
        for n in range(0, 4):
            for m in range(0, 12 - n * p + 1):
                tables = _kernel(n, p, m)
                assert len(tables) == n + 1
                for shape, rows in enumerate(tables):
                    assert len(rows) == (n - shape) * p + m + 1
                    for j, row in enumerate(rows):
                        assert row == \
                            count_intersecting_by_size(shape, p, j)


def test_kernel_spans_several_chunks():
    # (5, 3, 6): 2^21 masks, 128 chunks of 2^14.  (8, 2, 3): n*p = 16
    # exceeds the first chunk's 14 bits, so that chunk feeds only j = 0.
    # (4, 4, 1) and (2, 7, 3): 2^17 masks each, folded in two and three
    # steps.  (16, 1, 4): 2^20 masks and 17 shapes, the sentinel bit at
    # 16 past the first chunk.  Every row of every shape against the
    # closed form.
    for n, p, m in ((5, 3, 6), (8, 2, 3), (4, 4, 1), (2, 7, 3), (16, 1, 4)):
        tables = _kernel(n, p, m)
        assert len(tables) == n + 1
        for shape, rows in enumerate(tables):
            assert len(rows) == (n - shape) * p + m + 1
            for j, counts in enumerate(rows):
                assert counts == [f_closed(shape, s - shape, j, p)
                                  for s in range(shape * p + j + 1)]


def test_kernel_rejects_ground_set_out_of_range():
    with pytest.raises(ValueError):
        _kernel(5, 5, 0)
    with pytest.raises(ValueError):
        _kernel(0, 1, -1)


def test_fallback_kernel_shape():
    counts = count_intersecting_by_size(2, 2, 1)
    assert len(counts) == 6
    assert sum(counts) == sum(f_closed(2, s - 2, 1, 2) for s in range(6))
