"""The verification report: statuses, exit codes, determinism.

The status map pinned below is the contract of a default run: printed
claims that fail beyond the three documented errata stay plain failures,
so `verify` exits nonzero by design.  Any status drift here means either
the mathematics or the checks changed, and both deserve a loud test.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockcheb
from blockcheb import __version__, analysis, blockcount, polyfamily, verify
from blockcheb.errors import InvalidConfigError
from blockcheb.polyfamily import (Family, IntPolynomial, P_FAMILY, T_FAMILY,
                                  U_FAMILY, build_definitional, coefficient,
                                  triangle)
from blockcheb.verify import (ERRATUM_CHECK_IDS, SUITES, VerifyReport,
                              run_suite)

GOLDEN_VERIFY = Path(__file__).parent / "data" / "golden" / "verify.json"

EXPECTED_STATUS = {
    "oracle-closed-vs-enumeration": "pass",
    "identity-E1": "pass",
    "identity-E2": "pass",
    "identity-E4": "pass",
    "identity-E3-corrected": "pass",
    "identity-E3-printed": "erratum-confirmed",
    "chebyshev-u-coefficient": "pass",
    "construction-four-way-p2": "pass",
    "construction-reduction-trecurrence": "pass",
    "three-term-printed": "fail",
    "reduction-printed": "fail",
    "t-recurrence-printed": "fail",
    "trig-closed-form-residual": "pass",
    "zeros-closed-form-values": "pass",
    "zeros-numeric-agreement": "pass",
    "bound-unit-circle": "pass",
    "bound-monic-sup-norm": "pass",
    "gram-pattern-q-1": "pass",
    "gram-pattern-q1": "fail",
    "gram-pattern-q3": "fail",
    "gram-parity-q0": "pass",
    "gram-exact-vs-numeric": "pass",
    "coeff-recurrence-E2-corrected": "pass",
    "coeff-recurrence-E2-printed": "fail",
    "coeff-recurrence-E3-corrected": "pass",
    "coeff-recurrence-E3-printed": "fail",
    "triple-sum-corrected": "pass",
    "triple-sum-printed": "fail",
    "erratum-table-13x": "erratum-confirmed",
    "erratum-extremum-arctan": "erratum-confirmed",
}


def test_benchmark_status_copy_matches():
    # The benchmark judges verify reports against this copy of the map.
    copy = Path(__file__).parents[1] / "perfbench" / "verify_status.json"
    assert json.loads(copy.read_text(encoding="utf-8")) == EXPECTED_STATUS


# Installs the benchmark's tracer, which wraps blockcheb functions by
# name, then runs one traced triangle document, so the row hook reads
# Triangle._rows, and one traced gram document with its numeric column.
_TRACED_RUN = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import blockcheb.cli
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    code = blockcheb.cli.main(["triangle", "--m", "2", "--p", "3",
                               "--max-n", "6"])
assert code == 0, code
assert tracer.counters["polyfamily.row.rows"] == 5, tracer.counters
assert tracer.stats["documents.build"][0] == 1, tracer.stats
with contextlib.redirect_stdout(io.StringIO()):
    code = blockcheb.cli.main(["gram", "--weight", "0", "--range", "3..5"])
assert code == 0, code
"""


def test_benchmark_tracer_hooks_resolve():
    """A renamed or deleted function the benchmark's tracer wraps breaks
    every traced benchmark operation; here it fails the tests instead."""
    env = dict(os.environ)
    package_root = str(Path(blockcheb.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    perfbench = Path(__file__).parents[1] / "perfbench"
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(perfbench)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def full_report():
    return run_suite("all")


def test_full_report_status_map(full_report):
    got = {c.check_id: c.status for c in full_report.checks}
    assert got == EXPECTED_STATUS


def test_full_report_exits_nonzero(full_report):
    # Plain failures (printed-variant defects) exist, so exit 1.
    assert full_report.exit_code == 1


def test_erratum_status_is_reserved(full_report):
    confirmed = {c.check_id for c in full_report.checks
                 if c.status == "erratum-confirmed"}
    assert confirmed == set(ERRATUM_CHECK_IDS)


def test_failures_carry_witnesses(full_report):
    for c in full_report.checks:
        if c.status == "fail":
            assert c.witnesses, c.check_id
            assert all(isinstance(w, dict) for w in c.witnesses)


def test_witness_capping(full_report):
    by_id = {c.check_id: c for c in full_report.checks}
    capped = by_id["reduction-printed"]
    assert len(capped.witnesses) == 6
    assert "further witnesses suppressed" in capped.note


def test_report_json_shape(full_report):
    payload = json.loads(full_report.to_json())
    assert payload["schemaVersion"] == 1
    assert payload["toolVersion"] == __version__
    assert payload["suite"] == "all"
    assert len(payload["checks"]) == len(EXPECTED_STATUS)
    for check in payload["checks"]:
        assert set(check) == {"checkId", "range", "status", "witnesses",
                              "note"}


def test_report_matches_golden(full_report):
    """The full report is byte-identical to tests/data/golden/verify.json.

    A change that alters these bytes on purpose regenerates the file with
    `PYTHONPATH=src python tests/regen_golden.py` and explains the
    difference in CHANGES.md.
    """
    assert full_report.to_json() == GOLDEN_VERIFY.read_text(encoding="utf-8")


def test_report_has_no_timestamps(full_report):
    # Byte-identical reruns are the determinism contract; a timestamp
    # anywhere would break them silently.
    text = full_report.to_json().lower()
    for needle in ("time", "date", "seconds"):
        assert needle not in text


def test_suite_exit_codes():
    assert run_suite("oracle").exit_code == 0
    assert run_suite("errata").exit_code == 0
    assert run_suite("zeros").exit_code == 0
    assert run_suite("constructions").exit_code == 1


def test_errata_suite_contents():
    report = run_suite("errata")
    assert [c.check_id for c in report.checks] == list(ERRATUM_CHECK_IDS)
    assert all(c.status == "erratum-confirmed" for c in report.checks)


def test_deterministic_rerun():
    assert run_suite("errata").to_json() == run_suite("errata").to_json()
    assert run_suite("oracle").to_json() == run_suite("oracle").to_json()


def test_suites_cover_all_checks_once(full_report):
    # "all" deduplicates the shared erratum check between suites.
    ids = [c.check_id for c in full_report.checks]
    assert len(ids) == len(set(ids))
    total = {fn for group in SUITES.values() for fn in group}
    assert len(ids) == len(total)


def test_unknown_suite_rejected():
    with pytest.raises(InvalidConfigError):
        run_suite("everything")


def test_exit_code_logic_is_fail_only():
    from blockcheb.verify import CheckResult
    only_errata = VerifyReport("x", (CheckResult("a", "r",
                                                 "erratum-confirmed"),))
    assert only_errata.exit_code == 0
    mixed = VerifyReport("x", (CheckResult("a", "r", "pass"),
                               CheckResult("b", "r", "fail")))
    assert mixed.exit_code == 1


def test_bound_unit_circle_fails_without_certificate(monkeypatch):
    monkeypatch.setattr(verify, "bound_check", lambda n: math.inf)
    check = verify.check_bound_unit_circle()
    assert check.status == "fail"
    assert check.witnesses == ({"n": "3", "max P^2+x^2": "inf"},)


def test_bound_unit_circle_fails_on_a_corrupted_row(monkeypatch):
    build = analysis.build_definitional

    def corrupt_t30(n, family):
        row = build(n, family)
        if (n, family) == (30, T_FAMILY):
            return row + IntPolynomial((1,))
        return row
    monkeypatch.setattr(analysis, "build_definitional", corrupt_t30)
    assert analysis.bound_check(30) == 1.0
    assert analysis.bound_check(31) == math.inf
    check = verify.check_bound_unit_circle()
    assert check.status == "fail"
    assert check.witnesses == ({"n": "31", "max P^2+x^2": "inf"},)


def test_trig_identity_fails_on_a_corrupted_row(monkeypatch):
    build = verify.build_definitional

    def corrupt_p17(n, family):
        row = build(n, family)
        return row + IntPolynomial((0, 1)) if (n, family) == (17, P_FAMILY) \
            else row
    monkeypatch.setattr(verify, "build_definitional", corrupt_p17)
    check = verify.check_trig_residual()
    assert check.status == "fail"
    assert [w["n"] for w in check.witnesses] == ["17"]
    assert check.witnesses[0]["row"] == \
        str(build(17, P_FAMILY) + IntPolynomial((0, 1)))


def test_closed_row_table_holds_a_full_run():
    # Every row a full run reads fits the table at once: none is evicted
    # and built again.
    polyfamily._closed_row.cache_clear()
    run_suite("all")
    info = polyfamily._closed_row.cache_info()
    assert info.misses == info.currsize < info.maxsize


@pytest.fixture
def corrupt_closed_row(monkeypatch):
    """Add 1 to c~(n0, k0) of family (m0, p0) in the closed-form row
    table."""
    table = polyfamily._closed_row

    def corrupt(n0, m0, p0, k0):
        def corrupted(n, m, p):
            row = table(n, m, p)
            if (n, m, p) != (n0, m0, p0):
                return row
            a = (n + k0) // 2 - m
            return row[:a] + (row[a] + 1,) + row[a + 1:]
        monkeypatch.setattr(polyfamily, "_closed_row", corrupted)
    return corrupt


def test_coeff_e2_fails_on_a_corrupted_closed_row(corrupt_closed_row):
    value = coefficient(10, 2, U_FAMILY)
    corrupt_closed_row(10, 0, 2, 2)
    check = verify.check_coeff_e2_corrected()
    assert check.status == "fail"
    # The E2 rows sum triangle rows, so the closed-form row 10 is read
    # only as the coefficient side, once for each t.
    assert [(w["n"], w["k"], w["t"]) for w in check.witnesses] == [
        ("10", "2", "0"), ("10", "2", "1"), ("10", "2", "2"),
        ("10", "2", "3")]
    assert check.witnesses[1] == {
        "family": "(m=0, p=2)", "n": "10", "k": "2", "t": "1",
        "got": str(value), "coefficient": str(value + 1)}


def test_coeff_recurrences_fail_on_a_corrupted_triangle_row():
    # The twin of the test above: the triangle row 10 of (0, 2) is read
    # only on the recurrence side, by the E2 rows 10 - t at power 2 + t
    # and the E3 rows 11 and 12 (weights 2 and -1).
    tri = triangle(U_FAMILY)
    tri.row(12)
    stored = tri._rows[10]
    tri._rows[10] = stored[:2] + (stored[2] + 1,) + stored[3:]
    try:
        e2 = verify.check_coeff_e2_corrected()
        e3 = verify.check_coeff_e3_corrected()
    finally:
        tri._rows[10] = stored
    assert e2.status == e3.status == "fail"
    assert [(w["n"], w["k"], w["t"]) for w in e2.witnesses] == [
        ("7", "5", "3"), ("8", "4", "2"), ("9", "3", "1"), ("10", "2", "0")]
    assert e2.witnesses[3] == {
        "family": "(m=0, p=2)", "n": "10", "k": "2", "t": "0",
        "got": str(stored[2] + 1), "coefficient": str(stored[2])}
    assert e3.witnesses == (
        {"family": "(m=0, p=2)", "n": "11", "k": "3",
         "got": str(coefficient(11, 3, U_FAMILY) + 2),
         "coefficient": str(coefficient(11, 3, U_FAMILY))},
        {"family": "(m=0, p=2)", "n": "12", "k": "2",
         "got": str(coefficient(12, 2, U_FAMILY) - 1),
         "coefficient": str(coefficient(12, 2, U_FAMILY))})


def test_verify_reports_a_row_whose_roots_are_not_all_real():
    # Row 10 of (2, 2) with its x^2 coefficient raised by 1 keeps 6 of
    # its 10 roots real, which numeric_zeros refuses for this family; the
    # report still comes back, with the row as the zeros witness.
    tri = triangle(P_FAMILY)
    tri.row(10)
    stored = tri._rows[8]
    tri._rows[8] = stored[:2] + (stored[2] + 1,) + stored[3:]
    try:
        report = verify.run_suite("all")
    finally:
        tri._rows[8] = stored
    check, = (c for c in report.checks
              if c.check_id == "zeros-numeric-agreement")
    assert check.status == "fail"
    assert check.witnesses == ({"n": "10", "max-gap": "inf"},)


def test_three_way_fails_on_a_corrupted_left_edge(corrupt_closed_row):
    # Power -1 of row 11 of (0, 3) is a virtual coefficient: the t-fold
    # recurrence of (0, 3) shifts it into rows 10, 9, 8 (t = 1, 2, 3) and
    # the reduction of every (m, 3), m >= 1, into m rows from 11 + m up
    # to n = 16.  A p <= 2 left edge is 0 and never read.
    corrupt_closed_row(11, 0, 3, -1)
    check = verify.check_three_way_other_p()
    assert check.status == "fail"
    assert check.note.endswith("5 further witnesses suppressed")
    assert [(w["family"], w["n"], w["route"]) for w in check.witnesses] == [
        ("(m=0, p=3)", "8", "t-recurrence(t=3)"),
        ("(m=0, p=3)", "9", "t-recurrence(t=2)"),
        ("(m=0, p=3)", "10", "t-recurrence(t=1)"),
        ("(m=1, p=3)", "12", "reduction"),
        ("(m=2, p=3)", "13", "reduction"),
        ("(m=2, p=3)", "14", "reduction")]
    row = build_definitional(10, Family(0, 3))
    assert check.witnesses[2]["got"] == str(row + IntPolynomial((1,)))
    assert check.witnesses[2]["expected"] == str(row)


def test_four_way_fails_on_a_corrupted_three_term_row(monkeypatch):
    fam = Family(3, 2)
    rows = polyfamily.three_term_rows(30, fam)
    rows[12 - 3] += IntPolynomial((0, 1))
    sequences = verify.three_term_rows
    monkeypatch.setattr(
        verify, "three_term_rows",
        lambda n, family, variant="corrected":
        rows if (n, family, variant) == (30, fam, "corrected")
        else sequences(n, family, variant))
    check = verify.check_four_way_p2()
    assert check.status == "fail"
    assert check.witnesses == (
        {"family": "(m=3, p=2)", "n": "12", "route": "three-term",
         "got": str(rows[12 - 3]),
         "expected": str(build_definitional(12, fam))},)


def test_identity_e2_fails_on_a_corrupted_count(monkeypatch):
    count = blockcount._f_closed_raw
    monkeypatch.setattr(
        blockcount, "_f_closed_raw",
        lambda n, k, m, p: count(n, k, m, p) + ((n, k, m, p) == (2, 1, 0, 2)))
    check = verify.check_identity_e2()
    assert check.status == "fail"
    # f(2, 1, 0, 2) = 4 is the left side at t >= 1 (at t = 0 both sides
    # read it) and the t-th right-hand term of k = 1 - t, t = 1, 2, 3.
    assert [(w["k"], w["t"]) for w in check.witnesses] == [
        ("-2", "3"), ("-1", "2"), ("0", "1"), ("1", "1"), ("1", "2"),
        ("1", "3")]
    assert check.witnesses[3] == {"n": "2", "k": "1", "m": "0", "p": "2",
                                  "t": "1", "lhs": "5", "rhs": "4"}


def test_row_compare_fails_on_unequal_lengths(monkeypatch):
    # A row one power too long or too short fails at that power, which
    # reads None on the shorter side; zip alone would pass the long one.
    rows = verify.coeff_recurrence_e3_row

    def resized(n, family, variant):
        row = rows(n, family, variant)
        if family == P_FAMILY and n in (5, 6):
            return row + (0,) if n == 5 else row[:-1]
        return row
    monkeypatch.setattr(verify, "coeff_recurrence_e3_row", resized)
    check = verify.check_coeff_e3_corrected()
    assert check.status == "fail"
    assert check.witnesses == (
        {"family": "(m=2, p=2)", "n": "5", "k": "6", "got": "0",
         "coefficient": "None"},
        {"family": "(m=2, p=2)", "n": "6", "k": "6", "got": "None",
         "coefficient": str(coefficient(6, 6, P_FAMILY))})


def _raise_closed_seed(shape, size):
    """Add 1 at one subset size of the m = 0 closed-form row of a block
    shape (n, p): the oracle sweep steps every larger extra block of
    that shape from it."""
    def corrupt(monkeypatch):
        seed = blockcount._f_closed_seed

        def corrupted(n, p):
            row = seed(n, p)
            if (n, p) != shape:
                return row
            return row[:size] + (row[size] + 1,) + row[size + 1:]
        monkeypatch.setattr(blockcount, "_f_closed_seed", corrupted)
    return corrupt


# Each row: one corruption, and the exact set of checks it turns from
# pass to fail.  A check that stops reading what it claims to check
# drops out of its row's set, and a route shared by two checks shows
# up as a second check in the set.
SENSITIVITY = [
    # No identity check reads the stepped rows.
    pytest.param(_raise_closed_seed((2, 2), 3),
                 {"oracle-closed-vs-enumeration"},
                 id="closed-seed-(2,2)-size-3"),
]


@pytest.mark.parametrize("corrupt, flipped", SENSITIVITY)
def test_a_corruption_flips_exactly_its_checks(monkeypatch, corrupt,
                                               flipped):
    corrupt(monkeypatch)
    got = {c.check_id: c.status for c in run_suite("all").checks}
    changed = {check_id for check_id, status in got.items()
               if status != EXPECTED_STATUS[check_id]}
    assert changed == flipped
    assert {EXPECTED_STATUS[c] for c in flipped} == {"pass"}
    assert {got[c] for c in flipped} == {"fail"}
