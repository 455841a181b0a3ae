"""Acceptance gate: the thirteen reproduction criteria, one test each.

Every test prints one criterion line (shown under -s, and in the failure
output otherwise); the pytest -v pass/fail column is the gate.

Criterion 8 pins where the published heavy-weight band patterns fail.
They do not hold at the low corner of the Gram matrix: the weight
(1-x^2)^(1/2) deviates at (3,3) and the weight (1-x^2)^(3/2) at (3,3),
(3,5) and (4,4).  The criterion asserts that both pattern checks report
"fail" with exactly those witnesses and values, that every other entry
of [3,15]^2 matches the printed pattern, and that each deviating value
agrees with an mpmath quadrature of the polynomial coefficients, a route
independent of the exact trigonometric integration.  The criterion goes
red if a deviation appears, disappears or changes value.
"""

import time
from fractions import Fraction

import mpmath

from blockcheb.polyfamily import (Family, P_FAMILY, T_FAMILY, U_FAMILY,
                                  build_by_reduction, build_by_three_term,
                                  build_definitional, build_via_t_recurrence,
                                  triangle)
from blockcheb.blockcount import sweep_oracle_vs_closed
from blockcheb.verify import (check_bound_monic_sup, check_bound_unit_circle,
                              check_chebyshev_u_coefficient,
                              check_gram_numeric_agreement,
                              check_gram_parity_q0, check_gram_q1,
                              check_gram_q3, check_gram_q_minus1,
                              check_table_13x_erratum, check_trig_residual,
                              check_zero_values, check_zeros_numeric,
                              run_suite)


def _criterion(number: int, ok: bool, summary: str) -> None:
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {summary}"
    print(line)
    assert ok, line


def _classical_rows(seed0, seed1, upto):
    rows = [list(seed0), list(seed1)]
    while len(rows) <= upto:
        prev, prev2 = rows[-1], rows[-2]
        nxt = [0] + [2 * c for c in prev]
        for j, c in enumerate(prev2):
            nxt[j] -= c
        rows.append(nxt)
    return rows


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    checked, failures = sweep_oracle_vs_closed(max_ground=14, p_max=4)
    elapsed = time.perf_counter() - start
    ok = failures == [] and checked == 3228 and elapsed < 120.0
    _criterion(1, ok, f"closed form vs enumeration, {checked} configurations "
               f"with n*p+m<=14, p<=4, {len(failures)} mismatches, "
               f"{elapsed:.2f}s")


def test_criterion_02_published_table():
    expected = {2: (0, 0, 1), 3: (0, -2, 0, 2), 4: (1, 0, -5, 0, 4),
                5: (0, 4, 0, -12, 0, 8), 6: (-1, 0, 13, 0, -28, 0, 16),
                7: (0, -6, 0, 38, 0, -64, 0, 32)}
    rows_ok = all(build_definitional(n, P_FAMILY).coeffs == c
                  for n, c in expected.items())
    erratum = check_table_13x_erratum()
    ok = rows_ok and erratum.status == "erratum-confirmed"
    _criterion(2, ok, "rows 2..7 of the (2,2) table reproduced, 13x^2 "
               "discrepancy against the printed string confirmed")


def test_criterion_03_chebyshev_specialization():
    u = _classical_rows([1], [0, 2], 30)
    t = _classical_rows([1], [0, 1], 30)
    ok = all(list(triangle(U_FAMILY).row(n)) == u[n] for n in range(31)) \
        and all(list(triangle(T_FAMILY).row(n)) == t[n]
                for n in range(1, 31))
    _criterion(3, ok, "families (0,2) and (1,2) equal independently "
               "generated U_n and T_n for n<=30")


def test_criterion_04_construction_equality():
    mismatches = 0
    count = 0
    for p in (1, 2, 3, 4):
        for m in range(0, 7):
            fam = Family(m, p)
            for n in range(m, 31):
                base = build_definitional(n, fam)
                routes = [build_by_reduction(n, fam)]
                if p == 2:
                    routes.append(build_by_three_term(n, fam))
                routes += [build_via_t_recurrence(n, fam, t)
                           for t in range(0, 4)]
                for r in routes:
                    count += 1
                    mismatches += r != base
    _criterion(4, mismatches == 0,
               f"definitional / reduction / three-term / t-recurrence "
               f"agree on {count} comparisons, m<=6, p<=4, n<=30, t<=3")


def test_criterion_05_trig_closed_form():
    check = check_trig_residual()
    _criterion(5, check.status == "pass",
               "P_n = (x^2-1) U_(n-2) as integer polynomials over "
               "3<=n<=200, so P_n(cos t) = -sin t sin((n-1)t) for every t")


def test_criterion_06_closed_form_zeros():
    values = check_zero_values()
    numeric = check_zeros_numeric()
    ok = values.status == "pass" and numeric.status == "pass"
    _criterion(6, ok, "closed-form zeros vanish to 1e-10 (exact "
               "evaluation) and match numeric roots to 1e-10 for n<=20")


def test_criterion_07_gram_pattern_chebyshev_weight():
    check = check_gram_q_minus1()
    _criterion(7, check.status == "pass",
               "weight (1-x^2)^(-1/2): pi/4 / -pi/8 / 0 band pattern "
               "exact on [3,15]^2")


# (q, n, m) -> (exact Gram entry, printed band value).  For P_3 =
# 2x(x^2-1), <P_3, P_3>_q = 4 * int_0^pi cos^2 t sin^(q+5) t dt, which by
# Wallis is 5pi/32 for q = 1 and 7pi/64 for q = 3.
HEAVY_WEIGHT_DEVIATIONS = {
    (1, 3, 3): ("5/32*pi", "3/16*pi"),
    (3, 3, 3): ("7/64*pi", "5/32*pi"),
    (3, 3, 5): ("-7/64*pi", "-15/128*pi"),
    (3, 4, 4): ("21/128*pi", "5/32*pi"),
}


def _quadrature(n: int, m: int, q: int) -> mpmath.mpf:
    pn = list(reversed(build_definitional(n, P_FAMILY).coeffs))
    pm = list(reversed(build_definitional(m, P_FAMILY).coeffs))
    with mpmath.workdps(30):
        return mpmath.quad(lambda x: mpmath.polyval(pn, x)
                           * mpmath.polyval(pm, x)
                           * (1 - x ** 2) ** (mpmath.mpf(q) / 2), [-1, 1])


def test_criterion_08_gram_patterns_heavy_weights():
    checks = {1: check_gram_q1(), 3: check_gram_q3()}
    found = {(q, int(w["n"]), int(w["m"])): (w["got"], w["pattern"])
             for q, c in checks.items() for w in c.witnesses}
    statuses_ok = all(c.status == "fail" for c in checks.values())
    complete = all("suppressed" not in c.note for c in checks.values())
    worst = max(abs(_quadrature(n, m, q)
                    - Fraction(got.removesuffix("*pi")) * mpmath.pi)
                for (q, n, m), (got, _) in HEAVY_WEIGHT_DEVIATIONS.items())
    ok = statuses_ok and complete and found == HEAVY_WEIGHT_DEVIATIONS \
        and worst <= 1e-12
    deviations = [f"q={q} {n},{m}: {got} vs {pattern}"
                  for (q, n, m), (got, pattern) in found.items()]
    _criterion(8, ok, "published band patterns for weights (1-x^2)^(1/2) "
               "and (1-x^2)^(3/2) on [3,15]^2: printed pattern refuted at "
               "exactly these entries: " + "; ".join(deviations)
               + f"; mpmath quadrature within {float(worst):.1e}")


def test_criterion_09_weight1_parity():
    check = check_gram_parity_q0()
    _criterion(9, check.status == "pass",
               "weight 1: opposite-parity inner products exactly zero "
               "on [3,15]^2")


def test_criterion_10_numeric_backend_agreement():
    check = check_gram_numeric_agreement()
    worst = check.witnesses[0]["difference"]
    _criterion(10, check.status == "pass",
               f"Gauss quadrature backend within {worst} of exact on every "
               f"Gram entry of criteria 7-9")


def test_criterion_11_u_coefficient_closed_form():
    check = check_chebyshev_u_coefficient()
    _criterion(11, check.status == "pass",
               "closed-form U coefficient equals the (0,2) triangle for "
               "n<=30, all k")


def test_criterion_12_bounds():
    circle = check_bound_unit_circle()
    monic = check_bound_monic_sup()
    ok = circle.status == "pass" and monic.status == "pass"
    _criterion(12, ok, "P_n^2 + x^2 <= 1 on [-1,1] by the exact Pell "
               "identity for 3<=n<=60 and monic sup-norm within "
               "2^(2-n) + 1e-12 for 3<=n<=20")


def test_criterion_13_erratum_suite():
    report = run_suite("errata")
    statuses = {c.check_id: c.status for c in report.checks}
    ok = statuses == {"identity-E3-printed": "erratum-confirmed",
                      "erratum-table-13x": "erratum-confirmed",
                      "erratum-extremum-arctan": "erratum-confirmed"} \
        and report.exit_code == 0
    _criterion(13, ok, "E3-printed misfire at (2,0,0,2), the 13x row and "
               "the arctan extremum all reproduce as erratum-confirmed")
