"""Named verification checks and the machine-readable report.

Each check sweeps one published claim (or one repaired variant of a
claim) over a fixed default range and reports pass, fail, or
erratum-confirmed.  The last status is reserved for the three known
discrepancies between the printed source and the oracle-validated
mathematics:

  * identity (3) as printed, which loses a factor at (2,0,0,2),
  * the "13x" term in the printed (2,2) table row of degree 6,
  * the extreme points of the cubic row printed as +-arctan(sqrt 2)
    where the substitution gives x = cos(arctan sqrt 2) = 1/sqrt 3.

Erratum checks confirm that the discrepancy still reproduces; they
count as successes.  Printed claims that turn out false beyond those
three are reported as plain failures with witnesses, so a default run
exits nonzero: the printed source contains defects past the documented
errata, and this suite does not paper over them.  The repaired
variants carry their own checks, which do pass.

Every sweep has one of two verdict shapes: _verdict passes when a list
of failures is empty (_compare builds that list from two routes to the
same value), and _worst passes when the largest deviation stays within
a tolerance.  Only the erratum checks have bodies of their own.

Reports carry no timestamps; two runs of the same build are
byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product, zip_longest

from . import __version__
from .analysis import (MAX_ROOT_DEGREE, bound_check, closed_form_zeros,
                       evaluate_exact_at_float, extrema, monic_sup_norm,
                       numeric_zeros)
from .blockcount import check_identity, f_closed, sweep_oracle_vs_closed
from .errors import ConvergenceError, InvalidConfigError
from .exact import PiRational, binomial
from .orthocheck import Weight, exact_gram, gram_matrix, theorem_band_value
from .polyfamily import (Family, IntPolynomial, P_FAMILY, U_FAMILY,
                         build_by_reduction, build_definitional,
                         build_via_t_recurrence, chebyshev_u_coefficient,
                         coeff_recurrence_e2_row, coeff_recurrence_e3_row,
                         coeff_triple_sum_row, coefficient_row,
                         three_term_rows, triangle)

SCHEMA_VERSION = 1
WITNESS_CAP = 6


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    range: str
    status: str  # pass | fail | erratum-confirmed
    witnesses: tuple = ()
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def exit_code(self) -> int:
        return 1 if any(c.status == "fail" for c in self.checks) else 0

    def to_json(self) -> str:
        payload = {
            "schemaVersion": SCHEMA_VERSION,
            "toolVersion": __version__,
            "suite": self.suite,
            "checks": [{
                "checkId": c.check_id,
                "range": c.range,
                "status": c.status,
                "witnesses": list(c.witnesses),
                "note": c.note,
            } for c in self.checks],
        }
        return json.dumps(payload, indent=2) + "\n"


def _verdict(check_id: str, rng: str, failures: list, note: str,
             witness=None) -> CheckResult:
    """Pass when nothing failed; the first WITNESS_CAP failures are shown.

    witness, when given, turns one failure into its witness fields; it
    runs only on the failures that are shown.
    """
    shown = failures[:WITNESS_CAP]
    if witness is not None:
        shown = [witness(f) for f in shown]
    if len(failures) > WITNESS_CAP:
        note += f"; {len(failures) - WITNESS_CAP} further witnesses suppressed"
    return CheckResult(check_id, rng, "fail" if failures else "pass",
                       tuple(shown), note)


def _worst(check_id: str, rng: str, domain, measure, tol: float,
           fields: tuple, note: str) -> CheckResult:
    """Pass when measure(*case) stays within tol over every case of domain.

    The witness is the first case of largest value: fields names its
    coordinates and then the value.  The scan starts from 0.0, so when
    no value is positive the witness names no case (its coordinates
    read None).
    """
    worst, where = 0.0, (None,) * (len(fields) - 1)
    for case in domain:
        value = measure(*case)
        if value > worst:
            worst, where = value, case
    return CheckResult(check_id, rng, "pass" if worst <= tol else "fail",
                       (dict(zip(fields, map(str, (*where, worst)))),), note)


def _compare(check_id: str, rng: str, domain, got, want, labels: tuple,
             keys: tuple, note: str) -> CheckResult:
    """Verdict on got(*case) == want(*case) for every case of domain.

    labels names the coordinates of a case and keys the two values in a
    witness; note may use {count}, the number of cases compared.
    """
    failures = []
    count = 0
    for case in domain:
        count += 1
        g, w = got(*case), want(*case)
        if g != w:
            failures.append((*case, g, w))
    return _verdict(check_id, rng, failures, note.format(count=count),
                    lambda f: dict(zip(labels + keys, map(str, f))))


def _compare_rows(check_id: str, rng: str, cells, got, labels: tuple,
                  note: str, first=None) -> CheckResult:
    """Verdict on the row got(*cell) against coefficient_row, power by
    power.

    A cell is (family, n, *rest) and both rows hold the powers 0..n;
    first(family, n), when given, is the least power compared.  A
    failure names (family, n, k, *rest), as labels does, then the two
    values as got and coefficient.  Rows of unequal length fail at every
    power past the shorter one, which reads None there.  note may use
    {count}, the number of powers compared.
    """
    failures = []
    count = 0
    for fam, n, *rest in cells:
        low = first(fam, n) if first else 0
        if low > n:
            continue
        g, w = got(fam, n, *rest)[low:], coefficient_row(n, fam)[low:]
        count += max(len(g), len(w))
        if g != w:
            failures.extend((fam, n, k, *rest, a, b) for k, (a, b)
                            in enumerate(zip_longest(g, w), low) if a != b)
    return _verdict(check_id, rng, failures, note.format(count=count),
                    lambda f: dict(zip(labels + ("got", "coefficient"),
                                       map(str, f))))


def _powers(n: int) -> range:
    return range(n + 1)


def _grid(ps, m_max: int, n_max: int, *axes):
    """Cells (family, n, ...) for p in ps, m <= m_max and m <= n <= n_max.

    Each axis, a sequence of values, adds one coordinate, looping inside
    the ones before it.
    """
    for p in ps:
        for m in range(m_max + 1):
            fam = Family(m, p)
            for n in range(m, n_max + 1):
                for rest in product(*axes):
                    yield (fam, n, *rest)


# ---------------------------------------------------------------- oracle

def check_oracle(max_ground: int = 10, p_max: int = 4) -> CheckResult:
    checked, failures = sweep_oracle_vs_closed(max_ground, p_max)
    return _verdict("oracle-closed-vs-enumeration",
                    f"n*p+m<={max_ground}, p<={p_max}", failures,
                    f"{checked} configurations enumerated")


# ------------------------------------------------------------ identities

def _identity_check(identity_id: str) -> CheckResult:
    checked, failures = check_identity(identity_id, max_ground=12)
    return _verdict(f"identity-{identity_id}", "n*p+m<=12", failures,
                    f"{checked} instances checked",
                    lambda f: {k: str(v) for k, v in f.items()})


check_identity_e1 = partial(_identity_check, "E1")
check_identity_e2 = partial(_identity_check, "E2")
check_identity_e4 = partial(_identity_check, "E4")
check_identity_e3_corrected = partial(_identity_check, "E3-corrected")


def check_identity_e3_printed() -> CheckResult:
    """Erratum: identity (3) as printed fails; canonical witness (2,0,0,2).

    The printed right side conditions on one block but drops the
    remaining blocks to size p-1: sum_i C(p,i) f(n-1, k-i+1, m, p-1).
    """
    lhs = f_closed(2, 0, 0, 2)
    rhs = sum(binomial(2, i) * f_closed(1, 1 - i, 0, 1) for i in range(1, 3))
    checked, failures = check_identity("E3-printed", max_ground=10)
    reproduces = lhs == 4 and rhs == 2 and bool(failures)
    wit = ({"n": "2", "k": "0", "m": "0", "p": "2",
            "lhs": str(lhs), "rhs": str(rhs)},)
    return CheckResult(
        "identity-E3-printed", "witness (2,0,0,2); sweep n*p+m<=10",
        "erratum-confirmed" if reproduces else "fail", wit,
        f"printed sign/argument variant fails {len(failures)} of "
        f"{checked} instances; corrected variant passes the same sweep")


def check_chebyshev_u_coefficient() -> CheckResult:
    tri = triangle(U_FAMILY)
    return _compare("chebyshev-u-coefficient", "n<=30, all k",
                    ((n, k) for n in range(31) for k in _powers(n)),
                    chebyshev_u_coefficient, lambda n, k: tri.row(n)[k],
                    ("n", "k"), ("corollary", "triangle"),
                    "{count} coefficients compared")


# ---------------------------------------------------------- constructions

def _definitional(fam: Family, n: int, *_) -> IntPolynomial:
    return build_definitional(n, fam)


_T_ROUTES = {f"t-recurrence(t={t})":
             lambda n, fam, t=t: build_via_t_recurrence(n, fam, t)
             for t in range(0, 4)}


def _route_check(check_id: str, rng: str, ps, m_max: int, n_max: int,
                 routes: dict) -> CheckResult:
    """Rows built by each route against the definitional row, which is
    built once per (family, n)."""
    grid = list(_grid(ps, m_max, n_max))
    rows = {(fam.m, fam.p, n): build_definitional(n, fam) for fam, n in grid}
    return _compare(check_id, rng,
                    ((fam, n, route) for fam, n in grid for route in routes),
                    lambda fam, n, route: routes[route](n, fam),
                    lambda fam, n, route: rows[fam.m, fam.p, n],
                    ("family", "n", "route"), ("got", "expected"),
                    "{count} route comparisons")


def check_four_way_p2() -> CheckResult:
    # One sequence per family, read by row: stepping each row from the
    # seeds would repeat the steps of every row below it.
    rows = {m: three_term_rows(30, Family(m, 2)) for m in range(7)}
    return _route_check("construction-four-way-p2", "p=2, m<=6, n<=30, t<=3",
                        (2,), 6, 30, {"reduction": build_by_reduction,
                                      "three-term": lambda n, fam:
                                      rows[fam.m][n - fam.m],
                                      **_T_ROUTES})


def check_three_way_other_p() -> CheckResult:
    return _route_check("construction-reduction-trecurrence",
                        "p in {1,3,4}, m<=4, n<=16, t<=3", (1, 3, 4), 4, 16,
                        {"reduction": build_by_reduction, **_T_ROUTES})


def check_three_term_printed() -> CheckResult:
    """The three-term corollary exactly as published (no closing term)."""
    rows = {m: three_term_rows(30, Family(m, 2), "printed") for m in range(7)}
    return _compare(
        "three-term-printed", "p=2, m<=6, n<=30", _grid((2,), 6, 30),
        lambda fam, n: rows[fam.m][n - fam.m],
        _definitional, ("family", "n"), ("printed", "definitional"),
        "{count} rows compared; printed seeds drop the closing binomial "
        "term, so rows m+2..2m disagree for m>=2")


def check_reduction_printed() -> CheckResult:
    """The reduction to m = 0 exactly as published, p<=2 safe only."""
    return _compare(
        "reduction-printed", "p in {3,4}, m<=4, n<=16", _grid((3, 4), 4, 16),
        lambda fam, n: build_by_reduction(n, fam, variant="printed"),
        _definitional, ("family", "n"), ("printed", "definitional"),
        "{count} rows compared; the window claim in the published proof "
        "(counts vanish past the diagonal) only holds for p<=2")


def check_t_recurrence_printed() -> CheckResult:
    """The t-fold recurrence exactly as published, which is p<=2 safe only."""
    return _compare(
        "t-recurrence-printed", "p in {3,4}, m<=3, n<=10, 1<=t<=3",
        _grid((3, 4), 3, 10, range(1, 4)),
        lambda fam, n, t: build_via_t_recurrence(n, fam, t, variant="printed"),
        _definitional, ("family", "n", "t"), ("printed", "definitional"),
        "{count} rows compared; the printed sum silently drops counts whose "
        "power index goes negative, which only cancels for p<=2")


# ------------------------------------------------------------------ trig

def check_trig_residual() -> CheckResult:
    """P_n = (x^2 - 1) U_(n-2) as integer polynomials for 3 <= n <= the
    root-finding limit, every row whose closed-form zeros extrema uses.

    Since sin((n-1) t) = sin t U_(n-2)(cos t), the identity is the closed
    form P_n(cos t) = -sin t sin((n-1) t) at every t.  U comes from its
    own recurrence, not from the (0, 2) triangle.
    """
    us = [IntPolynomial((1,)), IntPolynomial((0, 2))]
    while len(us) < MAX_ROOT_DEGREE - 1:
        us.append(us[-1].shift(1) * 2 - us[-2])
    return _compare("trig-closed-form-residual",
                    f"3<=n<={MAX_ROOT_DEGREE}, exact identity",
                    ((n,) for n in range(3, MAX_ROOT_DEGREE + 1)),
                    lambda n: build_definitional(n, P_FAMILY),
                    lambda n: us[n - 2].shift(2) - us[n - 2],
                    ("n",), ("row", "(x^2-1)U_(n-2)"),
                    "{count} rows equal (x^2-1) U_(n-2), U_k = 2x U_(k-1) "
                    "- U_(k-2), so P_n(cos t) = -sin t sin((n-1)t) for "
                    "every t")


# ----------------------------------------------------------------- zeros

def check_zero_values() -> CheckResult:
    return _worst(
        "zeros-closed-form-values", "3<=n<=20",
        ((n, x) for n in range(3, 21) for x in closed_form_zeros(n).roots),
        lambda n, x: abs(float(evaluate_exact_at_float(
            build_definitional(n, P_FAMILY), x))),
        1e-10, ("n", "x", "|P(x)|"),
        "|P| at the closed-form zeros, polynomial evaluated exactly at the "
        "rounded root")


def _zero_gap(n: int) -> float:
    """Largest distance between paired closed-form and numeric roots.

    Root sets of different sizes cannot be paired, and a row whose roots
    are not all real has no numeric root set: either gap is inf.
    """
    closed = closed_form_zeros(n)
    try:
        numeric = numeric_zeros(build_definitional(n, P_FAMILY), P_FAMILY)
    except ConvergenceError:
        return math.inf
    if numeric.count != closed.count:
        return math.inf
    return max(abs(a - b) for a, b in zip(closed.roots, numeric.roots))


def check_zeros_numeric() -> CheckResult:
    return _worst("zeros-numeric-agreement", "3<=n<=20",
                  ((n,) for n in range(3, 21)), _zero_gap, 1e-10,
                  ("n", "max-gap"),
                  "Sturm isolation + exact Newton vs closed form")


# ---------------------------------------------------------------- bounds

def check_bound_unit_circle() -> CheckResult:
    return _worst("bound-unit-circle", "3<=n<=60, exact identity",
                  ((n,) for n in range(3, 61)), bound_check, 1 + 1e-12,
                  ("n", "max P^2+x^2"),
                  "P_n(x)^2 + x^2 <= 1 on [-1,1]: 1 - x^2 - P_n^2 = "
                  "(1-x^2) T_(n-1)^2 as integer polynomials (Pell)")


def check_bound_monic_sup() -> CheckResult:
    sups = [(n, monic_sup_norm(n), 2.0 ** (2 - n)) for n in range(3, 21)]
    ratio = max(0.0, *(sup / limit for _, sup, limit in sups))
    return _verdict(
        "bound-monic-sup-norm", "3<=n<=20",
        [{"n": str(n), "sup": repr(sup), "limit": repr(limit)}
         for n, sup, limit in sups if sup > limit + 1e-12],
        f"monic row sup-norm stays within twice the minimal 2^(1-n); "
        f"worst ratio to 2^(2-n) is {ratio:.6f}")


# ----------------------------------------------------------- orthogonality

def _gram_pattern_check(q: int) -> CheckResult:
    w = Weight(q)
    block = exact_gram(range(3, 16), P_FAMILY, w)
    return _compare(f"gram-pattern-q{q}",
                    f"n,m in [3,15], weight (1-x^2)^({q}/2)",
                    ((n, m) for n in range(3, 16) for m in range(n, 16)),
                    lambda n, m: block[n - 3][m - 3],
                    lambda n, m: theorem_band_value(m - n, w),
                    ("n", "m"), ("got", "pattern"),
                    "exact PiRational comparison against the published "
                    "band pattern")


check_gram_q_minus1 = partial(_gram_pattern_check, -1)
check_gram_q1 = partial(_gram_pattern_check, 1)
check_gram_q3 = partial(_gram_pattern_check, 3)


def check_gram_parity_q0() -> CheckResult:
    block = exact_gram(range(3, 16), P_FAMILY, Weight(0))
    zero = PiRational.of(0)
    return _compare("gram-parity-q0", "opposite-parity n,m in [3,15], weight 1",
                    ((n, m) for n in range(3, 16) for m in range(n + 1, 16, 2)),
                    lambda n, m: block[n - 3][m - 3],
                    lambda n, m: zero, ("n", "m"), ("got", "expected"),
                    "{count} inner products, each exactly zero")


def check_gram_numeric_agreement() -> CheckResult:
    gaps = {(e.n, e.m, q): abs(float(e.exact) - e.numeric)
            for q in (-1, 0, 1, 3)
            for e in gram_matrix((3, 15), P_FAMILY, Weight(q)).entries()}
    return _worst("gram-exact-vs-numeric", "q in {-1,0,1,3} full [3,15]",
                  zip(gaps), gaps.get, 1e-10, ("entry", "difference"),
                  f"{len(gaps)} entries, Gauss quadrature vs exact integrals")


# ------------------------------------------------------------ recurrences

def _e2_check(check_id: str, variant: str, note: str) -> CheckResult:
    return _compare_rows(
        check_id, "p<=4, m<=4, n<=14, t<=3",
        _grid((1, 2, 3, 4), 4, 14, range(4)),
        lambda fam, n, t: coeff_recurrence_e2_row(n, fam, t, variant),
        ("family", "n", "k", "t"), note)


def check_coeff_e2_corrected() -> CheckResult:
    return _e2_check(
        "coeff-recurrence-E2-corrected", "corrected",
        "{count} coefficients; t-fold coefficient recurrence with the "
        "closing counts")


def check_coeff_e2_printed() -> CheckResult:
    return _e2_check(
        "coeff-recurrence-E2-printed", "printed",
        "{count} coefficients; verbatim published sum; exact only for p<=2 "
        "or t=0")


def check_coeff_e3_corrected() -> CheckResult:
    return _compare_rows(
        "coeff-recurrence-E3-corrected",
        "p in {2,3,4}, m<=4, n<=14, n+k>=2m+2, k>=1 for p>2",
        _grid((2, 3, 4), 4, 14),
        lambda fam, n: coeff_recurrence_e3_row(n, fam, "corrected"),
        ("family", "n", "k"),
        "{count} coefficients; sign-repaired recurrence; excluded are the "
        "anti-diagonal n+k=2m, where the descent has no room, and k=0 for "
        "p>=3, where its power -1 lookup discards nonzero count mass",
        first=lambda fam, n: max(2 * fam.m + 2 - n, int(fam.p > 2)))


def check_coeff_e3_printed() -> CheckResult:
    return _compare_rows(
        "coeff-recurrence-E3-printed", "p in {2,3,4}, m<=4, n<=14, all k",
        ((fam, n) for fam, n in _grid((2, 3, 4), 4, 14) if n >= 1),
        lambda fam, n: coeff_recurrence_e3_row(n, fam, "printed"),
        ("family", "n", "k"),
        "{count} coefficients; verbatim published recurrence (printed sign)")


def _triple_sum_check(check_id: str, variant: str, note: str) -> CheckResult:
    return _compare_rows(
        check_id, "p in {2,3,4}, m<=4, n<=12", _grid((2, 3, 4), 4, 12),
        lambda fam, n: coeff_triple_sum_row(n, fam, variant),
        ("family", "n", "k"), note)


def check_triple_sum_corrected() -> CheckResult:
    return _triple_sum_check(
        "triple-sum-corrected", "corrected",
        "{count} coefficients; three-fold reduction to the (0, p-1) "
        "triangle, repaired index translation")


def check_triple_sum_printed() -> CheckResult:
    return _triple_sum_check(
        "triple-sum-printed", "printed",
        "{count} coefficients; verbatim published triple sum")


# ---------------------------------------------------------------- errata

def check_table_13x_erratum() -> CheckResult:
    """Erratum: the printed degree-6 row has 13x where row data gives 13x^2."""
    printed = (-1, 13, 0, 0, -28, 0, 16)
    corrected = (-1, 0, 13, 0, -28, 0, 16)
    computed = tuple(build_definitional(6, P_FAMILY).coeffs)
    reproduces = computed == corrected and computed != printed
    wit = ({"printed": "16x^6-28x^4+13x-1",
            "computed": "16x^6-28x^4+13x^2-1"},)
    return CheckResult("erratum-table-13x", "degree-6 row, family (2,2)",
                       "erratum-confirmed" if reproduces else "fail", wit,
                       "definitional row contradicts the printed first-power "
                       "term and confirms the even-parity correction")


def check_extremum_erratum() -> CheckResult:
    """Erratum: cubic extreme points printed as +-arctan(sqrt 2).

    That value solves the theta equation 2 tan t + tan 2t = 0; the
    extreme point itself is its cosine, 1/sqrt 3.
    """
    dp = build_definitional(3, P_FAMILY).derivative()
    even = dp.coeffs[::2]
    odd = dp.coeffs[1::2]
    at_third = sum(Fraction(c) * Fraction(1, 3) ** i
                   for i, c in enumerate(even))
    vanishes_exactly = at_third == 0 and not any(odd)

    claimed = math.atan(math.sqrt(2.0))
    at_claimed = float(evaluate_exact_at_float(dp, claimed))
    conflation = abs(math.cos(claimed) - 1 / math.sqrt(3.0)) < 1e-15

    interior = [x for theta, x in extrema(3) if 0.0 < theta < math.pi]
    located = len(interior) == 2 and all(
        abs(abs(x) - 1 / math.sqrt(3.0)) < 1e-10 for x in interior)

    reproduces = vanishes_exactly and abs(at_claimed) > 1 and conflation \
        and located
    wit = ({"printed": "x = +-arctan(sqrt 2) ~= +-0.9553",
            "P3'(0.9553...)": repr(at_claimed),
            "actual": "x = +-1/sqrt(3) ~= +-0.5774",
            "cos(arctan sqrt 2)": repr(math.cos(claimed))},)
    return CheckResult("erratum-extremum-arctan", "interior extrema of row 3",
                       "erratum-confirmed" if reproduces else "fail", wit,
                       "the printed value is the theta solving the tangent "
                       "equation, not its cosine; derivative vanishes "
                       "exactly at x^2 = 1/3")


# ------------------------------------------------------------------ suites

SUITES: dict[str, tuple] = {
    "oracle": (check_oracle,),
    "identities": (check_identity_e1, check_identity_e2, check_identity_e4,
                   check_identity_e3_corrected, check_identity_e3_printed,
                   check_chebyshev_u_coefficient),
    "constructions": (check_four_way_p2, check_three_way_other_p,
                      check_three_term_printed, check_reduction_printed,
                      check_t_recurrence_printed),
    "trig": (check_trig_residual,),
    "zeros": (check_zero_values, check_zeros_numeric),
    "bounds": (check_bound_unit_circle, check_bound_monic_sup),
    "orthogonality": (check_gram_q_minus1, check_gram_q1, check_gram_q3,
                      check_gram_parity_q0, check_gram_numeric_agreement),
    "recurrences": (check_coeff_e2_corrected, check_coeff_e2_printed,
                    check_coeff_e3_corrected, check_coeff_e3_printed,
                    check_triple_sum_corrected, check_triple_sum_printed),
    "errata": (check_identity_e3_printed, check_table_13x_erratum,
               check_extremum_erratum),
}

ERRATUM_CHECK_IDS = ("identity-E3-printed", "erratum-table-13x",
                     "erratum-extremum-arctan")


def run_suite(suite: str = "all") -> VerifyReport:
    if suite == "all":
        fns, seen = [], set()
        for group in SUITES.values():
            for fn in group:
                if fn not in seen:
                    seen.add(fn)
                    fns.append(fn)
    elif suite in SUITES:
        fns = list(SUITES[suite])
    else:
        raise InvalidConfigError(
            f"unknown suite {suite!r}; choose from "
            f"{', '.join(list(SUITES) + ['all'])}")
    return VerifyReport(suite, tuple(fn() for fn in fns))
