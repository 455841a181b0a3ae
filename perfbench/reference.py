"""Routes computed apart from blockcheb, and the checks built on them.

Nothing here imports the package.  Polynomials are lists of Python
ints, ascending.  Each check takes a CLI document (the captured stdout
of one operation) and returns a list of problems; an empty list means
the document is right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

# ------------------------------------------------------------ polynomials


def _add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _scale(a, c):
    return [c * x for x in a]


def _pad(a, length):
    return (a + [0] * length)[:length]


def _three_term(first, second, n_max):
    """Rows 0..n_max of R(n+1) = 2x R(n) - R(n-1)."""
    rows = [first, second]
    while len(rows) <= n_max:
        rows.append(_add(_mul([0, 2], rows[-1]), _scale(rows[-2], -1)))
    return rows[:n_max + 1]


@lru_cache(maxsize=None)
def chebyshev_u(n_max: int):
    return _three_term([1], [0, 2], n_max)


@lru_cache(maxsize=None)
def chebyshev_t(n_max: int):
    return _three_term([1], [0, 1], n_max)


def count_f(a: int, b: int, m: int, p: int) -> int:
    """f(a, b, m, p) = [x^(a+b)] ((1+x)^p - 1)^a (1+x)^m."""
    if a < 0 or a + b < 0:
        return 0
    block = [math.comb(p, i) for i in range(1, p + 1)]   # (1+x)^p - 1, / x
    g = [math.comb(m, i) for i in range(m + 1)]
    for _ in range(a):
        g = _mul(g, [0] + block)
    return g[a + b] if a + b < len(g) else 0


def _gf_rows(m: int, p: int, n_max: int):
    """Rows via c(n,k) = (-1)^b [x^(n-m)] ((1+x)^p - 1)^a (1+x)^m.

    With a = (n+k-2m)/2 and b = (n-k)/2, the power a+b is n-m for every
    coefficient of row n, so one power series per a serves all rows.
    """
    block = [0] + [math.comb(p, i) for i in range(1, p + 1)]
    powers = [[math.comb(m, i) for i in range(m + 1)]]
    while len(powers) <= n_max - m:
        powers.append(_mul(powers[-1], block))
    rows = {}
    for n in range(m, n_max + 1):
        row = [0] * (n + 1)
        for k in range(n % 2, n + 1, 2):
            a, b = (n + k - 2 * m) // 2, (n - k) // 2
            if a >= 0 and n - m < len(powers[a]):
                row[k] = (-1) ** b * powers[a][n - m]
        rows[n] = row
    return rows


@lru_cache(maxsize=None)
def family_rows(m: int, p: int, n_max: int) -> dict:
    """Rows n = m..n_max of the (m, p) triangle, each of length n + 1.

    (0,2) and (1,2) are the Chebyshev U and T rows of the three-term
    recurrence; (2,2) rows are -(1-x^2) U_(n-2) for n >= 3 (row 2 is
    x^2); every other family comes from the generating function.
    """
    if (m, p) == (0, 2):
        return {n: _pad(r, n + 1) for n, r in enumerate(chebyshev_u(n_max))}
    if (m, p) == (1, 2):
        return {n: _pad(r, n + 1)
                for n, r in enumerate(chebyshev_t(n_max)) if n >= 1}
    if (m, p) == (2, 2):
        rows = {2: [0, 0, 1]}
        for n in range(3, n_max + 1):
            rows[n] = _pad(_mul([-1, 0, 1], chebyshev_u(n_max)[n - 2]), n + 1)
        return rows
    return _gf_rows(m, p, n_max)


# --------------------------------------------------------------- triangles


def _parse_triangle(text: str, fmt: str, m: int):
    """(m, p or None, {n: [coeffs]}) from a json, csv or b-file document."""
    if fmt == "json":
        doc = json.loads(text)
        if (doc.get("schemaVersion"), doc.get("kind")) != (1, "triangle"):
            raise ValueError("not a version-1 triangle document")
        return doc["m"], doc["p"], {r["n"]: [int(c) for c in r["coeffs"]]
                                    for r in doc["rows"]}
    if fmt == "csv":
        lines = text.splitlines()
        if not lines[0].startswith("# blockcheb triangle"):
            raise ValueError("missing csv header")
        fields = dict(h.split("=", 1) for h in lines[0].split() if "=" in h)
        rows = {}
        for line in lines[1:]:
            cells = line.split(",")
            rows[int(cells[0])] = [int(c) for c in cells[1:]]
        return int(fields["m"]), int(fields["p"]), rows
    values = []
    for line in text.splitlines():
        index, value = line.split()
        if int(index) != len(values) + 1:
            raise ValueError(f"b-file index {index} out of sequence")
        values.append(int(value))
    rows, n, pos = {}, m, 0
    while pos < len(values):
        rows[n] = values[pos:pos + n + 1]
        pos += n + 1
        n += 1
    return m, None, rows


def check_triangle(text: str, fmt: str, m: int, p: int, max_n: int):
    try:
        got_m, got_p, rows = _parse_triangle(text, fmt, m)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable {fmt} triangle: {exc}"]
    problems = []
    if got_m != m or got_p not in (p, None):
        problems.append(f"document names family ({got_m},{got_p})")
    want = family_rows(m, p, max_n)
    if list(rows) != list(range(m, max_n + 1)):
        problems.append(f"rows {min(rows, default=None)}..{max(rows, default=None)}"
                        f" instead of {m}..{max_n}")
    for n, row in rows.items():
        if want.get(n) != row:
            problems.append(f"({m},{p}) row {n} differs from the reference")
            break
    return problems


# -------------------------------------------------------------------- gram


def parse_pi_linear(text: str) -> tuple[Fraction, Fraction]:
    """'a*pi + b' in the document's notation -> (a, b)."""
    pi_part, rational = Fraction(0), Fraction(0)
    tokens = text.replace(" - ", " + -").split(" + ")
    for token in tokens:
        token = token.strip()
        if token in ("pi", "-pi"):
            pi_part = Fraction(-1 if token.startswith("-") else 1)
        elif token.endswith("*pi"):
            pi_part = Fraction(token[:-3])
        else:
            rational = Fraction(token)
    return pi_part, rational


def wallis(k: int) -> tuple[Fraction, Fraction]:
    """integral_0^pi sin^k t dt as (pi part, rational part), by Wallis."""
    value = Fraction(1)
    for j in range(k, 1, -2):
        value *= Fraction(j - 1, j)
    return (value, Fraction(0)) if k % 2 == 0 else (Fraction(0), 2 * value)


@lru_cache(maxsize=None)
def beta_moment(q: int, j: int) -> tuple[Fraction, Fraction]:
    """M_(2j) = integral_-1^1 x^(2j) (1-x^2)^(q/2) dx as (pi part, rational).

    M_0 = integral_0^pi sin^(q+1) t dt, and
    M_(2j+2) = M_(2j) (2j+1) / (2j+q+3).
    """
    if j == 0:
        return wallis(q + 1)
    a, b = beta_moment(q, j - 1)
    r = Fraction(2 * j - 1, 2 * j + q + 1)
    return a * r, b * r


def inner_product(m: int, p: int, q: int, n1: int, n2: int, rows=None):
    """integral_-1^1 P_n1 P_n2 (1-x^2)^(q/2) dx by Beta-moment sums."""
    rows = rows or family_rows(m, p, max(n1, n2))
    product = _mul(rows[n1], rows[n2])
    pi_part, rational = Fraction(0), Fraction(0)
    for k in range(0, len(product), 2):
        if product[k]:
            a, b = beta_moment(q, k // 2)
            pi_part += product[k] * a
            rational += product[k] * b
    return pi_part, rational


def quadrature(m: int, p: int, q: int, n1: int, n2: int) -> float:
    """The same integral by mpmath quadrature in theta, 30 digits."""
    import mpmath
    rows = family_rows(m, p, max(n1, n2))
    a, b = rows[n1], rows[n2]

    def horner(coeffs, x):
        acc = mpmath.mpf(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def integrand(t):
        x = mpmath.cos(t)
        return horner(a, x) * horner(b, x) * mpmath.sin(t) ** (q + 1)

    with mpmath.workdps(30):
        nodes = [mpmath.pi * i / 8 for i in range(9)]
        return float(mpmath.quad(integrand, nodes))


def _as_float(value: tuple[Fraction, Fraction]) -> float:
    return float(value[0]) * math.pi + float(value[1])


def check_gram(text: str, m: int, p: int, q: int, lo: int, hi: int,
               numeric: bool, sample=()):
    try:
        doc = json.loads(text)
        entries = {(e["n"], e["m"]): e for e in doc["entries"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable gram document: {exc}"]
    problems = []
    if (doc.get("kind"), doc.get("m"), doc.get("p"), doc.get("weight"),
            doc.get("range")) != ("gram", m, p, q, [lo, hi]):
        problems.append("document header does not match the request")
    cells = [(a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1)]
    if sorted(entries) != cells:
        return problems + ["entry set differs from the requested range"]
    rows = family_rows(m, p, hi)
    values = {}
    for cell in cells:
        e = entries[cell]
        got = parse_pi_linear(e["exact"])
        want = inner_product(m, p, q, *cell, rows=rows)
        values[cell] = got
        if got != want:
            problems.append(f"entry {cell} is {e['exact']}, moment sum gives "
                            f"{want[0]}*pi + {want[1]}")
        if (cell[1] - cell[0]) % 2 and e["exact"] != "0":
            problems.append(f"opposite-parity entry {cell} is {e['exact']}")
        if abs(e["decimal"] - _as_float(want)) > 1e-9 * max(1.0, abs(e["decimal"])):
            problems.append(f"entry {cell} decimal {e['decimal']!r} is off")
        if numeric != ("numeric" in e):
            problems.append(f"entry {cell} numeric column presence is wrong")
        elif numeric and abs(e["numeric"] - _as_float(want)) > 1e-10:
            problems.append(f"entry {cell} numeric {e['numeric']!r} is more "
                            f"than 1e-10 from exact")
    for cell in sample:
        got = quadrature(m, p, q, *cell)
        want = _as_float(values[cell])
        if abs(got - want) > 1e-12 * max(1.0, abs(want)):
            problems.append(f"entry {cell} differs from mpmath quadrature "
                            f"{got!r}")
    problems += _check_bands(doc.get("bands", {}), values, lo, hi)
    return problems


def _check_bands(bands: dict, values: dict, lo: int, hi: int):
    problems = []
    if sorted(bands, key=int) != [str(o) for o in range(hi - lo + 1)]:
        return ["band offsets differ from the range"]
    for offset, band in bands.items():
        o = int(offset)
        band_cells = [(n, n + o) for n in range(lo, hi - o + 1)]
        value = parse_pi_linear(band["value"]["exact"])
        counts = [values[c] for c in band_cells]
        deviations = [(n, m) for n, m in band_cells if values[(n, m)] != value]
        listed = [(d["n"], d["m"]) for d in band["deviations"]]
        if counts.count(value) < max(counts.count(v) for v in counts) \
                or listed != deviations or band["uniform"] != (not deviations):
            problems.append(f"band {offset} report disagrees with its entries")
    return problems


# ------------------------------------------------------------------ oracle


def oracle_configs(max_ground: int, p_max: int):
    for p in range(1, p_max + 1):
        for n in range(max_ground // p + 1):
            for m in range(max_ground - n * p + 1):
                yield n, p, m


def oracle_checked(max_ground: int, p_max: int) -> int:
    """Comparisons the sweep makes: sizes -1 .. n*p+m+1 per configuration."""
    return sum(n * p + m + 3 for n, p, m in oracle_configs(max_ground, p_max))


def check_oracle(text: str, max_ground: int, p_max: int, large, totals):
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"unparsable oracle document: {exc}"]
    problems = []
    if doc.get("mismatches") != []:
        problems.append(f"{len(doc.get('mismatches') or [])} mismatches reported")
    want = oracle_checked(max_ground, p_max)
    if doc.get("checked") != want:
        problems.append(f"checked {doc.get('checked')} instead of {want}")
    if totals is None or len(totals) != len(large):
        return problems + ["enumeration totals missing"]
    for (n, p, m), total in zip(large, totals):
        if total != (2 ** p - 1) ** n * 2 ** m:
            problems.append(f"enumeration of ({n},{p},{m}) totals {total}, "
                            f"not (2^p-1)^n 2^m")
    return problems


# ------------------------------------------------------------------ verify


def check_verify(text: str, status_map: dict):
    try:
        doc = json.loads(text)
        checks = {c["checkId"]: c for c in doc["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable verify report: {exc}"]
    problems = []
    statuses = {k: c["status"] for k, c in checks.items()}
    if statuses != status_map:
        changed = sorted(k for k in set(statuses) | set(status_map)
                         if statuses.get(k) != status_map.get(k))
        problems.append(f"status map differs at {changed}")

    # <P_3, P_3> under (1-x^2)^(1/2): P_3(cos t) = -sin t sin 2t, so the
    # integral is 4 (W(6) - W(8)) with Wallis integrals W, i.e. 5 pi/32.
    w6, w8 = wallis(6), wallis(8)
    wallis_33 = (4 * (w6[0] - w8[0]), 4 * (w6[1] - w8[1]))
    witness = [w for w in checks.get("gram-pattern-q1", {}).get("witnesses", [])
               if (w.get("n"), w.get("m")) == ("3", "3")]
    if not witness or parse_pi_linear(witness[0]["got"]) != wallis_33:
        problems.append("gram-pattern-q1 (3,3) witness is not 5*pi/32")

    lhs = count_f(2, 0, 0, 2)
    rhs = sum(math.comb(2, i) * count_f(1, 1 - i, 0, 1) for i in (1, 2))
    e3 = (checks.get("identity-E3-printed", {}).get("witnesses") or [{}])[0]
    if (e3.get("lhs"), e3.get("rhs")) != (str(lhs), str(rhs)) or (lhs, rhs) != (4, 2):
        problems.append(f"identity-E3-printed witness is {e3}, not lhs 4, rhs 2")
    return problems
