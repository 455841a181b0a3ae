"""Command-line surface.

Every subcommand prints one deterministic document to stdout (JSON
unless a delimited or b-file form is asked for) so runs can be diffed
byte for byte.  Exact values travel as strings: integers in decimal,
pi-linear values as "a*pi + b" next to a float approximation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import __version__
from .analysis import (closed_form_zeros, evaluate, evaluate_exact_at_float,
                       extrema, numeric_zeros)
from .blockcount import sweep_oracle_vs_closed
from .documents import (FORMATS, SCHEMA_VERSION, TriangleCache,
                        build_document, decimals, serialize)
from .errors import ConvergenceError, GroundSetTooLargeError, InvalidConfigError
from .orthocheck import MAX_HALF_EXPONENT, Weight, gram_matrix
from .polyfamily import Family, P_FAMILY, build_definitional, check_row
from .verify import SUITES, run_suite


def _family(args) -> Family:
    return Family(args.m, args.p)


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)  # without "..", hi is "" and int() fails
    except ValueError:
        raise InvalidConfigError(
            f"range {text!r} must look like 3..8") from None


def _emit(kind: str, **fields) -> int:
    print(json.dumps({"schemaVersion": SCHEMA_VERSION, "kind": kind,
                      **fields}, indent=2))
    return 0


# repr() of a float that is not finite, as json.dumps spells it.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    """The float as json.dumps writes it."""
    text = repr(value)
    return _JSON_NON_FINITE.get(text, text)


def _pi_fields(value) -> dict:
    exact = decimals((value,))[0]
    try:
        return {"exact": exact, "decimal": float(value)}
    except OverflowError:
        raise InvalidConfigError(
            "an exact value is too large for the decimal field") from None


# ------------------------------------------------------------- subcommands

def _triangle_text(args) -> str:
    """The triangle document in args.format, cached when --cache-dir is set."""
    family = _family(args)
    if args.cache_dir:
        doc = TriangleCache(args.cache_dir).document(family, args.max_n)
    else:
        doc = build_document(family, args.max_n)
    return serialize(doc, args.format)


def cmd_triangle(args) -> int:
    sys.stdout.write(_triangle_text(args))
    return 0


def cmd_export(args) -> int:
    if args.out is None:
        return cmd_triangle(args)
    text = _triangle_text(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def cmd_poly(args) -> int:
    family = _family(args)
    poly = build_definitional(args.n, family)
    return _emit("polynomial", m=family.m, p=family.p, n=args.n,
                 coeffs=list(decimals(poly.coeffs)), pretty=str(poly))


def cmd_eval(args) -> int:
    family = _family(args)
    poly = build_definitional(args.n, family)
    # Fraction expands a decimal exponent before the value can be refused
    # (seconds at 1e-10000000), so the mantissa is read alone, as "...e0":
    # it is 0 at any exponent, or k digits, one nonzero, times 10^e leave
    # more than |e| - k digits.
    limit = sys.get_int_max_str_digits()
    parts = re.fullmatch(r"([^eE]*)[eE]([-+]?\d+(?:_\d+)*\s*)", args.x)
    try:
        x = Fraction(parts[1] + "e0" if parts else args.x)
        exponent = int(parts[2]) if parts and x else 0
    except (ValueError, ZeroDivisionError):
        raise InvalidConfigError(f"evaluation point {args.x!r} must look "
                                 f"like 1, -1/2 or 0.25") from None
    if exponent and limit and \
            abs(exponent) > limit + sum(map(str.isdigit, parts[1])):
        raise InvalidConfigError(
            f"evaluation point {args.x!r}: its exponent alone gives it more "
            f"than {limit} digits, Python's limit for a decimal string")
    x *= Fraction(10) ** exponent
    return _emit("evaluation", m=family.m, p=family.p, n=args.n,
                 x=decimals((x,))[0], **_pi_fields(evaluate(poly, x)))


def _closed_zero_exact(k: int, n: int) -> str:
    """Exact display form of cos(k pi/(n-1)) for the closed-form zeros."""
    ratio = Fraction(k, n - 1)
    named = {Fraction(0): "1", Fraction(1, 3): "1/2", Fraction(1, 2): "0",
             Fraction(2, 3): "-1/2", Fraction(1): "-1"}
    if ratio in named:
        return named[ratio]
    return f"cos({ratio}*pi)"


def cmd_zeros(args) -> int:
    family = _family(args)
    check_row(args.n, family)
    if (family.m, family.p) == (2, 2) and args.method != "numeric" \
            and args.n >= 3:
        rs = closed_form_zeros(args.n)
        exact = ["-1"] + [_closed_zero_exact(k, args.n)
                          for k in range(args.n - 2, 0, -1)] + ["1"]
        method, roots = "closed-form", [
            {"exact": e, "decimal": r, "multiplicity": mult}
            for e, r, mult in zip(exact, rs.roots, rs.multiplicities)]
    else:
        rs = numeric_zeros(build_definitional(args.n, family), family)
        method, roots = "numeric", [
            {"decimal": r, "multiplicity": mult}
            for r, mult in zip(rs.roots, rs.multiplicities)]
    return _emit("zeros", m=family.m, p=family.p, n=args.n, method=method,
                 roots=roots)


def cmd_extrema(args) -> int:
    poly = build_definitional(args.n, P_FAMILY)
    points = [{"theta": theta, "x": x,
               "value": float(evaluate_exact_at_float(poly, x))}
              for theta, x in extrema(args.n)]
    return _emit("extrema", m=2, p=2, n=args.n, points=points)


def _gram_cell(pad: str, n: int, m: int, fields: tuple[str, str],
               numeric: str | None = None) -> str:
    """One {n, m, exact, decimal[, numeric]} object of a gram document,
    its braces at indent pad, as json.dumps(indent=2) writes it."""
    key = pad + "  "
    tail = "" if numeric is None else f',\n{key}"numeric": {numeric}'
    return (f'{pad}{{\n{key}"n": {n},\n{key}"m": {m},\n{key}"exact": '
            f'"{fields[0]}",\n{key}"decimal": {fields[1]}{tail}\n{pad}}}')


def cmd_gram(args) -> int:
    """The gram document, written as json.dumps(indent=2) writes its
    payload {schemaVersion, kind, m, p, weight, range, entries: [{n, m,
    exact, decimal[, numeric]}], bands: {offset: {uniform, value: {exact,
    decimal}, deviations: [{n, m, exact, decimal}]}}, bandSummary}, plus a
    newline, but in one pass and without that pure-Python encoder.

    exact_gram makes equal entries one object, so each distinct value's
    exact and decimal text is formatted once, keyed by its id, and every
    entry is one fixed-shape string.  The exact text is str(PiRational):
    digits, "/", "-", "*pi" and " + ", which need no escaping.  The first
    value that cannot be written, in entry order, is the one refused."""
    family = _family(args)
    lo, hi = _parse_range(args.range)
    weight = Weight(args.weight)
    gm = gram_matrix((lo, hi), family, weight,
                     with_numeric=not args.no_numeric)
    texts = {}  # id of a distinct exact value -> (exact, decimal) text

    def text(value) -> tuple[str, str]:
        fields = texts.get(id(value))
        if fields is None:
            pi = _pi_fields(value)
            fields = texts[id(value)] = (pi["exact"],
                                         _json_float(pi["decimal"]))
        return fields

    size, numeric = hi - lo + 1, gm.numeric
    entries = ",\n".join(
        _gram_cell("    ", lo + i, lo + j, text(gm.exact[i][j]),
                   None if numeric is None
                   else _json_float(float(numeric[i, j])))
        for i in range(size) for j in range(i, size))
    bands, summary = [], []
    for offset, bp in sorted(gm.band_report().items()):
        exact, decimal = text(bp.value)
        deviations = ",\n".join(_gram_cell("        ", n, m, text(v))
                                 for n, m, v in bp.deviations)
        deviations = f"[\n{deviations}\n      ]" if deviations else "[]"
        bands.append(
            f'    "{offset}": {{\n      "uniform": '
            f'{"true" if bp.uniform else "false"},\n      "value": {{\n'
            f'        "exact": "{exact}",\n        "decimal": {decimal}\n'
            f'      }},\n      "deviations": {deviations}\n    }}')
        if bp.uniform and not bp.value.is_zero():
            summary.append(f'    "{offset}": "{exact}"')
    bands = ",\n".join(bands)
    summary = "{\n" + ",\n".join(summary) + "\n  }" if summary else "{}"
    sys.stdout.write(
        f'{{\n  "schemaVersion": {SCHEMA_VERSION},\n  "kind": "gram",\n'
        f'  "m": {family.m},\n  "p": {family.p},\n'
        f'  "weight": {weight.half_exponent},\n'
        f'  "range": [\n    {lo},\n    {hi}\n  ],\n'
        f'  "entries": [\n{entries}\n  ],\n  "bands": {{\n{bands}\n  }},\n'
        f'  "bandSummary": {summary}\n}}\n')
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite)
    sys.stdout.write(report.to_json())
    return report.exit_code


def cmd_oracle(args) -> int:
    checked, failures = sweep_oracle_vs_closed(args.max_ground, args.p_max)
    _emit("oracle", maxGround=args.max_ground, pMax=args.p_max,
          checked=checked, mismatches=failures)
    return 1 if failures else 0


# ------------------------------------------------------------------ wiring

def _family_flags(parser):
    parser.add_argument("--m", type=int, default=2,
                        help="extra-block size m (family parameter)")
    parser.add_argument("--p", type=int, default=2,
                        help="block size p (family parameter)")


def _triangle_flags(parser, default_format="json"):
    _family_flags(parser)
    parser.add_argument("--max-n", type=int, required=True)
    parser.add_argument("--format", choices=tuple(FORMATS),
                        default=default_format)
    parser.add_argument("--cache-dir", default=None)


def _export_flags(parser):
    _triangle_flags(parser, default_format="bfile")
    parser.add_argument("--out", default=None,
                        help="write to this file instead of stdout")


def _row_flags(parser):
    _family_flags(parser)
    parser.add_argument("--n", type=int, required=True)


def _eval_flags(parser):
    _row_flags(parser)
    parser.add_argument("--x", required=True,
                        help="evaluation point, e.g. 1, -1/2, 0.25")


def _zeros_flags(parser):
    _row_flags(parser)
    parser.add_argument("--method", choices=("closed", "numeric"),
                        default="closed",
                        help="closed form is available for the (2,2) family")


def _extrema_flags(parser):
    parser.add_argument("--n", type=int, required=True)


def _gram_flags(parser):
    _family_flags(parser)
    parser.add_argument("--weight", type=int, default=-1,
                        help="half-exponent q of the weight (1-x^2)^(q/2), "
                             f"-1 <= q <= {MAX_HALF_EXPONENT}")
    parser.add_argument("--range", default="3..8",
                        help="row range, e.g. 3..8")
    parser.add_argument("--no-numeric", action="store_true",
                        help="skip the Gauss quadrature cross-check column")


def _verify_flags(parser):
    parser.add_argument("--suite", default="all",
                        choices=tuple(SUITES) + ("all",))


def _oracle_flags(parser):
    parser.add_argument("--max-ground", type=int, default=10,
                        help="largest ground-set size n*p+m to enumerate")
    parser.add_argument("--p-max", type=int, default=4)


# name: (help, add_flags, handler), in the order the root help lists them.
COMMANDS = {
    "triangle": ("print a coefficient triangle", _triangle_flags,
                 cmd_triangle),
    "export": ("export a triangle (b-file by default)", _export_flags,
               cmd_export),
    "poly": ("print one polynomial row", _row_flags, cmd_poly),
    "eval": ("evaluate one row exactly", _eval_flags, cmd_eval),
    "zeros": ("real zeros of one row", _zeros_flags, cmd_zeros),
    "extrema": ("extreme points of a (2,2)-family row", _extrema_flags,
                cmd_extrema),
    "gram": ("weighted Gram matrix and band report", _gram_flags, cmd_gram),
    "verify": ("run verification suites", _verify_flags, cmd_verify),
    "oracle": ("exhaustive enumeration vs closed form", _oracle_flags,
               cmd_oracle),
}


class _FlagTable:
    """Stands in for a command's parser while its add_flags declares the
    flags, and keeps each flag's settings; a keyword or action that the
    flag reader does not read is refused here."""

    def __init__(self):
        self.flags = {}

    def add_argument(self, flag, type=str, default=None, choices=None,
                     required=False, action=None, help=None):
        if action not in (None, "store_true"):
            raise ValueError(f"the flag reader has no action {action!r}")
        if action and default is None:
            default = False
        self.flags[flag] = (type, default, choices, required, bool(action))


def _read_plain(add_flags, tokens) -> argparse.Namespace | None:
    """The Namespace argparse makes of a plain command line, or None.

    A plain line holds only whole `--flag value` or `--flag=value` pairs
    and bare store_true flags, each declared flag at most once, every
    value of its type and among its choices, and every required flag.
    Anything else (help, an abbreviated or repeated flag, a value that
    argparse would read as an option, a stray token) gives None, and
    argparse reads the line and writes any help, usage or error.  The
    reader builds no parser: that costs about 1.5 ms, most of it
    gettext importing locale.
    """
    table = _FlagTable()
    add_flags(table)
    values = {}
    tokens = iter(tokens)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in table.flags or flag in values:
            return None
        kind, _, choices, _, store_true = table.flags[flag]
        if store_true:
            if eq:
                return None
            values[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
            # argparse takes a value that starts with "-" for an option,
            # unless it looks like a negative number.
            if value is None or value.startswith("-") and \
                    not re.fullmatch(r"-\d*\.?\d+", value):
                return None
        try:
            value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[flag] = value
    args = argparse.Namespace()
    for flag, (_, default, _, required, _) in table.flags.items():
        if required and flag not in values:
            return None
        setattr(args, flag[2:].replace("-", "_"), values.get(flag, default))
    return args


def build_parser() -> argparse.ArgumentParser:
    """The root parser: --version and the command names, without their
    flags, which only the command's own parser in main() holds."""
    parser = argparse.ArgumentParser(
        prog="blockcheb",
        description="Exact block-count Chebyshev-type polynomial toolkit")
    parser.add_argument("--version", action="version",
                        version=f"blockcheb {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        subs.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in COMMANDS:
        # Help, --version, or a missing or unknown command: each exits.
        build_parser().parse_args(argv)
    name = argv[0]
    _, add_flags, handler = COMMANDS[name]
    args = _read_plain(add_flags, argv[1:])
    if args is None:
        parser = argparse.ArgumentParser(prog=f"blockcheb {name}")
        add_flags(parser)
        args, extras = parser.parse_known_args(argv[1:])
        if extras:
            build_parser().error(
                f"unrecognized arguments: {' '.join(extras)}")
    try:
        return handler(args)
    except BrokenPipeError:  # an OSError, but a closed reader is no error
        return 0
    except (InvalidConfigError, ConvergenceError, GroundSetTooLargeError,
            OSError) as exc:
        # OSError: a --cache-dir or --out path that cannot be used.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
