"""Rewrite every file under tests/data/golden from one command table.

    PYTHONPATH=src python tests/regen_golden.py

The golden files pin the bytes the program writes; the tests recompute
them.  Run this only for an intended byte change, and explain every
changed file in CHANGES.md.  A digest file is its header line, kept
verbatim since it records the commit and the command that first wrote
the file, then one line per row: the row's columns and the SHA-256 of
its output.  verify.json is the `blockcheb verify` stdout itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

from blockcheb import cli
from blockcheb.polyfamily import (Family, build_by_reduction,
                                  build_via_t_recurrence, coeff_recurrence_e2,
                                  _coeff_any)

GOLDEN = Path(__file__).parent / "data" / "golden"


def stdout_of(argv: list[str]) -> str:
    """The stdout of `blockcheb argv`, run in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc == 2:
        raise RuntimeError(f"blockcheb {' '.join(argv)} was rejected")
    return out.getvalue()


def surface_of(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of `blockcheb argv`, run in
    process; the code of a SystemExit (help, version, usage errors)
    counts as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def route_outputs() -> dict[str, list]:
    """Every printed and corrected output of the routes that read past
    the triangle's edge, in the order routes_sha256.txt hashes them."""
    grid = [(Family(m, p), n) for p in range(1, 6) for m in range(7)
            for n in range(m, 19)]
    variants = ("printed", "corrected")
    return {
        "build_by_reduction": [build_by_reduction(n, f, v)
                               for f, n in grid for v in variants],
        "build_via_t_recurrence": [build_via_t_recurrence(n, f, t, v)
                                   for f, n in grid for t in range(4)
                                   for v in variants],
        "coeff_recurrence_e2": [coeff_recurrence_e2(n, k, f, t, v)
                                for f, n in grid for k in range(-2, n + 3)
                                for t in range(4) for v in variants],
        "_coeff_any": [_coeff_any(n, k, Family(m, p)) for p in range(1, 6)
                       for m in range(7) for n in range(19)
                       for k in range(-3, n + 3)],
    }


DOCUMENT_COMMANDS = [
    *(f"triangle --m {m} --p {p} --max-n 40 --format {fmt}"
      for m, p in ((2, 2), (0, 2), (1, 2), (3, 3), (1, 4), (0, 1))
      for fmt in ("json", "csv", "bfile")),
    "export --m 2 --p 2 --max-n 60",
    "export --m 1 --p 4 --max-n 30",
    "poly --m 2 --p 2 --n 12",
    "poly --m 3 --p 3 --n 20",
    "poly --m 0 --p 1 --n 15",
    "eval --m 2 --p 2 --n 12 --x 1/2",
    "eval --m 2 --p 2 --n 9 --x -0.25",
    "eval --m 3 --p 3 --n 10 --x 3",
    "eval --m 2 --p 2 --n 400 --x 1/3",
    *(f"zeros --m 2 --p 2 --n {n}" for n in (3, 4, 8, 41, 200)),
    "triangle --m 2 --p 2 --max-n 200 --format json",
]

# Help, version and usage errors, with every command's help among them.
SURFACE_COMMANDS = [
    "-h", "--version", "", "frobnicate",
    *(f"{cmd} -h" for cmd in ("triangle", "export", "poly", "eval", "zeros",
                               "extrema", "gram", "verify", "oracle")),
    "oracle --max-g 8",
    "gram --weigh 0 --range 3..4 --no-numeric",
    "gram --weight -1 --range 3..4 --no-numeric",
    "eval --n 3 --x=-1/2",
    "triangle --max-n 1",
    "triangle --max-n 3 --bogus",
    "triangle --max-n 3 --format xml",
    "triangle --max-n x",
    "gram --weight",
    "poly --m 2 --p 3 --n 7",
    "zeros --n 9",
    "zeros --n 2",
    "eval --m 1 --p 3 --n 5 --x 0.25",
    "oracle --max-ground 4 --max-ground 5",
    "oracle --max-ground=4 --p-max 2",
    "triangle --max-n 3 --format=csv",
    "eval --n 3 --x -1/2",
    "eval --n 3 --x -2",
    "gram --range 3..4 --no-numeric=1",
    "oracle --max-ground 4 --",
    "triangle --max-n 3 --m",
    "gram --m 0 --p 3 --weight 1 --range 4..12 --no-numeric",
    "gram --weight 0 --range 3..9 --no-numeric",
    "gram --weight 3 --range 3..3 --no-numeric",
    "gram --m 3 --range 3..6 --no-numeric",
]

# The header of each digest file, verbatim.
HEADERS = {
    "cli_surface_sha256.txt": (
        "# columns: exit code, SHA-256 of stdout, SHA-256 of stderr, the "
        "blockcheb command line; run in process through cli.main with "
        "COLUMNS=80, a SystemExit's code as the exit code; written at "
        "commit 26251da, before each command got its own parser, by: "
        "PYTHONPATH=src python tests/regen_golden.py"),
    "documents_sha256.txt": (
        "# columns: a blockcheb command line, SHA-256 of its stdout; "
        "written at commit 7daf73a, before the CSV and b-file parsers were "
        "deleted, by: PYTHONPATH=src python tests/regen_golden.py"),
    "gram_sha256.txt": (
        "# columns: q, row range, SHA-256 of the stdout of `blockcheb gram "
        "--weight q --range range --no-numeric` (family (2,2), written at "
        "commit 9eb0e9f), written by: for s in \"-1 3..28\" \"0 3..28\" "
        "\"1 3..28\" \"3 3..28\" \"-1 3..60\" \"200 3..60\"; do set -- $s; "
        "printf '%s %s %s\\n' \"$1\" \"$2\" \"$(PYTHONPATH=src python -m "
        "blockcheb.cli gram --weight \"$1\" --range \"$2\" --no-numeric | "
        "sha256sum | cut -d' ' -f1)\"; done"),
    "oracle_sha256.txt": (
        "# columns: --max-ground, --p-max (\"default\": neither flag given), "
        "SHA-256 of the stdout of `blockcheb oracle` with those flags, "
        "written at commit e063b30, before the one-walk-per-block-shape "
        "kernel, by: for a in \"default default\" \"12 12\" \"16 4\"; do "
        "set -- $a; if [ $1 = default ]; then flags=\"\"; else "
        "flags=\"--max-ground $1 --p-max $2\"; fi; printf '%s %s %s\\n' "
        "\"$1\" \"$2\" \"$(PYTHONPATH=src python -m blockcheb.cli oracle "
        "$flags | sha256sum | cut -d' ' -f1)\"; done"),
    "roots_sha256.txt": (
        "# columns: subcommand, m, p, n, SHA-256 of the stdout of "
        "`blockcheb zeros --method numeric --m m --p p --n n` or `blockcheb "
        "extrema --n n` (family (2,2)), written at commit 921a71a, before "
        "the parity-split evaluation, by: for s in \"zeros 2 2 20\" "
        "\"zeros 2 2 60\" \"zeros 2 2 120\" \"zeros 3 3 30\"; do set -- $s; "
        "printf '%s %s %s %s %s\\n' \"$1\" \"$2\" \"$3\" \"$4\" "
        "\"$(PYTHONPATH=src python -m blockcheb.cli zeros --method numeric "
        "--m $2 --p $3 --n $4 | sha256sum | cut -d' ' -f1)\"; done; "
        "printf 'extrema 2 2 120 %s\\n' \"$(PYTHONPATH=src python -m "
        "blockcheb.cli extrema --n 120 | sha256sum | cut -d' ' -f1)\""),
    "routes_sha256.txt": (
        "# columns: route, number of outputs, SHA-256 of the str() of those "
        "outputs joined by newlines; families (m, p) with p = 1..5 and "
        "m = 0..6, rows n = m..18, both variants, t = 0..3, powers "
        "k = -2..n+2 for coeff_recurrence_e2, and rows n = 0..18 with powers "
        "k = -3..n+2 for _coeff_any; written at commit 3e9ae13, before the "
        "corrected variants were read through the virtual coefficient, by: "
        "PYTHONPATH=src python -c \"import hashlib; from blockcheb.polyfamily "
        "import Family, build_by_reduction, build_via_t_recurrence, "
        "coeff_recurrence_e2, _coeff_any; G = [(Family(m, p), n) for p in "
        "range(1, 6) for m in range(7) for n in range(m, 19)]; "
        "V = ('printed', 'corrected'); R = {'build_by_reduction': "
        "[build_by_reduction(n, f, v) for f, n in G for v in V], "
        "'build_via_t_recurrence': [build_via_t_recurrence(n, f, t, v) for "
        "f, n in G for t in range(4) for v in V], 'coeff_recurrence_e2': "
        "[coeff_recurrence_e2(n, k, f, t, v) for f, n in G for k in "
        "range(-2, n + 3) for t in range(4) for v in V], '_coeff_any': "
        "[_coeff_any(n, k, Family(m, p)) for p in range(1, 6) for m in "
        "range(7) for n in range(19) for k in range(-3, n + 3)]}; "
        "[print(name, len(out), hashlib.sha256('\\n'.join(map(str, out))"
        ".encode()).hexdigest()) for name, out in R.items()]\""),
}


def _cli_rows(rows):
    """(columns, argv) pairs as digest lines of the argv's stdout."""
    return [f"{columns} {sha256(stdout_of(argv))}" for columns, argv in rows]


def _surface_rows():
    rows = []
    for cmd in SURFACE_COMMANDS:
        code, out, err = surface_of(cmd.split())
        rows.append(f"{code} {sha256(out)} {sha256(err)} blockcheb {cmd}"
                    .rstrip())
    return rows


def _route_rows():
    rows = []
    for name, out in route_outputs().items():
        text = "\n".join(map(str, out))
        rows.append(f"{name} {len(out)} {sha256(text)}")
    return rows


# Each digest file's rows, in file order.
TABLE = {
    "cli_surface_sha256.txt": _surface_rows,
    "documents_sha256.txt": lambda: _cli_rows(
        (cmd, cmd.split()) for cmd in DOCUMENT_COMMANDS),
    "gram_sha256.txt": lambda: _cli_rows(
        (f"{q} {span}", ["gram", "--weight", q, "--range", span,
                         "--no-numeric"])
        for q, span in (("-1", "3..28"), ("0", "3..28"), ("1", "3..28"),
                        ("3", "3..28"), ("-1", "3..60"), ("200", "3..60"))),
    "oracle_sha256.txt": lambda: _cli_rows([
        ("default default", ["oracle"]),
        ("12 12", ["oracle", "--max-ground", "12", "--p-max", "12"]),
        ("16 4", ["oracle", "--max-ground", "16", "--p-max", "4"]),
        ("20 4", ["oracle", "--max-ground", "20", "--p-max", "4"])]),
    "roots_sha256.txt": lambda: _cli_rows([
        *((f"zeros {m} {p} {n}", ["zeros", "--method", "numeric", "--m", m,
                                  "--p", p, "--n", n])
          for m, p, n in (("2", "2", "20"), ("2", "2", "60"),
                          ("2", "2", "120"), ("3", "3", "30"))),
        ("extrema 2 2 120", ["extrema", "--n", "120"])]),
    "routes_sha256.txt": _route_rows,
}


def render(name: str) -> str:
    """The bytes of tests/data/golden/<name> as the program writes them now."""
    if name == "verify.json":
        return stdout_of(["verify"])
    return "\n".join([HEADERS[name], *TABLE[name]()]) + "\n"


def main() -> int:
    names = [*TABLE, "verify.json"]
    strays = sorted({p.name for p in GOLDEN.iterdir()} - set(names))
    if strays:
        print(f"no table entry for {', '.join(strays)}", file=sys.stderr)
        return 1
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    for name in names:
        (GOLDEN / name).write_text(render(name), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
