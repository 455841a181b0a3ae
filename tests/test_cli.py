"""Command-line surface: document shapes, exit codes, determinism.

Most tests drive main() in-process and parse the JSON it prints.  One
subprocess check runs the callable that the console script names, as
`python -m blockcheb.cli`, with the imported package first on the child's
PYTHONPATH, so it works from a source checkout and from an install alike;
it also confirms that pyproject.toml maps the `blockcheb` script to that
callable.  Where the script itself is installed on PATH, a second check
runs it directly.  A third imports blockcheb.cli in a child and checks
that numpy stays unloaded.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import blockcheb
from blockcheb import __version__
from blockcheb.analysis import MAX_ROOT_DEGREE, evaluate_exact_at_float
from blockcheb.cli import COMMANDS, build_parser, main
from blockcheb.documents import build_document, to_bfile
from blockcheb.orthocheck import MAX_GRAM_ROW, MAX_HALF_EXPONENT
from blockcheb.polyfamily import MAX_ROW, P_FAMILY, build_definitional
from regen_golden import GOLDEN, render


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def _child_env() -> dict:
    """This environment with the imported package first on PYTHONPATH."""
    env = dict(os.environ)
    package_root = str(Path(blockcheb.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "blockcheb.cli",
                           "--version"], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"blockcheb {__version__}"
    assert proc.stderr == ""

    # tomllib is Python >= 3.11; older interpreters still run the above.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "project"]["scripts"]
    assert scripts["blockcheb"] == "blockcheb.cli:main"


def test_cli_import_leaves_numpy_unloaded():
    """Only the enumeration kernel and the numeric Gram column use numpy,
    so they import it where they run and every other command skips it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, blockcheb.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


@pytest.mark.skipif(shutil.which("blockcheb") is None,
                    reason="blockcheb console script not installed on PATH")
def test_console_script_on_path():
    proc = subprocess.run(["blockcheb", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"blockcheb {__version__}"


def test_triangle_json(capsys):
    code, payload = _run_json(capsys, "triangle", "--max-n", "4")
    assert code == 0
    assert payload["kind"] == "triangle"
    assert (payload["m"], payload["p"]) == (2, 2)
    assert payload["rows"][2] == {"n": 4, "coeffs": ["1", "0", "-5", "0", "4"]}


def test_triangle_csv(capsys):
    code, out, _ = _run(capsys, "triangle", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out.startswith("# blockcheb triangle m=2 p=2")
    assert out.splitlines()[1] == "2,0,0,1"


def test_triangle_deterministic(capsys):
    _, first, _ = _run(capsys, "triangle", "--max-n", "8")
    _, second, _ = _run(capsys, "triangle", "--max-n", "8")
    assert first == second


def test_export_bfile_stdout(capsys):
    code, out, _ = _run(capsys, "export", "--max-n", "5")
    assert code == 0
    assert out == to_bfile(build_document(P_FAMILY, 5))
    assert out.startswith("1 0\n2 0\n3 1\n")


def test_export_to_file(capsys, tmp_path):
    target = tmp_path / "u.bfile"
    code, out, _ = _run(capsys, "export", "--m", "0", "--p", "2",
                        "--max-n", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == \
        "1 1\n2 0\n3 2\n4 -1\n5 0\n6 4\n7 0\n8 -4\n9 0\n10 8\n"


def test_triangle_cache_dir(capsys, tmp_path):
    code, payload = _run_json(capsys, "triangle", "--max-n", "5",
                              "--cache-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "triangle_m2_p2.json").exists()
    assert payload["rows"][-1]["n"] == 5


def test_poly_pretty(capsys):
    code, payload = _run_json(capsys, "poly", "--n", "3")
    assert code == 0
    assert payload["pretty"] == "2x^3 - 2x"
    assert payload["coeffs"] == ["0", "-2", "0", "2"]


def test_eval_exact_zero(capsys):
    code, payload = _run_json(capsys, "eval", "--n", "6", "--x", "1")
    assert code == 0
    assert payload["exact"] == "0"
    assert payload["decimal"] == 0.0


def test_eval_exact_fraction(capsys):
    # --x=-1/2 because argparse reads a separate "-1/2" as a flag
    code, payload = _run_json(capsys, "eval", "--n", "6", "--x=-1/2")
    assert code == 0
    assert payload["exact"] == "3/4"
    assert payload["decimal"] == 0.75


def test_eval_reads_the_exponent_apart_from_the_mantissa(capsys):
    # A zero mantissa is 0 whatever its exponent; Fraction would first
    # build 10^10000000, which took seconds.
    _, zero = _run_json(capsys, "eval", "--n", "3", "--x", "0")
    for point in ("0e-10000000", "-0.00E+9_999_999 "):
        start = time.perf_counter()
        code, payload = _run_json(capsys, "eval", "--n", "3", "--x", point)
        assert time.perf_counter() - start < 0.5, point
        assert (code, payload) == (0, zero), point
    _, quarter = _run_json(capsys, "eval", "--n", "3", "--x", "1/400")
    assert _run_json(capsys, "eval", "--n", "3", "--x", "2.5e-3")[1] == quarter
    for point in ("1/0", "0x10", "1/2e5", "0e5/2", "0e1__0"):
        code, out, err = _run(capsys, "eval", "--n", "3", "--x", point)
        assert (code, out) == (2, ""), point
        assert err == (f"error: evaluation point {point!r} must look like "
                       "1, -1/2 or 0.25\n")


def test_zeros_closed_form_labels(capsys):
    code, payload = _run_json(capsys, "zeros", "--n", "4")
    assert code == 0
    assert payload["method"] == "closed-form"
    assert [r["exact"] for r in payload["roots"]] == \
        ["-1", "-1/2", "1/2", "1"]
    assert [r["multiplicity"] for r in payload["roots"]] == [1, 1, 1, 1]


def test_zeros_numeric_fallback_below_closed_form(capsys):
    # The closed form starts at n = 3; the double root of row 2 comes
    # from the numeric route instead of an error.
    code, payload = _run_json(capsys, "zeros", "--n", "2")
    assert code == 0
    assert payload["method"] == "numeric"
    assert payload["roots"] == [{"decimal": 0.0, "multiplicity": 2}]


@pytest.mark.parametrize("n", [5, 35])
def test_zeros_numeric_method(capsys, n):
    code, payload = _run_json(capsys, "zeros", "--n", str(n), "--method",
                              "numeric")
    assert code == 0
    assert payload["method"] == "numeric"
    assert len(payload["roots"]) == n
    _, closed = _run_json(capsys, "zeros", "--n", str(n))
    for got, want in zip(payload["roots"], closed["roots"]):
        assert abs(got["decimal"] - want["decimal"]) <= 1e-10


def test_extrema_values(capsys):
    code, payload = _run_json(capsys, "extrema", "--n", "3")
    assert code == 0
    points = payload["points"]
    assert len(points) == 4
    assert points[0]["x"] == 1.0 and points[0]["value"] == 0.0
    assert points[1]["value"] == pytest.approx(-4 / (3 * 3 ** 0.5),
                                               abs=1e-12)
    assert points[2]["value"] == pytest.approx(4 / (3 * 3 ** 0.5),
                                               abs=1e-12)
    # Double Horner at degree 60 is off by about 3e5; the values must be
    # the exact evaluations at each x, which lie in [-1, 1].
    code, payload = _run_json(capsys, "extrema", "--n", "60")
    assert code == 0
    poly = build_definitional(60, P_FAMILY)
    for point in payload["points"]:
        assert abs(point["value"]) <= 1
        assert point["value"] == float(evaluate_exact_at_float(poly,
                                                               point["x"]))


def test_gram_band_summary(capsys):
    code, payload = _run_json(capsys, "gram", "--range", "3..6")
    assert code == 0
    assert payload["weight"] == -1
    assert payload["bandSummary"] == {"0": "1/4*pi", "2": "-1/8*pi"}
    diag = payload["bands"]["0"]
    assert diag["uniform"] is True
    assert diag["value"]["exact"] == "1/4*pi"
    assert all("numeric" in e for e in payload["entries"])


def test_gram_no_numeric(capsys):
    code, payload = _run_json(capsys, "gram", "--range", "3..5",
                              "--no-numeric")
    assert code == 0
    assert all("numeric" not in e for e in payload["entries"])


def test_verify_errata_suite(capsys):
    code, payload = _run_json(capsys, "verify", "--suite", "errata")
    assert code == 0
    assert [c["status"] for c in payload["checks"]] == \
        ["erratum-confirmed"] * 3


def test_verify_failing_suite_exit_code(capsys):
    code, payload = _run_json(capsys, "verify", "--suite", "constructions")
    assert code == 1
    statuses = {c["checkId"]: c["status"] for c in payload["checks"]}
    assert statuses["construction-four-way-p2"] == "pass"
    assert statuses["reduction-printed"] == "fail"


def test_oracle_command(capsys):
    code, payload = _run_json(capsys, "oracle", "--max-ground", "8")
    assert code == 0
    assert payload["checked"] == 843
    assert payload["mismatches"] == []


@pytest.mark.filterwarnings("error")
def test_config_errors_exit_2(capsys):
    code, out, err = _run(capsys, "eval", "--n", "1", "--x", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    code, _, err = _run(capsys, "gram", "--range", "35")
    assert code == 2
    assert "3..8" in err
    code, out, err = _run(capsys, "eval", "--n", "3", "--x=abc")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    # An exact value past the float range has no decimal field.
    code, out, err = _run(capsys, "eval", "--n", "2", "--x", "1e400")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "too large" in err
    # Rows of (0, 10^45) overflow longdouble in the numeric block too, and
    # with warnings as errors the exact value is still the one thing reported.
    code, out, err = _run(capsys, "gram", "--m", "0", "--p", str(10 ** 45),
                          "--range", "0..60", "--weight", "0")
    assert (code, out) == (2, "")
    assert err == "error: an exact value is too large for the decimal field\n"
    code, out, err = _run(capsys, "gram", "--range", "a..b")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    code, out, err = _run(capsys, "gram", "--weight", "500", "--range", "3..3",
                          "--no-numeric")
    assert (code, out) == (2, "")
    assert err == f"error: weight q=500 above the weight limit {MAX_HALF_EXPONENT}\n"
    past_gram = MAX_GRAM_ROW + 1
    code, out, err = _run(capsys, "gram", "--range", f"3..{past_gram}",
                          "--no-numeric")
    assert (code, out) == (2, "")
    assert err == f"error: gram row {past_gram} above the Gram limit {MAX_GRAM_ROW}\n"
    # Rows before the family start (m = 3).
    for argv in (("triangle", "--m", "3", "--max-n", "2"),
                 ("export", "--m", "3", "--max-n", "2"),
                 ("gram", "--m", "3", "--range", "1..5")):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1
    for argv in (("oracle", "--max-ground", "-1"), ("oracle", "--p-max", "0"),
                 ("oracle", "--max-ground", "2", "--p-max", "25")):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1
    # Exact strings past Python's 4,300-digit limit for int -> str: an
    # exact value, the point itself, and a row whose top coefficient
    # (10^18)^240 is refused before any row is built.
    for argv in (("eval", "--n", "1000", "--x", "0.00001"),
                 ("eval", "--n", "3", "--x", "1e-5000"),
                 ("poly", "--m", "0", "--p", str(10 ** 18), "--n", "240")):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, argv
        assert "digits" in err, argv
    # A decimal exponent is read before Fraction expands it.
    code, out, err = _run(capsys, "eval", "--n", "3", "--x", "1e-10000000")
    assert (code, out) == (2, "")
    assert err == ("error: evaluation point '1e-10000000': its exponent "
                   f"alone gives it more than {sys.get_int_max_str_digits()} "
                   "digits, Python's limit for a decimal string\n")
    # P_201 and P_202' have degree 201: one past the root-finding limit.
    for argv in (("zeros", "--method", "numeric", "--n", "201"),
                 ("extrema", "--n", "202")):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == (f"error: degree {MAX_ROOT_DEGREE + 1} above the "
                       f"root-finding limit {MAX_ROOT_DEGREE}\n")
    past_limit = str(MAX_ROW + 1)
    for argv in (("triangle", "--max-n", past_limit),
                 ("export", "--max-n", past_limit),
                 ("poly", "--n", past_limit),
                 ("eval", "--n", past_limit, "--x", "1"),
                 ("zeros", "--n", past_limit),
                 ("extrema", "--n", past_limit),
                 ("gram", "--range", f"3..{past_limit}")):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: row {past_limit} above the row limit {MAX_ROW}\n"


def test_values_past_the_digit_limit_exit_2(capsys):
    # Under the least limit Python allows, 640 digits, row 40 of (0, p)
    # passes the top-coefficient check (p^40 has 636 digits), but other
    # coefficients of it have more, and the Gram entries built from it
    # pass the float range first.
    p = str(7_943_282 * 10 ** 9)  # about 10^15.9
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for argv in (("triangle", "--m", "0", "--p", p, "--max-n", "40"),
                     ("poly", "--m", "0", "--p", p, "--n", "40")):
            code, out, err = _run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err == ("error: a value has more than 640 digits, "
                           "Python's limit for a decimal string\n"), argv
        code, out, err = _run(capsys, "gram", "--m", "0", "--p", p,
                              "--range", "1..40", "--no-numeric")
        assert (code, out) == (2, "")
        assert err == "error: an exact value is too large for the " \
                      "decimal field\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_block_size_past_64_bits(capsys):
    p = str(2 ** 63)
    code, payload = _run_json(capsys, "poly", "--m", "0", "--p", p, "--n", "1")
    assert code == 0
    assert payload["coeffs"] == ["0", p]


def test_unusable_paths_exit_2(capsys, tmp_path):
    regular = tmp_path / "plain-file"
    regular.write_text("", encoding="utf-8")
    for argv in (("triangle", "--max-n", "3", "--cache-dir", str(regular)),
                 ("export", "--max-n", "3", "--cache-dir",
                  str(regular / "sub")),
                 ("export", "--max-n", "3",
                  "--out", str(tmp_path / "missing" / "x"))):
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_cache_dir_naming_a_file_says_so(capsys, tmp_path):
    regular = tmp_path / "plain-file"
    regular.write_text("", encoding="utf-8")
    for sub in ("triangle", "export"):
        code, out, err = _run(capsys, sub, "--max-n", "3",
                              "--cache-dir", str(regular))
        assert (code, out) == (2, ""), sub
        assert err == f"error: cache directory {str(regular)!r} is not a " \
                      f"directory\n", sub
    assert regular.read_text(encoding="utf-8") == ""


def test_oracle_past_enumeration_bound_exits_2(capsys):
    code, out, err = _run(capsys, "oracle", "--max-ground", "40")
    assert (code, out) == (2, "")
    assert err == ("error: oracle sweep max_ground 40 exceeds enumeration "
                   "bound 24\n")


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])
    assert "usage" in capsys.readouterr().err


def test_cli_surface_matches_golden_digests(monkeypatch):
    """Help, version and usage errors, byte for byte with their exit codes,
    against cli_surface_sha256.txt, whose header names the commit and the
    command that wrote it.  argparse wraps help to the terminal width."""
    monkeypatch.setenv("COLUMNS", "80")
    want = (GOLDEN / "cli_surface_sha256.txt").read_text(encoding="utf-8")
    assert render("cli_surface_sha256.txt") == want


def test_one_parser_per_command(capsys, monkeypatch):
    """A command line builds only its command's parser; the root parser,
    built for help, --version and usage errors, lists every command of
    the table in order."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, payload = _run_json(capsys, "oracle", "--max-ground", "4")
    assert (code, payload["kind"]) == (0, "oracle")
    assert built == ["blockcheb oracle"]
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(COMMANDS)
