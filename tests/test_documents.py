"""Serialization formats, the b-file fixture, and the on-disk cache."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import blockcheb
from blockcheb import __version__
from blockcheb.documents import (SCHEMA_VERSION, TriangleCache,
                                 TriangleDocument, build_document, from_json,
                                 oeis_refs, serialize, to_bfile, to_csv,
                                 to_json)
from blockcheb.errors import InvalidConfigError
from blockcheb.polyfamily import Family, P_FAMILY, U_FAMILY
from regen_golden import GOLDEN, render

_DATA = os.path.join(os.path.dirname(__file__), "data")


def test_build_document_shape():
    doc = build_document(P_FAMILY, 7)
    assert (doc.m, doc.p) == (2, 2)
    assert doc.generator == f"blockcheb {__version__}"
    assert [n for n, _ in doc.rows] == [2, 3, 4, 5, 6, 7]
    assert doc.rows[4] == (6, ("-1", "0", "13", "0", "-28", "0", "16"))
    assert doc.rows[0][1] == ("0", "0", "1")
    with pytest.raises(InvalidConfigError):
        build_document(P_FAMILY, 1)


def test_oeis_references():
    assert oeis_refs(P_FAMILY) == ["A136388", "A024623", "A049611",
                                   "A055585", "A001844", "A035597"]
    assert oeis_refs(Family(3, 2)) == ["A136389"]
    assert oeis_refs(Family(6, 2)) == ["A136398"]
    assert oeis_refs(U_FAMILY) == []
    assert oeis_refs(Family(2, 3)) == []


def test_json_round_trip():
    doc = build_document(P_FAMILY, 9)
    text = to_json(doc)
    payload = json.loads(text)
    assert payload["schemaVersion"] == SCHEMA_VERSION
    assert payload["kind"] == "triangle"
    assert payload["rows"][0] == {"n": 2, "coeffs": ["0", "0", "1"]}
    assert from_json(text) == doc


def _dumps_reference(doc: TriangleDocument) -> str:
    """The document as json.dumps writes its payload dict."""
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "kind": "triangle",
        "m": doc.m,
        "p": doc.p,
        "rows": [{"n": n, "coeffs": list(coeffs)} for n, coeffs in doc.rows],
        "metadata": {"oeisRefs": list(doc.oeis), "generator": doc.generator},
    }
    return json.dumps(payload, indent=2) + "\n"


def test_json_writer_matches_json_dumps(tmp_path):
    docs = [build_document(Family(m, p), max_n)
            for m in range(7) for p in range(1, 6)
            for max_n in sorted({m, m + 1, 25})]
    docs.append(replace(docs[0], rows=()))
    cache = TriangleCache(str(tmp_path))
    cache.document(P_FAMILY, 12)
    docs.append(cache.document(P_FAMILY, 7))
    docs.extend(replace(docs[-1], generator=generator, oeis=oeis)
                for generator in ('block"cheb \\ é', "")
                for oeis in ((), ("A136388", 'A"1\\é')))
    for doc in docs:
        assert to_json(doc) == _dumps_reference(doc), (doc.m, doc.p,
                                                       len(doc.rows))


def test_coefficients_travel_as_strings():
    # 4^32 does not fit a double; string transport keeps it intact.
    doc = build_document(Family(0, 4), 32)
    payload = json.loads(to_json(doc))
    top = payload["rows"][-1]["coeffs"][-1]
    assert top == str(4 ** 32)
    assert int(from_json(to_json(doc)).rows[-1][1][-1]) == 4 ** 32


def test_csv_round_trip_and_header():
    doc = build_document(P_FAMILY, 4)
    text = to_csv(doc)
    lines = text.splitlines()
    assert lines[0] == \
        f"# blockcheb triangle m=2 p=2 generator=blockcheb {__version__}"
    assert lines[1] == "2,0,0,1"
    assert lines[3] == "4,1,0,-5,0,4"


def test_bfile_exact_prefix():
    text = to_bfile(build_document(P_FAMILY, 5))
    assert text == ("1 0\n2 0\n3 1\n4 0\n5 -2\n6 0\n7 2\n"
                    "8 1\n9 0\n10 -5\n11 0\n12 4\n"
                    "13 0\n14 4\n15 0\n16 -12\n17 0\n18 8\n")


def test_bfile_matches_independent_u_triangle_fixture():
    with open(os.path.join(_DATA, "u20.bfile"), encoding="utf-8") as fh:
        fixture = fh.read()
    assert to_bfile(build_document(U_FAMILY, 19)) == fixture


def test_documents_match_golden_digests():
    """triangle in every format, export, poly, eval and closed-form zeros,
    byte for byte against documents_sha256.txt, whose header names the
    commit and the command that wrote it."""
    want = (GOLDEN / "documents_sha256.txt").read_text(encoding="utf-8")
    assert render("documents_sha256.txt") == want


def test_serialize_dispatch():
    doc = build_document(P_FAMILY, 3)
    assert serialize(doc, "json") == to_json(doc)
    assert serialize(doc, "csv") == to_csv(doc)
    assert serialize(doc, "bfile") == to_bfile(doc)
    with pytest.raises(InvalidConfigError):
        serialize(doc, "xml")


# ------------------------------------------------------------------ cache

def test_cache_round_trip(tmp_path):
    cache = TriangleCache(str(tmp_path))
    doc = cache.document(P_FAMILY, 6)
    assert [n for n, _ in doc.rows] == [2, 3, 4, 5, 6]
    stored = cache.load(P_FAMILY)
    assert stored == doc
    assert os.path.exists(tmp_path / "triangle_m2_p2.json")


def test_cache_append_only_growth(tmp_path):
    cache = TriangleCache(str(tmp_path))
    first = cache.document(P_FAMILY, 5)
    grown = cache.document(P_FAMILY, 9)
    assert grown.rows[:len(first.rows)] == first.rows
    assert grown.rows[-1][0] == 9
    # A smaller request slices the stored rows without rewriting them.
    sliced = cache.document(P_FAMILY, 4)
    assert sliced.rows == first.rows[:3]
    assert cache.load(P_FAMILY).rows == grown.rows


def _stored_rows(rows) -> bytes:
    """A current-version (2, 2) cache file holding the given rows."""
    return json.dumps({"schemaVersion": SCHEMA_VERSION, "m": 2, "p": 2,
                       "rows": rows,
                       "metadata": {"generator": f"blockcheb {__version__}"}}
                      ).encode()


@pytest.mark.parametrize("payload", [
    b"{not json",
    b"[]",
    b'{"schemaVersion": 1, "rows": 5, "m": 2, "p": 2}',
    b"\xff\xfe\x00",
    _stored_rows([{"n": 9, "coeffs": ["1"]}]),
    _stored_rows([{"n": "x", "coeffs": ["1"]}]),
    _stored_rows([{"n": 2, "coeffs": ["0", 0, "1"]}]),
    _stored_rows([{"n": 2, "coeffs": ["0", '0"', "1"]}]),
    _stored_rows([{"n": 2, "coeffs": ["0", "\u0663", "1"]}]),
    _stored_rows([{"n": 2, "coeffs": ["0", None, "1"]}]),
], ids=["bad-json", "list", "rows-not-a-list", "not-utf8", "row-off-the-family",
        "row-not-a-number", "coeff-a-number", "coeff-with-quote",
        "coeff-arabic-digit", "coeff-null"])
def test_cache_discards_corrupt_file(tmp_path, payload):
    cache = TriangleCache(str(tmp_path))
    cache.document(P_FAMILY, 5)
    path = tmp_path / "triangle_m2_p2.json"
    path.write_bytes(payload)
    assert cache.load(P_FAMILY) is None
    assert cache.document(P_FAMILY, 5).rows[0][0] == 2


def test_cache_discards_boolean_row_index(tmp_path):
    # true == 1, so the (1, 2) cache's row checks alone would pass it.
    (tmp_path / "triangle_m1_p2.json").write_text(json.dumps(
        {"schemaVersion": SCHEMA_VERSION, "m": 1, "p": 2,
         "rows": [{"n": True, "coeffs": ["0", "1"]}],
         "metadata": {"generator": f"blockcheb {__version__}"}}),
        encoding="utf-8")
    cache = TriangleCache(str(tmp_path))
    assert cache.load(Family(1, 2)) is None
    assert type(cache.document(Family(1, 2), 1).rows[0][0]) is int


def test_cache_rejects_row_before_start(tmp_path):
    cache = TriangleCache(str(tmp_path))
    cache.document(Family(3, 2), 6)
    with pytest.raises(InvalidConfigError, match="below triangle start"):
        cache.document(Family(3, 2), 2)


def test_cache_discards_version_mismatch(tmp_path):
    cache = TriangleCache(str(tmp_path))
    doc = cache.document(P_FAMILY, 5)
    stale = TriangleDocument(doc.m, doc.p, doc.rows, doc.oeis,
                             "blockcheb 0.0.0")
    (tmp_path / "triangle_m2_p2.json").write_text(to_json(stale),
                                                  encoding="utf-8")
    assert cache.load(P_FAMILY) is None


def test_cache_missing_file(tmp_path):
    assert TriangleCache(str(tmp_path)).load(Family(4, 2)) is None


def test_cache_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def fail(doc):
        raise OSError("disk full")
    monkeypatch.setattr("blockcheb.documents.to_json", fail)
    with pytest.raises(OSError):
        TriangleCache(str(tmp_path)).document(P_FAMILY, 5)
    assert os.listdir(tmp_path) == []


# Extends the (0, 2) cache one row at a time, starting on a line from stdin.
_CACHE_WRITER = """
import sys
from blockcheb.documents import TriangleCache
from blockcheb.polyfamily import U_FAMILY
cache = TriangleCache(sys.argv[1])
print("ready", flush=True)
sys.stdin.readline()
for max_n in range(1, 51):
    cache.document(U_FAMILY, max_n)
"""


def test_cache_shared_by_two_processes(tmp_path):
    env = dict(os.environ)
    package_root = str(Path(blockcheb.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    writers = [subprocess.Popen([sys.executable, "-c", _CACHE_WRITER,
                                 str(tmp_path)], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=env) for _ in range(2)]
    for proc in writers:
        assert proc.stdout.readline() == "ready\n"
    for proc in writers:  # both start writing at once
        proc.stdin.write("go\n")
        proc.stdin.flush()
    for proc in writers:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert err == ""
    assert TriangleCache(str(tmp_path)).load(U_FAMILY) == \
        build_document(U_FAMILY, 50)
    assert os.listdir(tmp_path) == ["triangle_m0_p2.json"]
