"""Triangle serialization formats and the on-disk row cache.

Coefficients travel as decimal strings everywhere: c(n, n, 0, 4) = 4^n
clears 64 bits by n = 32, and JSON consumers in other languages would
silently round native numbers long before that.

Formats:
  json   - versioned structured document, the only format read back
           (by the cache); written as json.dumps(indent=2) would, each
           row's coefficients in one str.join, which is why from_json
           refuses coefficients that are not decimal integer strings
  csv    - one triangle row per line, n first, after a comment line
           carrying (m, p) and the generator version
  bfile  - OEIS b-file: "index value" pairs, 1-based contiguous index,
           row-major over the triangle, no header
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
import threading
from dataclasses import dataclass, replace

from . import __version__
from .errors import InvalidConfigError
from .polyfamily import Family, check_row, triangle

SCHEMA_VERSION = 1

_TRIANGLE_REFS = {(2, 2): "A136388", (3, 2): "A136389", (4, 2): "A136390",
                  (5, 2): "A136397", (6, 2): "A136398"}
_COEFF_SEQ_REFS = ("A024623", "A049611", "A055585", "A001844", "A035597")


def oeis_refs(family: Family) -> list[str]:
    refs = []
    key = (family.m, family.p)
    if key in _TRIANGLE_REFS:
        refs.append(_TRIANGLE_REFS[key])
    if key == (2, 2):
        refs.extend(_COEFF_SEQ_REFS)
    return refs


@dataclass(frozen=True)
class TriangleDocument:
    m: int
    p: int
    rows: tuple[tuple[int, tuple[str, ...]], ...]  # (n, decimal coeff strings)
    oeis: tuple[str, ...]
    generator: str


def decimals(values) -> tuple[str, ...]:
    """The exact values as strings, refused past Python's limit on the
    digits of an integer written in decimal (sys.get_int_max_str_digits())."""
    try:
        return tuple(map(str, values))
    except ValueError:
        raise InvalidConfigError(
            f"a value has more than {sys.get_int_max_str_digits()} digits, "
            f"Python's limit for a decimal string") from None


def build_document(family: Family, max_n: int) -> TriangleDocument:
    check_row(max_n, family)
    rows = tuple((n, decimals(row))
                 for n, row in enumerate(triangle(family).rows(max_n), family.m))
    return TriangleDocument(family.m, family.p, rows, tuple(oeis_refs(family)),
                            f"blockcheb {__version__}")


def to_json(doc: TriangleDocument) -> str:
    """The document as json.dumps(indent=2) writes its payload
    {schemaVersion, kind, m, p, rows: [{n, coeffs}], metadata: {oeisRefs,
    generator}}, plus a newline, but without that pure-Python encoder.

    Coefficients are decimal strings (decimals() writes them, from_json
    refuses any other), so they need no escaping and each row's list is
    one str.join.  Every row holds n + 1 >= 1 of them.  The metadata,
    whose strings may need escaping, still goes through json.dumps.
    """
    rows = ",\n".join(
        f'    {{\n      "n": {n},\n      "coeffs": [\n        "'
        + '",\n        "'.join(coeffs) + '"\n      ]\n    }'
        for n, coeffs in doc.rows)
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    metadata = json.dumps({"oeisRefs": list(doc.oeis),
                           "generator": doc.generator},
                          indent=2).replace("\n", "\n  ")
    return (f'{{\n  "schemaVersion": {SCHEMA_VERSION},\n'
            f'  "kind": "triangle",\n  "m": {doc.m},\n  "p": {doc.p},\n'
            f'  "rows": {rows},\n  "metadata": {metadata}\n}}\n')


_DECIMAL_ROW = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def _decimal_row(coeffs) -> tuple[str, ...]:
    """A stored row's coefficients, refused unless a list of what
    decimals() writes: a minus sign at most and ASCII digits, a JSON
    string that needs no escaping.  The row is matched at once, joined
    by commas; the comma count catches a comma inside one coefficient."""
    try:
        joined = ",".join(coeffs) if isinstance(coeffs, list) else ""
    except TypeError:  # a coefficient that is not a string
        joined = ""
    if not (_DECIMAL_ROW.fullmatch(joined)
            and joined.count(",") == len(coeffs) - 1):
        raise InvalidConfigError(
            "a row's coefficients are not decimal integer strings")
    return tuple(coeffs)


def _integer(value):
    """A stored m, p or n, refused unless an int: true == 1 would pass
    the cache's row checks, and to_json would write it as True."""
    if type(value) is not int:
        raise InvalidConfigError(f"{value!r} is not an integer")
    return value


def from_json(text: str) -> TriangleDocument:
    payload = json.loads(text)
    if payload.get("schemaVersion") != SCHEMA_VERSION:
        raise InvalidConfigError(
            f"unsupported schemaVersion {payload.get('schemaVersion')!r}")
    rows = tuple((_integer(r["n"]), _decimal_row(r["coeffs"]))
                 for r in payload["rows"])
    meta = payload.get("metadata", {})
    return TriangleDocument(_integer(payload["m"]), _integer(payload["p"]),
                            rows, tuple(meta.get("oeisRefs", ())),
                            meta.get("generator", ""))


def to_csv(doc: TriangleDocument) -> str:
    lines = [f"# blockcheb triangle m={doc.m} p={doc.p} generator={doc.generator}"]
    for n, coeffs in doc.rows:
        lines.append(",".join([str(n), *coeffs]))
    return "\n".join(lines) + "\n"


def to_bfile(doc: TriangleDocument) -> str:
    lines = []
    index = 1
    for _, coeffs in doc.rows:
        for c in coeffs:
            lines.append(f"{index} {c}")
            index += 1
    return "\n".join(lines) + "\n" if lines else ""


FORMATS = {"json": to_json, "csv": to_csv, "bfile": to_bfile}


def serialize(doc: TriangleDocument, fmt: str) -> str:
    if fmt not in FORMATS:
        raise InvalidConfigError(f"unknown format {fmt!r}")
    return FORMATS[fmt](doc)


_cache_locks: dict[str, threading.Lock] = {}
_cache_locks_guard = threading.Lock()


def _lock_for(path: str) -> threading.Lock:
    with _cache_locks_guard:
        return _cache_locks.setdefault(path, threading.Lock())


class TriangleCache:
    """One JSON file per (m, p) triangle under a cache directory.

    Rows only ever accumulate; a stored file whose generator version
    differs from the running tool is discarded wholesale rather than
    migrated.  Each write goes through its own temp file in the cache
    directory and os.replace, so a crash never leaves a torn cache and
    processes sharing the directory never rename each other's files.
    """

    def __init__(self, directory: str):
        self.directory = directory
        if not os.path.isdir(directory) and os.path.exists(directory):
            raise InvalidConfigError(
                f"cache directory {directory!r} is not a directory")
        os.makedirs(directory, exist_ok=True)

    def _path(self, family: Family) -> str:
        return os.path.join(self.directory,
                            f"triangle_m{family.m}_p{family.p}.json")

    def load(self, family: Family) -> TriangleDocument | None:
        path = self._path(family)
        try:
            with open(path, encoding="utf-8") as fh:
                doc = from_json(fh.read())
        except FileNotFoundError:
            return None
        except (InvalidConfigError, ValueError, KeyError, TypeError,
                AttributeError):
            # Undecodable bytes, bad JSON or a payload of the wrong shape.
            return None
        if doc.generator != f"blockcheb {__version__}":
            return None
        if (doc.m, doc.p) != (family.m, family.p):
            return None
        # Rows must run m, m+1, ... with n + 1 coefficients in row n.
        if any(rn != n or len(coeffs) != n + 1
               for n, (rn, coeffs) in enumerate(doc.rows, family.m)):
            return None
        return doc

    def document(self, family: Family, max_n: int) -> TriangleDocument:
        check_row(max_n, family)  # as uncached, even where rows are stored
        path = self._path(family)
        with _lock_for(path):
            stored = self.load(family)
            count = max_n - family.m + 1
            if stored and len(stored.rows) >= count:
                return replace(stored, rows=stored.rows[:count])
            # Rows m..max_n, so every stored one too: nothing to splice.
            fresh = build_document(family, max_n)
            fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(to_json(fresh))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
            return fresh
