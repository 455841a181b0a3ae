"""The four workloads: each is the operation list of one pass, from a seed.

An operation is one `blockcheb` command line run in a fresh interpreter.
Its `check` names the reference check in reference.py and its
arguments; `rc` is the exit code the command must end with.  The seed
chooses the order of a pass, output formats, cache read sizes, the
q = 0 numeric window, oracle p-ranges and the mpmath sample.  It never
changes how much work a pass holds, so runs on different seeds measure
the same amount of work.

Cache operations name the directory "{cache}"; run.py gives every pass
a new empty one.
"""

from __future__ import annotations

import json
import os
import random

from reference import oracle_configs

FORMATS = ("json", "csv", "bfile")


def _op(key, argv, check, rc=0, **extra):
    return {"key": key, "argv": argv, "check": check, "rc": rc, **extra}


def _triangle_op(cmd, m, p, max_n, fmt, cache=False, tag=""):
    argv = [cmd, "--m", str(m), "--p", str(p), "--max-n", str(max_n),
            "--format", fmt]
    if cache:
        argv += ["--cache-dir", "{cache}"]
    key = f"{tag}{cmd} ({m},{p}) n={max_n} {fmt}"
    return _op(key, argv, ["triangle", fmt, m, p, max_n])


def verify_ops(rng: random.Random):
    """The full `blockcheb verify`; its exit code 1 is the expected verdict.

    The report's statuses are checked against verify_status.json, a copy
    of the map tests/test_verify.py pins (see regen_verify_status.py).
    """
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "verify_status.json")
    with open(path, encoding="utf-8") as fh:
        status_map = json.load(fh)
    return [[_op("verify", ["verify"], ["verify", status_map], rc=1)]]


def triangle_ops(rng: random.Random):
    """Uncached documents beside two seeded cache chains.

    Each chain builds into a fresh cache, reads stored rows back, then
    extends past them.  Chain (0,2) ends with an extension to the same
    request as the uncached (0,2) export, whose bytes it must match.
    """
    formats = list(FORMATS) + [rng.choice(FORMATS) for _ in range(2)]
    rng.shuffle(formats)
    plain = [
        _triangle_op("triangle", 2, 2, 200, "json"),
        _triangle_op("export", 0, 2, 120, formats[0]),
        _triangle_op("triangle", 1, 2, 120, formats[1]),
        _triangle_op("export", 3, 3, 60, formats[2]),
        _triangle_op("triangle", 1, 4, 60, formats[3]),
        _triangle_op("export", 3, 2, 80, formats[4]),
    ]
    chain_22 = [
        _triangle_op("triangle", 2, 2, 100, rng.choice(FORMATS), True, "cache "),
        _triangle_op("export", 2, 2, rng.randint(2, 100), rng.choice(FORMATS),
                     True, "cache "),
        _triangle_op("triangle", 2, 2, 140, rng.choice(FORMATS), True, "cache "),
    ]
    extend_02 = _triangle_op("export", 0, 2, 120, formats[0], True, "cache ")
    extend_02["same_as"] = plain[1]["key"]
    chain_02 = [
        _triangle_op("export", 0, 2, 80, rng.choice(FORMATS), True, "cache "),
        extend_02,
        _triangle_op("triangle", 0, 2, rng.randint(0, 120), rng.choice(FORMATS),
                     True, "cache "),
    ]
    return [[op] for op in plain] + [chain_22, chain_02]


def gram_ops(rng: random.Random):
    """Exact-only Gram documents over 3..28 for every weight, plus numeric
    columns: q = 0 on a seeded two-row window (each same-parity entry is
    a 2^21-node trapezoid) and odd q over 3..10.  Two seeded entries of
    each exact-only document are also checked by mpmath quadrature.
    """
    chains = []
    cells = [(a, b) for a in range(3, 29) for b in range(a, 29)]
    for q in (-1, 0, 1, 3):
        argv = ["gram", "--weight", str(q), "--range", "3..28", "--no-numeric"]
        chains.append([_op(f"gram q={q} 3..28 exact", argv,
                           ["gram", 2, 2, q, 3, 28, False, rng.sample(cells, 2)])])
    lo = rng.randint(3, 5)
    chains.append([_op(f"gram q=0 {lo}..{lo + 1}",
                       ["gram", "--weight", "0", "--range", f"{lo}..{lo + 1}"],
                       ["gram", 2, 2, 0, lo, lo + 1, True, []])])
    for q in (-1, 1, 3):
        chains.append([_op(f"gram q={q} 3..10",
                           ["gram", "--weight", str(q), "--range", "3..10"],
                           ["gram", 2, 2, q, 3, 10, True, []])])
    return chains


def oracle_ops(rng: random.Random):
    """Ten sweeps to ground 12, where per-call cost dominates, beside one
    to ground 16, where per-mask cost does.  The seed picks each small
    sweep's block-size range.  Every configuration of ground 16 has its
    enumeration totals read back and checked.
    """
    chains = []
    for i in range(10):
        p_max = rng.randint(4, 12)
        chains.append([_op(f"oracle#{i} 12 p<={p_max}",
                           ["oracle", "--max-ground", "12", "--p-max", str(p_max)],
                           ["oracle", 12, p_max, []])])
    large = [c for c in oracle_configs(16, 4) if c[0] * c[1] + c[2] >= 16]
    chains.append([_op("oracle 16 p<=4",
                       ["oracle", "--max-ground", "16", "--p-max", "4"],
                       ["oracle", 16, 4, large], totals=large)])
    return chains


WORKLOADS = {"verify": verify_ops, "triangle": triangle_ops,
             "gram": gram_ops, "oracle": oracle_ops}


def pass_order(chains, rng: random.Random):
    """A seeded interleaving of the chains that keeps each chain's order."""
    queues = [list(c) for c in chains]
    order = []
    while queues:
        queue = rng.choice(queues)
        order.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    return order
