"""Seeded request lists and their correctness gates.

Two workloads, each a fixed composition of requests whose inputs come
from the seed (vertex relabelings, embedding seeds, request order):

- ``oracle``: one ``verify.run_families`` pass equal to ``verify --all``
  (six families, level u=3 k=1, support m=1).  Its JSON must hash to the
  regression oracle for every seed.  Stress plus socle (elimination over
  Q) dominate, and the pass repeats work across families.
- ``combinatorics``: ``info``, ``alpha``, ``s24 verify`` and ``s24
  reduce`` through the CLI plus direct link-sum and homology-sphere
  calls.  No rational elimination; the time is in face lookups and
  missing faces.  The ``s24 reduce`` ladder stops at cyclejoin-5-6
  (about 6.5 s): cyclejoin-6-6 takes 12.5 s, 8-8 104 s and 10-10 482 s.

Light combinatorics requests repeat under fresh relabelings so that the
median and the tail latency (the 11th largest request) fall among several
samples of similar size rather than on one request at the edge of a gap.

Every expected value is computed here from the join structure of the
input (f- and h-polynomials multiply under joins, missing faces and
independence numbers come from the factors), not from the program.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import spherestress
from spherestress import catalog as cat
from spherestress import cli
from spherestress import complex_core as cc
from spherestress import enumeration as en
from spherestress import verify as ver

ROOT = Path(__file__).resolve().parent.parent
if Path(spherestress.__file__).resolve().parent != ROOT / "src" / "spherestress":
    raise ImportError(f"spherestress imported from {spherestress.__file__}, "
                      f"not from {ROOT / 'src'}")

ORACLE_SHA256 = "0b237a4f71e20c9c567f16b64205800ff2e3c491a86a4bdc4421709c9fafed55"
ORACLE_COUNTEREXAMPLES = [("level", 3, 1), ("support", 1)]


@dataclass
class Request:
    """One independent request: ``run`` is timed, ``check`` is not.

    ``check`` returns None when the output is correct, else the reason.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# Independent expectations from the join structure
# ---------------------------------------------------------------------------

def factors_of(name: str) -> list[tuple[str, int]]:
    """Join factors of a catalog-style name: ("simplex", d) is the
    boundary of a d-simplex, ("cycle", n) an n-cycle."""
    kind, *params = name.split("-")
    p = [int(x) for x in params]
    if kind == "cross":
        return [("simplex", 1)] * p[0]
    if kind == "K":
        i, d = p[0], p[1] + 1
        return [("simplex", i)] * 2 + ([("simplex", d - 2 * i)] if d > 2 * i else [])
    if kind == "cyclejoin":
        return [("simplex", 1), ("cycle", p[0]), ("cycle", p[1])]
    if kind == "polytope":
        return [("simplex", 2 * p[0])] * 2 + [("simplex", 2)]
    raise ValueError(f"no join structure known for {name}")


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@dataclass(frozen=True)
class Expected:
    f: list[int]               # f_{-1}, f_0, ..., f_{dim}
    h: list[int]
    g: list[int]
    missing: dict[int, int]    # missing-face dimension -> count
    alpha: int

    @property
    def d(self) -> int:
        return len(self.h) - 1


def expected_for(name: str) -> Expected:
    f, h, missing, alpha = [1], [1], {}, 0
    for kind, n in factors_of(name):
        if kind == "simplex":
            f = _poly_mul(f, [comb(n + 1, i) for i in range(n + 1)])
            h = _poly_mul(h, [1] * (n + 1))
            fm = {n: 1}
            fa = 2 if n == 1 else 1
        else:
            f = _poly_mul(f, [1, n, n])
            h = _poly_mul(h, [1, n - 2, 1])
            fm = {1: n * (n - 3) // 2} if n > 3 else {2: 1}
            fa = n // 2
        for k, v in fm.items():
            missing[k] = missing.get(k, 0) + v
        alpha = max(alpha, fa)
    g = [1] + [h[j] - h[j - 1] for j in range(1, len(h) // 2 + 1)]
    return Expected(f, h, g, missing, alpha)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@functools.cache
def _sphere(name: str) -> cat.NamedSphere:
    if name in cat.catalog_names():
        return cat.build(name)
    parts = [cc.boundary_simplex(n) if kind == "simplex" else cc.cycle(n)
             for kind, n in factors_of(name)]
    return cat.NamedSphere(name, cc.join(*parts))


def relabeled_document(rng: random.Random, name: str) -> str:
    """JSON document of the named sphere under a seeded vertex relabeling,
    with its natural coordinates (if any) carried along."""
    sphere = _sphere(name)
    c = sphere.complex
    mapping = dict(zip(c.vertices, rng.sample(range(1, 1000), len(c.vertices))))
    coords = None
    if sphere.natural_coords is not None:
        coords = {mapping[v]: x for v, x in sphere.natural_coords.coords.items()}
    return cc.complex_to_json(cc.relabel(c, mapping), name=name, coordinates=coords)


def cli_call(argv: list[str], stdin_text: str = "") -> tuple[int, str]:
    """``cli.main`` in-process with stdin fed and stdout captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code
    finally:
        sys.stdin = saved
    if rc != 0:
        return rc, err.getvalue()
    return rc, out.getvalue()


def _cli_request(label, argv, doc, check) -> Request:
    def checked(output):
        rc, text = output
        if rc != 0:
            return f"exit code {rc}: {text.strip()[-300:]}"
        return check(json.loads(text))
    return Request(label, lambda: cli_call(argv, doc), checked)


def _fails(cond: bool, reason: str) -> str | None:
    return None if cond else reason


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def oracle_requests(rng: random.Random, seed: int) -> list[Request]:
    def run():
        return ver.run_families(list(ver.FAMILIES), seed, ORACLE_COUNTEREXAMPLES)

    def check(report):
        text = json.dumps(report.to_jsonable(), sort_keys=True) + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()
        return _fails(digest == ORACLE_SHA256, f"oracle JSON hashes to {digest}")

    return [Request("verify --all", run, check)]


CYCLEJOINS = ["cyclejoin-4-5", "cyclejoin-4-6", "cyclejoin-5-5", "cyclejoin-5-6"]
S24_LADDER = ["cyclejoin-3-5", "cyclejoin-4-4", "cyclejoin-3-6", "cyclejoin-4-5",
              "cyclejoin-5-6"]
LINK_SUM_KINDS = ("mcmullen_residual", "gamma_mcmullen_residual", "is_z2_homology_sphere")
# (kind, sphere) pairs; the light ones repeat COMBINATORICS_COPIES times under
# fresh relabelings.  The two smallest reductions count as light, so that the
# tail latency falls among several s24 reduce samples.
COMB_HEAVY = ([("s24 reduce", n) for n in S24_LADDER[2:]]
              + [(k, n) for n in ("cross-7", "polytope-2", "K-4-11") for k in ("info", "alpha")]
              + [(k, n) for n in ("cross-7", "K-3-7") for k in LINK_SUM_KINDS])
COMB_LIGHT = ([("s24 reduce", n) for n in S24_LADDER[:2]]
              + [(k, n) for n in ["K-3-7"] + CYCLEJOINS for k in ("info", "alpha")]
              + [("s24 verify", n) for n in CYCLEJOINS]
              + [(k, n) for n in CYCLEJOINS for k in LINK_SUM_KINDS])
COMBINATORICS_COPIES = 3


def _check_info(exp: Expected):
    jstar = max(exp.missing)

    def check(doc):
        counts = {str(k): v for k, v in sorted(exp.missing.items())}
        return _fails(doc["f"] == exp.f and doc["h"] == exp.h == doc["h"][::-1]
                      and doc["g"] == exp.g and doc["missing_face_counts"] == counts
                      and doc["class"] == f"S({jstar},{exp.d - 1})",
                      f"info {doc} disagrees with f={exp.f} h={exp.h} missing={counts}")
    return check


def _check_alpha(exp: Expected):
    f0, f1 = exp.f[1], exp.f[2]
    turan = Fraction(f0 * f0, 2 * f1 + f0)

    def check(doc):
        return _fails(doc["alpha"] == exp.alpha and doc["alpha"] >= turan
                      and Fraction(doc["turan_bound"]) == turan,
                      f"alpha {doc['alpha']} (Turan {doc['turan_bound']}) "
                      f"!= {exp.alpha} or below {turan}")
    return check


def _check_s24_verify(exp: Expected):
    bound = Fraction(2, 5) * exp.f[1] - Fraction(6, 5)

    def check(doc):
        return _fails(doc["holds"] is True and doc["g2"] == exp.g[2]
                      and Fraction(doc["bound"]) == bound,
                      f"s24 verify {doc} != g2 {exp.g[2]}, bound {bound}")
    return check


def _check_s24_reduce(exp: Expected):
    def check(doc):
        return _fails(doc["final_f0"] == exp.f[1] - len(doc["trace"])
                      and all(op == "contract" for op, _ in doc["trace"])
                      and doc["admissible_edges"] == [],
                      f"s24 reduce {doc} inconsistent with f0 {exp.f[1]}")
    return check


def _zero_residuals(r):
    return _fails(not any(r), f"link-sum residuals {r}")


def _comb_request(rng, kind, name) -> Request:
    doc, exp = relabeled_document(rng, name), expected_for(name)
    label = f"{kind} {name}"
    if kind in ("info", "alpha", "s24 verify", "s24 reduce"):
        check = {"info": _check_info, "alpha": _check_alpha,
                 "s24 verify": _check_s24_verify, "s24 reduce": _check_s24_reduce}[kind]
        return _cli_request(label, [*kind.split(), "-", "--json"], doc, check(exp))
    ks = range((exp.d - 1) // 2 + 1)
    if kind == "mcmullen_residual":
        fn, check = (lambda c: [en.mcmullen_residual(c, k) for k in ks]), _zero_residuals
    elif kind == "gamma_mcmullen_residual":
        fn, check = (lambda c: [en.gamma_mcmullen_residual(c, k) for k in ks]), _zero_residuals
    else:
        fn = lambda c: cc.is_z2_homology_sphere(c)  # noqa: E731
        check = lambda r: _fails(r is True, "not a GF(2) homology sphere")  # noqa: E731

    def run():
        c, _, _ = cc.complex_from_json(doc)
        return fn(c)
    return Request(label, run, check)


def combinatorics_requests(rng: random.Random, seed: int) -> list[Request]:
    pairs = COMB_HEAVY + COMB_LIGHT * COMBINATORICS_COPIES
    return [_comb_request(rng, kind, name) for kind, name in pairs]


BUILDERS = {"oracle": oracle_requests, "combinatorics": combinatorics_requests}


def make(workload: str, seed: int) -> list[Request]:
    """The workload's request list for this seed, in its seeded order."""
    rng = random.Random(seed)
    reqs = BUILDERS[workload](rng, seed)
    rng.shuffle(reqs)
    return reqs
