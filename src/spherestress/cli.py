"""Command-line front end.

Targets are catalog names, paths to JSON complex files, or "-" for
stdin.  ``main`` alone maps an exception to an exit code: 2 bad input
(``ValueError`` or ``KeyError``: unknown name, unreadable or malformed
file, bad arguments), 3 ``DegenerateEmbeddingError``, 4 any other (an
internal error, reported in one line on stderr).  Otherwise 0 is
success and 1 a failed verification check.  All randomness flows from
--seed (stress, socle, verify); identical invocations with identical
seeds print byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import catalog as cat
from . import complex_core as cc
from . import s24
from . import sequences as seqs
from . import stress as st
from . import verify as ver
from .enumeration import g_vector, guaranteed_level_degree, invariants
from .graphs import VERTEX_CAP, graph_of, independence_number, turan_bound

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4


def _resolve_target(target: str) -> cat.NamedSphere:
    if target in cat.catalog_names():
        return cat.build(target)
    if target == "-":
        source, default_name, text = "complex on stdin", "stdin", sys.stdin.read()
    elif os.path.exists(target):
        try:
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {target}: {exc.strerror or exc}") from exc
        source, default_name = f"facet file {target}", os.path.basename(target)
    else:
        raise ValueError(f"unknown complex name or file: {target!r}")
    try:
        c, name, coords = cc.complex_from_json(text)
        emb = st.natural_embedding(c, coords) if coords else None
    except ValueError as exc:
        raise ValueError(f"malformed {source}: {exc}") from exc
    return cat.NamedSphere(name or default_name, c, natural_coords=emb)


def _emit(doc, as_json: bool, human_lines):
    if as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _embedding_for(sphere: cat.NamedSphere, kind: str, seed: int) -> st.Embedding:
    if kind == "natural":
        if sphere.natural_coords is None:
            raise ValueError(f"{sphere.name} carries no natural coordinates")
        return sphere.natural_coords
    return st.generic_embedding(sphere.complex, seed)


def _require_sphere(sphere: cat.NamedSphere) -> None:
    """Stress and socle statements assume a sphere: reject a complex that
    fails the GF(2) homology sphere test (a non-pure one raises
    ValueError there)."""
    if not cc.is_z2_homology_sphere(sphere.complex):
        raise ValueError(f"{sphere.name} is not a GF(2) homology sphere; "
                         "stress and socle statements assume one")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    """Readouts of any complex.  The sphere test is not run here (it can
    take far longer than the rest), so the output says which readouts
    assume a sphere."""
    sphere = _resolve_target(args.target)
    c = sphere.complex
    inv = invariants(c)
    jstar = cc.max_missing_dim(c)
    counts = {str(k): v for k, v in sorted(cc.missing_face_counts(c).items())}
    doc = {
        "name": sphere.name,
        "f0": len(c.vertices),
        "dim": c.dim,
        "f": list(inv.f),
        "h": list(inv.h),
        "g": list(inv.g),
        "gamma": list(inv.gamma) if inv.gamma is not None else None,
        "missing_face_counts": counts,
        "class": f"S({jstar},{c.dim})",
        "flag": jstar <= 1,
        "guaranteed_level_degree": guaranteed_level_degree(c),
        "sphere_checked": False,
    }
    _emit(doc, args.json, [
        f"{sphere.name}: dimension {c.dim}, {len(c.vertices)} vertices",
        f"  f     = {list(inv.f)}",
        f"  h     = {list(inv.h)}",
        f"  g     = {list(inv.g)}",
        f"  gamma = {list(inv.gamma) if inv.gamma is not None else 'undefined (not a sphere)'}",
        f"  missing faces by dimension: {counts or '{}'}",
        f"  class S({jstar},{c.dim})" + ("  [flag]" if jstar <= 1 else ""),
        f"  level up to degree {guaranteed_level_degree(c)} (guaranteed)",
        "  not checked to be a sphere: gamma, class, flag and level assume one",
    ])
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        names = cat.catalog_names()
        _emit({"catalog": names}, args.json, names)
        return EXIT_OK
    # build
    if not args.params:
        raise ValueError("catalog build needs a family and integer parameters")
    family, params = args.params[0], [int(x) for x in args.params[1:]]
    sphere = cat.build_family(family, params)
    coords = sphere.natural_coords.coords if sphere.natural_coords else None
    print(cc.complex_to_json(sphere.complex, name=sphere.name, coordinates=coords))
    return EXIT_OK


def cmd_stress(args) -> int:
    sphere = _resolve_target(args.target)
    _require_sphere(sphere)
    c, k = sphere.complex, args.degree
    spaces = st.StressSpaces(c, _embedding_for(sphere, args.embedding, args.seed))
    if k < 1:
        raise ValueError("stress spaces are computed for degree k >= 1")
    if args.embedding == "generic":
        dim = st.certified_stress_dims(c, k, args.seed)
    else:
        dim = spaces.dims([k])[0]
    g = g_vector(c)
    expected = g[k] if k < len(g) else None
    lines = [f"{sphere.name}: dim of degree-{k} stress space = {dim}"
             + (f" (g_{k} = {expected})" if expected is not None else "")]
    if args.basis:  # eliminated over Q, unless dims already did so
        doc = st.basis_to_jsonable(c, k, spaces.basis(k))
        for i, entry in enumerate(doc["basis"]):
            lines.append(f"  basis[{i}]: " + ", ".join(
                f"{mono} -> {coef}" for mono, coef in sorted(entry.items())))
    else:
        doc = {"degree": k, "dim": dim, "vertex_order": list(c.vertices)}
    doc.update({"name": sphere.name, "embedding": args.embedding, "seed": args.seed,
                "g_k": expected})
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_socle(args) -> int:
    sphere = _resolve_target(args.target)
    _require_sphere(sphere)
    c = sphere.complex
    emb = _embedding_for(sphere, args.embedding, args.seed)
    soc = st.StressSpaces(c, emb).socle
    counts = cc.missing_face_counts(c)
    d = c.dim + 1
    expected = [counts.get(d - k, 0) for k in range(len(soc))]
    relation = [ver.socle_relation(d, k) for k in range(len(soc))]
    doc = {"name": sphere.name, "socle": soc, "missing_counts": expected,
           "relation": relation, "embedding": args.embedding, "seed": args.seed}
    _emit(doc, args.json, [
        f"{sphere.name}: socle dimensions by degree = {soc}",
        f"  missing (d-k)-face counts          = {expected}",
        f"  claimed socle vs count by degree   = [{', '.join(r or 'none' for r in relation)}]",
    ])
    return EXIT_OK


def cmd_seq(args) -> int:
    try:
        values = [int(x) for x in args.sequence.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"sequence must be integers: {exc}") from exc
    if not values:
        raise ValueError("sequence must have at least one integer")
    if args.action == "check-m":
        verdict = seqs.is_M_sequence(values)
    else:
        verdict = seqs.level_necessary_conditions(values)
    doc = {"sequence": values, "check": args.action, "holds": verdict.holds,
           "detail": verdict.detail}
    _emit(doc, args.json, [
        f"{args.action} {values}: {'PASS' if verdict.holds else 'FAIL'}"
        + (f"  ({verdict.detail})" if verdict.detail else "")])
    return EXIT_OK if verdict.holds else EXIT_CHECK_FAILED


def cmd_alpha(args) -> int:
    sphere = _resolve_target(args.target)
    g = graph_of(sphere.complex)
    bound = turan_bound(len(g.vertices), len(g.edges))
    alpha, witness = independence_number(g, cap=args.cap_vertices)
    doc = {"name": sphere.name, "alpha": alpha, "witness": sorted(witness),
           "turan_bound": f"{bound.numerator}/{bound.denominator}"}
    _emit(doc, args.json, [
        f"{sphere.name}: alpha = {alpha}, witness {sorted(witness)}",
        f"  guaranteed lower bound f0^2/(2 f1 + f0) = {bound} = {float(bound):.4f}",
    ])
    return EXIT_OK


def cmd_s24(args) -> int:
    sphere = _resolve_target(args.target)
    c = sphere.complex
    if args.action == "reduce":
        rep = s24.reduction_report(c)
        doc = {
            "name": sphere.name,
            "trace": [[op, list(e)] for op, e in rep.trace],
            "admissible_edges": sorted(sorted(e) for e in rep.admissible_edges),
            "induced_gammas": [[sorted(w), list(sizes)] for w, sizes in rep.induced_gammas],
            "reduced": rep.reduced,
            "final_f0": len(rep.final.vertices),
        }
        _emit(doc, args.json, [
            f"{sphere.name}: applied {len(rep.trace)} contraction(s); "
            f"final complex has {len(rep.final.vertices)} vertices",
            f"  admissible edges left: {doc['admissible_edges']}",
            f"  induced two-empty-triangle joins: {doc['induced_gammas']}",
            f"  reduced: {rep.reduced}",
        ])
        return EXIT_OK
    if args.action == "verify":
        g2, bound, holds = s24.verify_theorem_main_s24(c)
        quarter = Fraction(len(c.vertices), 4)
        doc = {"name": sphere.name, "g2": g2,
               "bound": f"{bound.numerator}/{bound.denominator}",
               "holds": holds, "quarter_holds": Fraction(g2) >= quarter}
        _emit(doc, args.json, [
            f"{sphere.name}: g_2 = {g2} vs (2/5) f_0 - 6/5 = {bound} : "
            f"{'PASS' if holds else 'FAIL'}",
            f"  g_2 >= f_0/4 = {quarter}: {'PASS' if Fraction(g2) >= quarter else 'FAIL'}",
            "  note: the 8-vertex minimizer is unique in this class "
            "(literature result, quoted not re-verified)",
        ])
        return EXIT_OK if holds else EXIT_CHECK_FAILED
    # probe-nevo
    g2, g1, p = s24.probe_nevo(c)
    doc = {"name": sphere.name, "g2": g2, "g1": g1, "g2_ge_g1": p, "probe": True}
    _emit(doc, args.json, [
        f"{sphere.name}: conjecture probe g_2 = {g2} vs g_1 = {g1}: "
        f"{'consistent' if p else 'VIOLATED (report this complex!)'}",
    ])
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.explain:
        doc = dict(sorted(ver.EXPLAIN.items()))
        _emit(doc, args.json, [f"{k}: {v}" for k, v in sorted(ver.EXPLAIN.items())])
        return EXIT_OK
    params = {"level": (args.u, args.k), "support": (args.m,)}
    if args.all:
        families, chosen = list(ver.FAMILIES), list(ver.COUNTEREXAMPLES)
    else:
        if args.family and args.family not in ver.FAMILIES:
            raise ValueError(
                f"unknown family {args.family!r}; choose from {sorted(ver.FAMILIES)}")
        families = [args.family] if args.family else []
        chosen = [args.counterexample] if args.counterexample else []
    counterexamples = [(ce, *params[ce]) for ce in chosen]
    if not families and not counterexamples:
        raise ValueError("verify needs --all, --family, or --counterexample")

    report = ver.run_families(families, args.seed, counterexamples)
    if args.json:
        print(json.dumps(report.to_jsonable(), sort_keys=True))
    else:
        width = max(len(r.check_id) for r in report.checks) + 2
        for r in report.checks:
            status = "PROBE" if r.probe else ("PASS " if r.holds else "FAIL ")
            print(f"  [{status}] {r.check_id:<{width}} {r.target:<24} "
                  f"lhs={r.lhs} rhs={r.rhs}" + (f"  ({r.note})" if r.note else ""))
        for fam, ms in report.runtimes_ms.items():
            print(f"  -- {fam}: {ms:.0f} ms")
        n = sum(1 for r in report.checks if not r.probe)
        good = sum(1 for r in report.checks if not r.probe and r.holds)
        print(f"{good}/{n} checks passed"
              + ("" if report.ok else "  ** FAILURES ABOVE **"))
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spherestress",
        description="Exact face enumeration and affine stress spaces of simplicial spheres")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("target", help="catalog name, JSON file, or - for stdin")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    def add_embedding(sp):
        sp.add_argument("--embedding", choices=["generic", "natural"], default="generic")
        sp.add_argument("--seed", type=int, default=17, help="seed for generic embeddings")

    sp = sub.add_parser("info", help="f/h/g/gamma vectors and class membership")
    add_common(sp)

    sp = sub.add_parser("catalog", help="list shipped complexes or build one")
    sp.add_argument("action", choices=["list", "build"])
    sp.add_argument("params", nargs="*",
                    help="for build: family (simplex|cycle|cross|K|cyclejoin|polytope) "
                         "and integer parameters")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("stress", help="exact affine stress space basis and dimension")
    add_common(sp)
    sp.add_argument("--degree", type=int, required=True)
    add_embedding(sp)
    sp.add_argument("--basis", action="store_true", help="include the basis in the output")

    sp = sub.add_parser("socle", help="socle dimensions of the Artinian reduction")
    add_common(sp)
    add_embedding(sp)

    sp = sub.add_parser("seq", help="integer sequence tests")
    sp.add_argument("action", choices=["check-m", "check-level"])
    sp.add_argument("sequence", help="comma- or space-separated integers")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("alpha", help="exact independence number of the graph")
    add_common(sp)
    sp.add_argument("--cap-vertices", type=int, default=VERTEX_CAP)

    sp = sub.add_parser("s24", help="reduction machinery for 4-spheres, missing dims <= 2")
    sp.add_argument("action", choices=["reduce", "verify", "probe-nevo"])
    add_common(sp)

    sp = sub.add_parser("verify", help="run verification report families")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--family", help="|".join(sorted(ver.FAMILIES)))
    sp.add_argument("--counterexample", choices=list(ver.COUNTEREXAMPLES))
    sp.add_argument("--u", type=int, default=3)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--explain", action="store_true",
                    help="print every statement id with the identity it checks")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--seed", type=int, default=17)

    return p


def main(argv=None) -> int:
    """Run one command line; returns its exit code.

    The parser is built at the first call and reused by every later
    call in the process.  The command's function is looked up by name
    at each call, as the module global ``cmd_<command>``, so the parser
    holds no function object and a rebound ``cmd_*`` global is the one
    that runs."""
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except st.DegenerateEmbeddingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # exit 1 is reserved for a failed check
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
