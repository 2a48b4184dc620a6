"""Machine-checkable verification reports over the shipped catalog.

Every check row carries a statement id; the EXPLAIN table maps each id
to the identity or inequality it tests, so failures are
self-documenting.  Rows marked as probes record conjectural or purely
diagnostic quantities and never affect the exit status.  A run builds
each catalog sphere once and computes each stress space of its seed's
generic embedding at most once (see ``run_families``).
"""

from __future__ import annotations

import functools
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog as cat
from . import complex_core as cc
from . import s24
from . import sequences as seqs
from . import stress as st
from .enumeration import (
    check_dehn_sommerville,
    corollary_S_k_2k_bound,
    f_from_h,
    f_vector,
    g_vector,
    gamma_mcmullen_residual,
    guaranteed_level_degree,
    h_from_f,
    mcmullen_residual,
)
from .graphs import (
    gk_ratio_sweep,
    graph_of,
    independence_number,
    turan_bound,
    verify_alpha_inequalities,
)

EXPLAIN: dict[str, str] = {
    "h-of-boundary-simplex": "the h-vector of the boundary of a d-simplex is (1, 1, ..., 1)",
    "f-h-roundtrip": "converting f to h and back reproduces the f-vector exactly",
    "dehn-sommerville": "sphere h-vectors are symmetric: h_i = h_{d-i}",
    "odd-d-top-g-vanishes": "for odd d, g_{ceil(d/2)} = 0",
    "g-link-sum-rule": "sum_v g_k(lk v) = (k+1) g_{k+1} + (d+1-k) g_k, exactly",
    "gamma-link-sum-rule": "sum_v gamma_i(lk v) = (i+1) gamma_{i+1} + (2d-4i) gamma_i, exactly",
    "g-k-vs-f0-over-k-plus-2": "for 2k-spheres with missing faces of dim <= k: g_k >= f_0/(k+2)",
    "stress-dim-equals-g": "dim of the degree-k affine stress space equals g_k",
    "stress-dim-seed-stable": "two generic seeds give identical stress dimensions",
    "stress-dim-natural": "natural polytope coordinates give stress dimensions equal to g_k",
    "socle-equals-missing-count": "socle dimension in degree k equals the number of missing "
                                  "(d-k)-faces, for k below floor((d-1)/2)",
    "socle-middle-at-least-missing-count": "in degree floor((d-1)/2) the socle dimension is at "
                                           "least the number of missing (d-k)-faces",
    "level-up-to-socle-degree": "the truncated reduction is level: socle vanishes below the cut",
    "alpha-within-turan": "alpha >= f_0^2/(2 f_1 + f_0) (exact rational comparison)",
    "g-ge-alpha": "g_i >= alpha when missing faces have dimension <= d-i-1, i <= (d-1)/2",
    "g2-ge-(d-4)alpha": "flag with d >= 5: g_2 >= (d-4) alpha",
    "gi-ge-(d-2i)alpha": "flag: g_i >= (d-2i) alpha for 2 <= i <= (d-1)/2",
    "gi-ge-2alpha": "g_i >= 2 alpha for 2 <= i <= d/3 when missing faces have dimension "
                    "<= min(floor((d-1)/2)-1, d-2i)",
    "gk-ratio-sweep": "diagnostic only: g_{k+1} / f_{k-1}^e for the applicable exponent e; "
                      "the known inequality has a nonconstructive constant",
    "gamma-nonnegativity-probe": "conjecture probe only: are all gamma-numbers of this flag "
                                 "sphere nonnegative?",
    "macaulay-monotone": "a^<i> is nondecreasing in a for fixed i",
    "m-sequence-rejects": "(1, 2, 4) is rejected: 4 > 2^<1> = 3",
    "g-vector-is-m-sequence": "the g-vector of every catalog sphere is an M-sequence",
    "g-truncation-level-checks": "the g-vector truncated at min(u, floor((d-1)/2)) passes the "
                                 "level-sequence consequences",
    "s24-main-bound": "4-spheres with missing faces of dim <= 2: g_2 >= (2/5) f_0 - 6/5",
    "s24-quarter-bound": "same class: g_2 >= f_0/4",
    "s24-bound-tight-at-minimum": "the main bound holds with equality on the 8-vertex minimizer",
    "s24-nevo-probe": "conjecture probe only: is g_2 >= g_1?",
    "counterexample-level-formula": "the g-vector of the join of two boundary (u-k)-simplices "
                                    "and a boundary 2k-simplex matches the piecewise band formula",
    "counterexample-level-top": "g_u = 1 for that sphere",
    "counterexample-level-fails": "its g-vector fails the level necessary conditions "
                                  "(g_1 = 2 but g_{u-1} = 3)",
    "counterexample-level-socle": "the stress-space socle is nonzero in some degree below u",
    "counterexample-support-operators": "the explicit product stress satisfies all d+1 operator "
                                        "equations exactly",
    "counterexample-support-dim": "the top-degree stress space is one-dimensional",
    "counterexample-support-spans": "the explicit stress spans it (proportionality solved exactly)",
    "counterexample-support-coefficient": "the mixed group-monomial coefficient is exactly 0",
    "counterexample-support-faces": "every face with m vertices from each simplex group plus one "
                                    "triangle vertex is outside the support",
    "counterexample-support-span-gap": "the derivative span in degree u-1 has dimension "
                                       "strictly below g_{u-1}",
}


@dataclass(frozen=True, slots=True)
class CheckRow:
    check_id: str
    target: str
    lhs: str
    rhs: str
    holds: bool
    probe: bool = False
    note: str = ""


@dataclass
class VerificationReport:
    title: str
    checks: list[CheckRow] = field(default_factory=list)
    runtimes_ms: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(r.holds for r in self.checks if not r.probe)

    def extend(self, rows):
        self.checks.extend(rows)

    def to_jsonable(self) -> dict:
        # runtimes are intentionally omitted: identical invocations with
        # identical seeds must produce byte-identical JSON
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {
                    "id": r.check_id,
                    "target": r.target,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "holds": r.holds,
                    "probe": r.probe,
                    "note": r.note,
                }
                for r in self.checks
            ],
        }


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _timed(report: VerificationReport, name: str, fn, *args):
    t0 = time.perf_counter()
    rows = fn(*args)
    report.runtimes_ms[name] = 1000.0 * (time.perf_counter() - t0)
    report.extend(rows)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

# Every family and counterexample takes the run's seed, its ``build``
# (``catalog.build`` cached for one ``run_families`` call, so all read
# the same sphere objects and share what each complex memoizes) and its
# ``spaces`` (a ``stress.StressSpaces`` under the seed's generic
# embedding, cached for the run by the complex's value, so the stress
# family's first seed and every socle share its stresses by degree),
# then its own parameters.

def rows_enumeration(seed: int, build, spaces) -> list[CheckRow]:
    rows = []
    for d in range(2, 9):
        h = h_from_f(f_vector(build(f"boundary-simplex-{d}").complex), d)
        rows.append(CheckRow("h-of-boundary-simplex", f"boundary-simplex-{d}",
                             _fmt(h), _fmt([1] * (d + 1)), h == [1] * (d + 1)))
    for name in cat.catalog_names():
        c = build(name).complex
        d = c.dim + 1
        f = f_vector(c)
        h = h_from_f(f, d)
        rows.append(CheckRow("f-h-roundtrip", name, _fmt(f_from_h(h, d)), _fmt(f),
                             f_from_h(h, d) == f))
        rows.append(CheckRow("dehn-sommerville", name, _fmt(h), _fmt(list(reversed(h))),
                             check_dehn_sommerville(h)))
        if d % 2 == 1:
            g = g_vector(c)
            rows.append(CheckRow("odd-d-top-g-vanishes", name, _fmt(g[-1]), "0", g[-1] == 0))
        if c.dim >= 2 and cc.is_flag(c):
            gamma = cat.invariants(c).gamma
            rows.append(CheckRow("gamma-nonnegativity-probe", name, _fmt(list(gamma)),
                                 ">= 0 componentwise", all(x >= 0 for x in gamma),
                                 probe=True))
    for name in cat.RESIDUAL:
        c = build(name).complex
        d = c.dim + 1
        for k in range((d - 1) // 2 + 1):
            r = mcmullen_residual(c, k)
            rows.append(CheckRow("g-link-sum-rule", f"{name}[k={k}]",
                                 _fmt(r), "0", r == 0))
        for i in range((d - 1) // 2 + 1):
            r = gamma_mcmullen_residual(c, i)
            rows.append(CheckRow("gamma-link-sum-rule", f"{name}[i={i}]",
                                 _fmt(r), "0", r == 0))
    for name, k in (("K-2-4", 2), ("octahedron", 1), ("cross-5", 2)):
        c = build(name).complex
        lhs, rhs = corollary_S_k_2k_bound(c, k)
        rows.append(CheckRow("g-k-vs-f0-over-k-plus-2", f"{name}[k={k}]",
                             _fmt(lhs), _fmt(rhs), Fraction(lhs) >= rhs))
    return rows


def rows_stress(seed: int, build, spaces) -> list[CheckRow]:
    rows = []
    for name in cat.RESIDUAL:
        c = build(name).complex
        d = c.dim + 1
        g = g_vector(c)
        degrees = range(d // 2 + 1)
        dims = spaces(c).dims(degrees)
        second = st.StressSpaces(c, st.generic_embedding(c, seed + st.SECOND_SEED_OFFSET)
                                 ).dims(degrees)
        for k in degrees[1:]:
            d1, d2 = dims[k], second[k]
            rows.append(CheckRow("stress-dim-seed-stable", f"{name}[k={k}]",
                                 _fmt(d1), _fmt(d2), d1 == d2))
            rows.append(CheckRow("stress-dim-equals-g", f"{name}[k={k}]",
                                 _fmt(d1), _fmt(g[k]), d1 == g[k]))
    poly = build("polytope-1")
    g = g_vector(poly.complex)
    dims = st.StressSpaces(poly.complex, poly.natural_coords).dims((1, 2, 3))
    rows.append(CheckRow("stress-dim-natural", "polytope-1[k=1..3]",
                         _fmt(dims), _fmt([g[1], g[2], g[3]]),
                         dims == [g[1], g[2], g[3]] == [2, 3, 1]))
    for name in ("octahedron", "cross-4", "cross-5", "cross-6"):
        sphere = build(name)
        c = sphere.complex
        g = g_vector(c)
        d = c.dim + 1
        dims = st.StressSpaces(c, sphere.natural_coords).dims(range(1, d // 2 + 1))
        rows.append(CheckRow("stress-dim-natural", name, _fmt(dims),
                             _fmt(g[1:d // 2 + 1]), dims == list(g[1:d // 2 + 1])))
    return rows


def socle_relation(d: int, k: int) -> str | None:
    """How the degree-k socle of a (d-1)-sphere compares with its number
    of missing (d-k)-faces: "=" below degree floor((d-1)/2), ">=" at it,
    None (no claim) above."""
    middle = (d - 1) // 2
    return "=" if k < middle else ">=" if k == middle else None


# The statement id and the comparison that each socle relation checks.
_SOCLE_CHECKS = {"=": ("socle-equals-missing-count", operator.eq),
                 ">=": ("socle-middle-at-least-missing-count", operator.ge)}


def rows_socle(seed: int, build, spaces) -> list[CheckRow]:
    rows = []
    for name in cat.RESIDUAL:
        c = build(name).complex
        d = c.dim + 1
        soc = spaces(c).socle
        counts = cc.missing_face_counts(c)
        for k in range(d // 2 + 1):
            relation = socle_relation(d, k)
            if relation:
                check_id, holds = _SOCLE_CHECKS[relation]
                m = counts.get(d - k, 0)
                rows.append(CheckRow(check_id, f"{name}[k={k}]", _fmt(soc[k]), _fmt(m),
                                     holds(soc[k], m)))
    verdict = st.is_level(spaces(build("K-2-4").complex).socle, 2)
    rows.append(CheckRow("level-up-to-socle-degree", "K-2-4[up_to=2]",
                         str(verdict.holds), "True", verdict.holds, note=verdict.detail))
    return rows


def rows_alpha(seed: int, build, spaces) -> list[CheckRow]:
    rows = []
    for name in (*cat.RESIDUAL, "cross-7"):
        c = build(name).complex
        alpha, _ = independence_number(graph_of(c))
        f = f_vector(c)
        bound = turan_bound(f[1], f[2])
        rows.append(CheckRow("alpha-within-turan", name, _fmt(alpha), _fmt(bound),
                             Fraction(alpha) >= bound))
        for chk in verify_alpha_inequalities(c):
            if chk.holds is None:
                continue
            rows.append(CheckRow(chk.statement, f"{name}[i={chk.index}]",
                                 _fmt(chk.lhs), _fmt(chk.rhs), chk.holds))
    for name in ("polytope-2",):
        c = build(name).complex
        for row in gk_ratio_sweep(c):
            rows.append(CheckRow(
                "gk-ratio-sweep", f"{name}[k={row.k}]",
                f"g_{row.k + 1}={row.g_k_plus_1}",
                f"f_{row.k - 1}^{row.exponent}={row.f_k_minus_1 ** float(row.exponent):.3f}",
                True, probe=True,
                note=f"ratio={row.ratio:.4f}, alpha_aux={row.alpha_aux}"))
    return rows


def rows_sequences(seed: int, build, spaces) -> list[CheckRow]:
    rows = []
    monotone = all(
        seqs.macaulay_upper(a, i) <= seqs.macaulay_upper(a + 1, i)
        for i in range(1, 7) for a in range(0, 50))
    rows.append(CheckRow("macaulay-monotone", "a<=50, i<=6", str(monotone), "True", monotone))
    verdict = seqs.is_M_sequence([1, 2, 4])
    rows.append(CheckRow("m-sequence-rejects", "(1,2,4)", str(verdict.holds), "False",
                         not verdict.holds, note=verdict.detail))
    for name in cat.catalog_names():
        c = build(name).complex
        if c.dim < 2:
            continue
        g = list(g_vector(c))
        v = seqs.is_M_sequence(g)
        rows.append(CheckRow("g-vector-is-m-sequence", name, _fmt(g), "M-sequence",
                             v.holds, note=v.detail))
        u_tilde = guaranteed_level_degree(c)
        lv = seqs.corollary_level_g_check(g, u_tilde)
        rows.append(CheckRow("g-truncation-level-checks", f"{name}[u~={u_tilde}]",
                             _fmt(g[:u_tilde + 1]), "level consequences", lv.holds,
                             note=lv.detail))
    return rows


def rows_s24(seed: int, build, spaces) -> list[CheckRow]:
    rows = []
    for name in cat.S24:
        c = build(name).complex
        g2, bound, holds = s24.verify_theorem_main_s24(c)
        rows.append(CheckRow("s24-main-bound", name, _fmt(g2), _fmt(bound), holds))
        quarter = Fraction(len(c.vertices), 4)
        rows.append(CheckRow("s24-quarter-bound", name, _fmt(g2), _fmt(quarter),
                             Fraction(g2) >= quarter))
        pg2, pg1, p = s24.probe_nevo(c)
        rows.append(CheckRow("s24-nevo-probe", name, _fmt(pg2), _fmt(pg1), p,
                             probe=True))
        if name == "K-2-4":
            rows.append(CheckRow("s24-bound-tight-at-minimum", "K-2-4", _fmt(g2),
                                 _fmt(bound), Fraction(g2) == bound))
    return rows


def rows_counterexample_level(seed: int, build, spaces, u: int, k: int) -> list[CheckRow]:
    rep = cat.verify_counterexample_level(u, k)
    rows = [
        CheckRow("counterexample-level-formula", rep.name, _fmt(list(rep.g)),
                 _fmt(list(rep.formula)), rep.formula_matches),
        CheckRow("counterexample-level-top", rep.name, _fmt(rep.g_top), "1", rep.g_top == 1),
        CheckRow("counterexample-level-fails", rep.name,
                 f"g_1={rep.g1}, g_{u - 1}={rep.g_top_minus1}", "not level",
                 not rep.level_verdict.holds, note=rep.level_verdict.detail),
    ]
    if u <= 5:  # desk-scale cap on the socle
        soc = spaces(rep.complex).socle
        rows.append(CheckRow("counterexample-level-socle", rep.name, _fmt(soc),
                             f"nonzero below degree {u}", not st.is_level(soc, u).holds))
    return rows


def rows_counterexample_support(seed: int, build, spaces, m: int) -> list[CheckRow]:
    rep = cat.verify_counterexample_support(m)
    name = rep.name
    return [
        CheckRow("counterexample-support-operators", name, str(rep.operator_equations_hold),
                 "True", rep.operator_equations_hold),
        CheckRow("counterexample-support-dim", name, _fmt(rep.stress_space_dim), "1",
                 rep.stress_space_dim == 1),
        CheckRow("counterexample-support-spans", name, str(rep.explicit_stress_spans),
                 "True", rep.explicit_stress_spans),
        CheckRow("counterexample-support-coefficient", name, _fmt(rep.mixed_coefficient),
                 "0", rep.mixed_coefficient == 0),
        CheckRow("counterexample-support-faces", name, _fmt(rep.unsupported_faces),
                 _fmt(rep.candidate_faces), rep.unsupported_faces == rep.candidate_faces),
        CheckRow("counterexample-support-span-gap", name, _fmt(rep.derivative_span_dim),
                 f"< {rep.g_top_minus1}", rep.derivative_span_dim < rep.g_top_minus1),
    ]


FAMILIES = {
    "enumeration": rows_enumeration,
    "stress": rows_stress,
    "socle": rows_socle,
    "alpha-bounds": rows_alpha,
    "sequences": rows_sequences,
    "s24": rows_s24,
}


# ``run_families`` takes each counterexample as its key here followed by
# its parameters: ("level", u, k) or ("support", m).
COUNTEREXAMPLES = {
    "level": rows_counterexample_level,
    "support": rows_counterexample_support,
}


def run_families(families, seed: int, counterexamples=()) -> VerificationReport:
    runs = [(fam, FAMILIES[fam], ()) for fam in families] + [
        (f"counterexample-{ce[0]}", COUNTEREXAMPLES[ce[0]], ce[1:]) for ce in counterexamples]
    report = VerificationReport(title="+".join(name for name, _, _ in runs))
    build = functools.cache(cat.build)
    spaces = functools.cache(lambda c: st.StressSpaces(c, st.generic_embedding(c, seed)))
    for name, rows, params in runs:
        _timed(report, name, rows, seed, build, spaces, *params)
    # report order is fixed by statement id (then target), independent of
    # the order the checks were produced in
    report.checks.sort(key=lambda r: (r.check_id, r.target))
    return report
