"""Machine-checkable verification reports over the shipped catalog.

Each statement is one entry of ``STATEMENTS``: its family, its
``--explain`` text (``EXPLAIN``), its roster and its evaluator, which
checks the statement's hypotheses itself.  The two counterexamples make
their rows from their own parameters (``COUNTEREXAMPLES``).  Rows marked
as probes record conjectural or purely diagnostic quantities and never
affect the exit status.
"""

from __future__ import annotations

import functools
import operator
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from . import catalog as cat
from . import complex_core as cc
from . import enumeration as en
from . import graphs as gr
from . import s24
from . import sequences as seqs
from . import stress as st


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


class Facts:
    """What the statements read of one catalog sphere in one run: the
    sphere, its complex ``c`` and d = dim + 1, and, each computed on
    first use, its f-, h- and g-vectors, the largest dimension of a
    missing face (``jstar``), the independence number of its 1-skeleton
    (``alpha``) and its ``stress.StressSpaces`` under the run's seed."""

    def __init__(self, sphere: cat.NamedSphere, spaces):
        self.sphere = sphere
        self.c = sphere.complex
        self.d = self.c.dim + 1
        self._spaces = spaces

    @functools.cached_property
    def f(self) -> list[int]:
        return en.f_vector(self.c)

    @functools.cached_property
    def h(self) -> list[int]:
        return en.h_from_f(self.f, self.d)

    @functools.cached_property
    def g(self) -> list[int]:
        return en.g_from_h(self.h)

    @functools.cached_property
    def jstar(self) -> int:
        return cc.max_missing_dim(self.c)

    @property
    def flag(self) -> bool:
        return self.jstar <= 1

    @functools.cached_property
    def alpha(self) -> int:
        return gr.independence_number(gr.graph_of(self.c))[0]

    @functools.cached_property
    def spaces(self) -> st.StressSpaces:
        return self._spaces(self.c)


@dataclass(frozen=True, slots=True)
class Statement:
    """One checked statement.  ``roster`` returns, at run time, the
    catalog names it is checked on, or the one name "" of no sphere.
    ``evaluate`` takes one of them as ``Facts`` (None for "") and returns
    (target suffix, lhs, rhs, holds[, note]) for each instance whose
    hypotheses hold; the target is the name followed by the suffix."""

    family: str
    text: str
    roster: Callable[[], Iterable[str]]
    evaluate: Callable[[Facts], Iterable[tuple]]
    probe: bool = False


def _row(suffix: str, lhs, rhs, relation=operator.eq, note: str = "") -> tuple:
    """A row whose check is ``relation(lhs, rhs)``."""
    return suffix, lhs, rhs, relation(lhs, rhs), note


def _verdict(suffix: str, lhs, rhs, verdict) -> tuple:
    """A row whose check is a ``sequences.SequenceVerdict``."""
    return suffix, lhs, rhs, verdict.holds, verdict.detail


def _seed_stable(x):
    degrees = range(1, x.d // 2 + 1)
    seed = x.spaces.embedding.seed + st.SECOND_SEED_OFFSET
    second = st.StressSpaces(x.c, st.generic_embedding(x.c, seed))
    return [_row(f"[k={k}]", d1, d2)
            for k, d1, d2 in zip(degrees, x.spaces.dims(degrees), second.dims(degrees))]


def _natural(x):
    if x.sphere.natural_coords is None:
        return []
    top = x.d // 2
    dims = st.StressSpaces(x.c, x.sphere.natural_coords).dims(range(1, top + 1))
    if x.sphere.name == "polytope-1":  # its row names its degrees and pins g = (2, 3, 1)
        return [("[k=1..3]", dims, x.g[1:4], dims == x.g[1:4] == [2, 3, 1])]
    return [_row("", dims, x.g[1:top + 1])]


def socle_relation(d: int, k: int) -> str | None:
    """How the degree-k socle of a (d-1)-sphere compares with its number
    of missing (d-k)-faces: "=" below degree floor((d-1)/2), ">=" at it,
    None (no claim) above."""
    middle = (d - 1) // 2
    return "=" if k < middle else ">=" if k == middle else None


def _socle_rows(x, relation: str, holds):
    counts = cc.missing_face_counts(x.c)
    return [_row(f"[k={k}]", x.spaces.socle[k], counts.get(x.d - k, 0), holds)
            for k in range(x.d // 2 + 1) if socle_relation(x.d, k) == relation]


def _level(x):
    cut = en.guaranteed_level_degree(x.c)
    verdict = st.is_level(x.spaces.socle, cut)
    return [_row(f"[up_to={cut}]", verdict.holds, True, note=verdict.detail)]


def _alpha_roster():
    return (*cat.RESIDUAL, "cross-7")


def _rejects(x):
    verdict = seqs.is_M_sequence([1, 2, 4])
    return [_row("(1,2,4)", verdict.holds, False, note=verdict.detail)]


def _truncation(x):
    cut = en.guaranteed_level_degree(x.c)
    return [_verdict(f"[u~={cut}]", x.g[:cut + 1], "level consequences",
                     seqs.corollary_level_g_check(x.g, cut))]


# The statement table, in family order.
STATEMENTS: dict[str, Statement] = {
    "h-of-boundary-simplex": Statement(
        "enumeration", "the h-vector of the boundary of a d-simplex is (1, 1, ..., 1)",
        lambda: [f"boundary-simplex-{d}" for d in range(2, 9)],
        lambda x: [_row("", x.h, [1] * (x.d + 1))]),
    "f-h-roundtrip": Statement(
        "enumeration", "converting f to h and back reproduces the f-vector exactly",
        lambda: cat.catalog_names(), lambda x: [_row("", en.f_from_h(x.h, x.d), x.f)]),
    "dehn-sommerville": Statement(
        "enumeration", "sphere h-vectors are symmetric: h_i = h_{d-i}",
        lambda: cat.catalog_names(), lambda x: [_row("", x.h, x.h[::-1])]),
    "odd-d-top-g-vanishes": Statement(
        "enumeration", "for odd d, g_{ceil(d/2)} = 0",
        lambda: cat.catalog_names(), lambda x: [_row("", x.g[-1], 0)] if x.d % 2 else []),
    "gamma-nonnegativity-probe": Statement(
        "enumeration",
        "conjecture probe only: are all gamma-numbers of this flag sphere nonnegative?",
        lambda: cat.catalog_names(),
        lambda x: [_row("", en.gamma_from_h(x.h, x.d), ">= 0 componentwise",
                        lambda gamma, _: min(gamma) >= 0)] if x.d >= 3 and x.flag else [],
        probe=True),
    "g-link-sum-rule": Statement(
        "enumeration", "sum_v g_k(lk v) = (k+1) g_{k+1} + (d+1-k) g_k, exactly",
        lambda: cat.RESIDUAL,
        lambda x: [_row(f"[k={k}]", en.mcmullen_residual(x.c, k), 0)
                   for k in range((x.d - 1) // 2 + 1)]),
    "gamma-link-sum-rule": Statement(
        "enumeration", "sum_v gamma_i(lk v) = (i+1) gamma_{i+1} + (2d-4i) gamma_i, exactly",
        lambda: cat.RESIDUAL,
        lambda x: [_row(f"[i={i}]", en.gamma_mcmullen_residual(x.c, i), 0)
                   for i in range((x.d - 1) // 2 + 1)]),
    "g-k-vs-f0-over-k-plus-2": Statement(
        "enumeration", "for 2k-spheres with missing faces of dim <= k: g_k >= f_0/(k+2)",
        lambda: ("K-2-4", "octahedron", "cross-5"),
        lambda x: [_row(f"[k={x.d // 2}]", *en.corollary_S_k_2k_bound(x.c, x.d // 2),
                        operator.ge)] if x.d % 2 and x.jstar <= x.d // 2 else []),
    "stress-dim-equals-g": Statement(
        "stress", "dim of the degree-k affine stress space equals g_k", lambda: cat.RESIDUAL,
        lambda x: [_row(f"[k={k}]", dim, x.g[k])
                   for k, dim in enumerate(x.spaces.dims(range(1, x.d // 2 + 1)), 1)]),
    "stress-dim-seed-stable": Statement(
        "stress", "two generic seeds give identical stress dimensions", lambda: cat.RESIDUAL,
        _seed_stable),
    "stress-dim-natural": Statement(
        "stress", "natural polytope coordinates give stress dimensions equal to g_k",
        lambda: ("polytope-1", "octahedron", "cross-4", "cross-5", "cross-6"), _natural),
    "socle-equals-missing-count": Statement(
        "socle", "socle dimension in degree k equals the number of missing (d-k)-faces, "
        "for k below floor((d-1)/2)", lambda: cat.RESIDUAL,
        lambda x: _socle_rows(x, "=", operator.eq)),
    "socle-middle-at-least-missing-count": Statement(
        "socle", "in degree floor((d-1)/2) the socle dimension is at least the number of "
        "missing (d-k)-faces", lambda: cat.RESIDUAL, lambda x: _socle_rows(x, ">=", operator.ge)),
    "level-up-to-socle-degree": Statement(
        "socle", "the truncated reduction is level: socle vanishes below the cut",
        lambda: ("K-2-4",), _level),
    "alpha-within-turan": Statement(
        "alpha-bounds", "alpha >= f_0^2/(2 f_1 + f_0) (exact rational comparison)", _alpha_roster,
        lambda x: [_row("", x.alpha, gr.turan_bound(x.f[1], x.f[2]), operator.ge)]),
    "g-ge-alpha": Statement(
        "alpha-bounds", "g_i >= alpha when missing faces have dimension <= d-i-1, i <= (d-1)/2",
        _alpha_roster,
        lambda x: [_row(f"[i={i}]", x.g[i], x.alpha, operator.ge)
                   for i in range(1, (x.d - 1) // 2 + 1) if x.jstar <= x.d - i - 1]),
    "g2-ge-(d-4)alpha": Statement(
        "alpha-bounds", "flag with d >= 5: g_2 >= (d-4) alpha", _alpha_roster,
        lambda x: [_row("[i=2]", x.g[2], (x.d - 4) * x.alpha, operator.ge)]
        if x.flag and x.d >= 5 else []),
    "gi-ge-(d-2i)alpha": Statement(
        "alpha-bounds", "flag: g_i >= (d-2i) alpha for 2 <= i <= (d-1)/2", _alpha_roster,
        lambda x: [_row(f"[i={i}]", x.g[i], (x.d - 2 * i) * x.alpha, operator.ge)
                   for i in range(2, (x.d - 1) // 2 + 1) if x.flag]),
    "gi-ge-2alpha": Statement(
        "alpha-bounds", "g_i >= 2 alpha for 2 <= i <= d/3 when missing faces have dimension "
        "<= min(floor((d-1)/2)-1, d-2i)", _alpha_roster,
        lambda x: [_row(f"[i={i}]", x.g[i], 2 * x.alpha, operator.ge)
                   for i in range(2, x.d // 3 + 1)
                   if x.jstar <= min((x.d - 1) // 2 - 1, x.d - 2 * i)]),
    "gk-ratio-sweep": Statement(
        "alpha-bounds", "diagnostic only: g_{k+1} / f_{k-1}^e for the applicable exponent e; "
        "the known inequality has a nonconstructive constant", lambda: ("polytope-2",),
        lambda x: [(f"[k={row.k}]", f"g_{row.k + 1}={row.g_k_plus_1}",
                    f"f_{row.k - 1}^{row.exponent}={row.f_k_minus_1 ** float(row.exponent):.3f}",
                    True, f"ratio={row.ratio:.4f}, alpha_aux={row.alpha_aux}")
                   for row in gr.gk_ratio_sweep(x.c)], probe=True),
    "macaulay-monotone": Statement(
        "sequences", "a^<i> is nondecreasing in a for fixed i", lambda: ("",),
        lambda x: [_row("a<=50, i<=6", all(
            seqs.macaulay_upper(a, i) <= seqs.macaulay_upper(a + 1, i)
            for i in range(1, 7) for a in range(0, 50)), True)]),
    "m-sequence-rejects": Statement(
        "sequences", "(1, 2, 4) is rejected: 4 > 2^<1> = 3", lambda: ("",), _rejects),
    "g-vector-is-m-sequence": Statement(
        "sequences", "the g-vector of every catalog sphere is an M-sequence",
        lambda: cat.catalog_names(),
        lambda x: [_verdict("", x.g, "M-sequence", seqs.is_M_sequence(x.g))] if x.d >= 3 else []),
    "g-truncation-level-checks": Statement(
        "sequences", "the g-vector truncated at min(u, floor((d-1)/2)) passes the "
        "level-sequence consequences", lambda: cat.catalog_names(),
        lambda x: _truncation(x) if x.d >= 3 else []),
    "s24-main-bound": Statement(
        "s24", "4-spheres with missing faces of dim <= 2: g_2 >= (2/5) f_0 - 6/5",
        lambda: cat.S24,
        lambda x: [("", *s24.verify_theorem_main_s24(x.c))] if s24.in_s24(x.c) else []),
    "s24-quarter-bound": Statement(
        "s24", "same class: g_2 >= f_0/4", lambda: cat.S24,
        lambda x: [_row("", x.g[2], Fraction(x.f[1], 4), operator.ge)]
        if s24.in_s24(x.c) else []),
    "s24-bound-tight-at-minimum": Statement(
        "s24", "the main bound holds with equality on the 8-vertex minimizer",
        lambda: ("K-2-4",), lambda x: [_row("", *s24.verify_theorem_main_s24(x.c)[:2])]),
    "s24-nevo-probe": Statement(
        "s24", "conjecture probe only: is g_2 >= g_1?", lambda: cat.S24,
        lambda x: [("", *s24.probe_nevo(x.c))] if s24.in_s24(x.c) else [], probe=True),
}

# family -> its statement ids, in table order
FAMILIES: dict[str, list[str]] = {
    fam: [sid for sid, s in STATEMENTS.items() if s.family == fam]
    for fam in dict.fromkeys(s.family for s in STATEMENTS.values())}


# ---------------------------------------------------------------------------
# Counterexamples
# ---------------------------------------------------------------------------

# Each counterexample takes the run's ``spaces`` (see ``run_families``),
# then its own parameters.  The support counterexample embeds its
# polytope by its natural coordinates, so it reads no ``spaces``.

def rows_counterexample_level(spaces, u: int, k: int) -> list[CheckRow]:
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


def rows_counterexample_support(spaces, m: int) -> list[CheckRow]:
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


# ``run_families`` takes each counterexample as its key here followed by
# its parameters: ("level", u, k) or ("support", m).
COUNTEREXAMPLES = {
    "level": rows_counterexample_level,
    "support": rows_counterexample_support,
}

# Each counterexample's parameter check, which ``run_families`` runs
# before any statement so that bad parameters fail at once.
_PARAMETER_CHECKS = {
    "level": cat.check_level_parameters,
    "support": cat.check_support_parameters,
}

# The statements that the counterexamples' rows check.
_COUNTEREXAMPLE_TEXTS = {
    "counterexample-level-formula": "the g-vector of the join of two boundary (u-k)-simplices "
                                    "and a boundary 2k-simplex matches the piecewise band formula",
    "counterexample-level-top": "g_u = 1 for that sphere",
    "counterexample-level-fails": "its g-vector fails the level necessary conditions "
                                  "(g_1 = 2 but g_{u-1} = 3)",
    "counterexample-level-socle": "the stress-space socle is nonzero in some degree below u",
    "counterexample-support-operators": "the explicit product stress satisfies all d+1 operator "
                                        "equations exactly",
    "counterexample-support-dim": "the top-degree stress space is one-dimensional",
    "counterexample-support-spans": "the explicit stress spans it (a nonzero stress in a one-dimensional space)",
    "counterexample-support-coefficient": "the mixed group-monomial coefficient is exactly 0",
    "counterexample-support-faces": "every face with m vertices from each simplex group plus one "
                                    "triangle vertex is outside the support",
    "counterexample-support-span-gap": "the derivative span in degree u-1 has dimension "
                                       "strictly below g_{u-1}",
}

EXPLAIN: dict[str, str] = {**{sid: s.text for sid, s in STATEMENTS.items()},
                           **_COUNTEREXAMPLE_TEXTS}


def _family_rows(family: str, facts):
    for sid in FAMILIES[family]:
        s = STATEMENTS[sid]
        for name in s.roster():
            for suffix, lhs, rhs, holds, *note in s.evaluate(facts(name) if name else None):
                yield CheckRow(sid, name + suffix, _fmt(lhs), _fmt(rhs), holds, s.probe, *note)


def run_families(families, seed: int, counterexamples=()) -> VerificationReport:
    """Check each statement of ``families`` on its roster, then each
    counterexample, in one report ordered by statement id and target.

    Each catalog sphere is built once, into its one ``Facts``, so every
    statement reads the same sphere objects and shares what each complex
    memoizes.  The run's ``spaces`` holds one ``stress.StressSpaces`` per
    complex, by value, under the seed's generic embedding, for the
    statements and the counterexamples alike.  Every counterexample's
    parameters are checked before anything runs."""
    for kind, *params in counterexamples:
        _PARAMETER_CHECKS[kind](*params)
    spaces = functools.cache(lambda c: st.StressSpaces(c, st.generic_embedding(c, seed)))
    facts = functools.cache(lambda name: Facts(cat.build(name), spaces))
    runs = [(fam, functools.partial(_family_rows, fam, facts)) for fam in families] + [
        (f"counterexample-{kind}",
         functools.partial(COUNTEREXAMPLES[kind], spaces, *params))
        for kind, *params in counterexamples]
    report = VerificationReport(title="+".join(name for name, _ in runs))
    for name, rows in runs:
        t0 = time.perf_counter()
        report.checks.extend(rows())
        report.runtimes_ms[name] = 1000.0 * (time.perf_counter() - t0)
    # report order is fixed by statement id (then target), independent of
    # the order the checks were produced in
    report.checks.sort(key=lambda r: (r.check_id, r.target))
    return report
