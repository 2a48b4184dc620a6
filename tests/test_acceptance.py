"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is exact integer/rational arithmetic; there are no
tolerances to tune.  Run with ``pytest tests/test_acceptance.py -s`` to
see the per-criterion lines.
"""

from fractions import Fraction
from math import comb

import spherestress as ss
from spherestress import verify as ver
from spherestress.stress import SECOND_SEED_OFFSET

SEED = 17
SEED2 = SEED + SECOND_SEED_OFFSET

RESIDUAL_NAMES = (["octahedron", "cross-4", "cross-5", "cross-6", "K-2-4", "K-2-5"]
                  + [f"cyclejoin-{n}-{m}" for n in range(3, 7) for m in range(n, 7)])


def _report(num, text):
    print(f"criterion {num:>2} PASS: {text}")


def test_criterion_01_boundary_simplex_h_and_roundtrip():
    for d in range(2, 9):
        f = ss.f_vector(ss.boundary_simplex(d))
        assert ss.h_from_f(f, d) == [1] * (d + 1), d
    for name in ss.catalog_names():
        c = ss.build(name).complex
        d = c.dim + 1
        f = ss.f_vector(c)
        assert ss.f_from_h(ss.h_from_f(f, d), d) == f, name
    _report(1, "h(boundary simplex) all ones for 2 <= d <= 8; "
               "f<->h roundtrip exact on the whole catalog")


def test_criterion_02_dehn_sommerville():
    for name in ss.catalog_names():
        c = ss.build(name).complex
        h = ss.h_vector(c)
        assert ss.check_dehn_sommerville(h), name
        if (c.dim + 1) % 2 == 1:
            assert ss.g_vector(c)[-1] == 0, name
    _report(2, "h symmetric on every catalog sphere; odd d has top g = 0")


def test_criterion_03_link_sum_rules():
    checked = 0
    for name in RESIDUAL_NAMES:
        c = ss.build(name).complex
        d = c.dim + 1
        for k in range((d - 1) // 2 + 1):
            assert ss.mcmullen_residual(c, k) == 0, (name, k)
            assert ss.gamma_mcmullen_residual(c, k) == 0, (name, k)
            checked += 2
    _report(3, f"g- and gamma-link sum rules exactly 0 in {checked} cases")


def test_criterion_04_stress_dimensions():
    cases = 0
    for name in RESIDUAL_NAMES:
        c = ss.build(name).complex
        d = c.dim + 1
        g = ss.g_vector(c)
        degrees = range(1, d // 2 + 1)
        dims1 = ss.StressSpaces(c, ss.generic_embedding(c, SEED)).dims(degrees)
        dims2 = ss.StressSpaces(c, ss.generic_embedding(c, SEED2)).dims(degrees)
        for k, d1, d2 in zip(degrees, dims1, dims2):
            assert d1 == d2 == g[k], (name, k)
            cases += 1
    poly = ss.build("polytope-1")
    dims = ss.StressSpaces(poly.complex, poly.natural_coords).dims((1, 2, 3))
    assert dims == [2, 3, 1]
    _report(4, f"stress dims equal g_k under two seeds in {cases} cases; "
               "natural dims of the support polytope are (2, 3, 1)")


def test_criterion_05_socle_and_level():
    socles = {}
    for name in RESIDUAL_NAMES:
        c = ss.build(name).complex
        d = c.dim + 1
        soc = socles[name] = ss.StressSpaces(c, ss.generic_embedding(c, SEED)).socle
        counts = ss.missing_face_counts(c)
        for k in range((d - 1) // 2):
            assert soc[k] == counts.get(d - k, 0), (name, k)
    assert ss.is_level(socles["K-2-4"], 2).holds
    _report(5, "socle dims equal missing-face counts below the middle degree; "
               "the 8-vertex minimizer is level up to degree 2")


def test_criterion_06_level_counterexample():
    rep = ss.verify_counterexample_level(3, 1)
    assert rep.g == (1, 2, 3, 1) == rep.formula
    assert rep.g_top == 1
    assert (rep.g1, rep.g_top_minus1) == (2, 3)
    assert not rep.level_verdict.holds
    socle = ss.StressSpaces(rep.complex, ss.generic_embedding(rep.complex, SEED)).socle
    assert not ss.is_level(socle, 3).holds  # nonzero below degree u = 3
    _report(6, "g of the 9-vertex join sphere is (1,2,3,1), matches the band "
               "formula, ends in 1, and fails the level test via asymmetry")


def test_criterion_07_support_counterexample():
    rep = ss.verify_counterexample_support(1)
    assert rep.operator_equations_hold          # all 7 operator equations
    assert rep.stress_space_dim == 1
    assert rep.explicit_stress_spans
    assert rep.mixed_coefficient == 0
    assert rep.candidate_faces == rep.unsupported_faces == 27
    assert rep.derivative_span_dim == 2 < rep.g_top_minus1 == 3
    _report(7, "explicit degree-3 stress passes all 7 operator equations; "
               "dim = 1; mixed coefficient 0; 27 unsupported faces; "
               "derivative span 2 < g_2 = 3")


def test_criterion_08_s24_bound():
    names = ["K-2-4", "cross-5"] + [f"cyclejoin-{n}-{m}"
                                    for n in range(3, 7) for m in range(n, 7)]
    for name in names:
        c = ss.build(name).complex
        g2, bound, holds = ss.verify_theorem_main_s24(c)
        assert holds, name
        assert Fraction(g2) >= Fraction(len(c.vertices), 4), name
        if name == "K-2-4":
            assert Fraction(g2) == bound
        elif len(c.vertices) > 8:
            assert Fraction(g2) > bound, name
    _report(8, "g_2 >= (2/5) f_0 - 6/5 with equality exactly on the 8-vertex "
               "minimizer; the f_0/4 bound also holds")


def test_criterion_09_alpha_inequalities():
    checked = [r for r in ver.run_families(["alpha-bounds"], SEED).checks if not r.probe]
    assert {r.target.split("[")[0] for r in checked} == set(RESIDUAL_NAMES + ["cross-7"])
    assert {r.check_id for r in checked} == {"alpha-within-turan", "g-ge-alpha", "gi-ge-2alpha",
                                             "g2-ge-(d-4)alpha", "gi-ge-(d-2i)alpha"}
    for row in checked:
        assert row.holds, row
    for d in (5, 6, 7):
        sphere = ss.build(f"cross-{d}")
        c = sphere.complex
        g2 = ss.g_vector(c)[2]
        assert g2 == d * (d - 3) // 2
        alpha, _ = ss.independence_number(ss.graph_of(c))
        assert alpha == 2
        assert g2 >= (d - 4) * alpha
    _report(9, "every applicable g vs alpha inequality holds; cross-polytopes "
               "give g_2 = d(d-3)/2 >= (d-4)*2 for d = 5, 6, 7")


def test_criterion_10_sequences():
    def expansions(a, i):
        found = []

        def rec(rest, t, n_max, acc):
            if rest == 0:
                found.append(list(acc))
                return
            if t < 1:
                return
            n = t
            while comb(n, t) <= rest and n < n_max:
                rec(rest - comb(n, t), t - 1, n, acc + [(n, t)])
                n += 1

        rec(a, i, 10 ** 6, [])
        return found

    for i in range(1, 7):
        for a in range(0, 51):
            if a == 0:
                assert ss.macaulay_upper(a, i) == 0
                continue
            exps = expansions(a, i)
            assert len(exps) == 1, (a, i)
            assert ss.macaulay_upper(a, i) == sum(comb(n + 1, t + 1)
                                                  for n, t in exps[0])
    assert not ss.is_M_sequence([1, 2, 4]).holds
    for name in ss.catalog_names():
        c = ss.build(name).complex
        if c.dim < 1:
            continue
        g = ss.g_vector(c)
        assert ss.is_M_sequence(g).holds, name
        if c.dim >= 2:
            u_tilde = min(c.dim + 1 - ss.max_missing_dim(c), c.dim // 2)
            assert ss.corollary_level_g_check(g, u_tilde).holds, name
    _report(10, "Macaulay bound matches the expansion oracle for a <= 50, "
                "i <= 6; (1,2,4) rejected; catalog g-vectors are M-sequences "
                "and their truncations pass the level corollary")
