"""Graphs of complexes and exact independence numbers.

The independence number is computed exactly by branch and bound with a
greedy clique-cover upper bound; desk-scale graphs only (the default
vertex cap is 64).  The g vs alpha bounds, each with its hypotheses,
are statements of ``verify.STATEMENTS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .complex_core import SimplicialComplex, max_missing_dim
from .enumeration import f_vector, g_vector

VERTEX_CAP = 64  # the default vertex cap of independence_number


@dataclass(frozen=True)
class Graph:
    vertices: tuple[int, ...]
    edges: frozenset[frozenset[int]]

    def __post_init__(self):
        vs = set(self.vertices)
        for e in self.edges:
            if len(e) != 2 or not e <= vs:
                raise ValueError(f"bad edge {sorted(e)}")


def graph_of(c: SimplicialComplex) -> Graph:
    """The 1-skeleton as an abstract graph."""
    return Graph(c.vertices, c.faces(1))


class VertexCapExceeded(ValueError):
    """Raised when a graph is too large for the exact solver; use
    turan_bound for a guaranteed lower bound instead."""


def independence_number(g: Graph, cap: int = VERTEX_CAP) -> tuple[int, frozenset[int]]:
    """Exact maximum independent set via branch and bound.

    Returns (alpha, witness).  The bound at each node is a greedy clique
    cover of the candidate set: an independent set meets each clique at
    most once.
    """
    n = len(g.vertices)
    if n > cap:
        raise VertexCapExceeded(
            f"{n} vertices exceed the cap {cap}; use turan_bound for a lower bound")
    idx = {v: i for i, v in enumerate(g.vertices)}
    adj = [0] * n
    for e in g.edges:
        a, b = (idx[v] for v in e)
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def clique_cover_bound(mask):
        count = 0
        rest = mask
        while rest:
            v = (rest & -rest).bit_length() - 1
            clique = 1 << v
            for u in bits(rest & adj[v]):
                if (1 << u) & rest and clique & ~adj[u] == 0:
                    clique |= 1 << u
            rest &= ~clique
            count += 1
        return count

    best = 0
    best_set = 0

    def expand(cand, cur, size):
        nonlocal best, best_set
        if size > best:
            best, best_set = size, cur
        if not cand or size + clique_cover_bound(cand) <= best:
            return
        # branch on a candidate of maximum degree within the candidates
        v = max(bits(cand), key=lambda u: bin(adj[u] & cand).count("1"))
        expand(cand & ~adj[v] & ~(1 << v), cur | (1 << v), size + 1)
        expand(cand & ~(1 << v), cur, size)

    expand((1 << n) - 1, 0, 0)
    witness = frozenset(g.vertices[i] for i in bits(best_set))
    return best, witness


def turan_bound(f0: int, f1: int) -> Fraction:
    """Guaranteed lower bound f0^2 / (2 f1 + f0) on the independence number."""
    if f0 < 1:
        raise ValueError("need at least one vertex")
    return Fraction(f0 * f0, 2 * f1 + f0)


@dataclass(frozen=True)
class RatioSweepRow:
    k: int
    g_k_plus_1: int
    f_k_minus_1: int
    exponent: Fraction
    ratio: float
    alpha_aux: int | None


def gk_ratio_sweep(c: SimplicialComplex) -> list[RatioSweepRow]:
    """Diagnostic only: the ratio g_{k+1} / f_{k-1}^((2k+2)/(3k+1)).

    The underlying inequality involves a nonconstructive constant, so
    nothing here is pass/fail.  For each applicable k the row reports
    the ratio and the independence number of the auxiliary graph whose
    vertices are the (k-1)-faces, joined when their union is a face.
    """
    d = c.dim + 1
    f = f_vector(c)
    g = g_vector(c)
    rows = []
    for k in range(2, d // 2):
        if d < 3 * (k + 1) or max_missing_dim(c) > d - 2 - 2 * k:
            continue
        if 4 * k <= d:
            exponent = Fraction(2 * k + 2, 3 * k + 1)
        else:
            exponent = Fraction(2 * k + 2, k + 1 + d // 2)
        ratio = g[k + 1] / (f[k] ** float(exponent))  # f[k] = f_{k-1}
        alpha_aux = None
        faces_km1 = sorted(c.faces(k - 1), key=sorted)
        if len(faces_km1) <= VERTEX_CAP:
            labels = {fc: i for i, fc in enumerate(faces_km1)}
            edges = set()
            for s, t in combinations(faces_km1, 2):
                if c.is_face(s | t):
                    edges.add(frozenset({labels[s], labels[t]}))
            aux = Graph(tuple(range(len(faces_km1))), frozenset(edges))
            alpha_aux, _ = independence_number(aux)
        rows.append(RatioSweepRow(k, g[k + 1], f[k], exponent, ratio, alpha_aux))
    return rows
