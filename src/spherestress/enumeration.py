"""Exact face enumeration invariants: f-, h-, g- and gamma-vectors.

All arithmetic in this module is exact (Python integers and Fractions);
there is deliberately no floating point anywhere, because the checked
identities are exact and a tolerance would only mask bugs.

Conventions, for a complex of dimension d-1:
  f = (f_{-1}, f_0, ..., f_{d-1})  with f_{-1} = 1,
  h = (h_0, ..., h_d)   defined by sum_i f_{i-1} (t-1)^{d-i} = sum_i h_i t^{d-i},
  g = (g_0, ..., g_{ceil(d/2)})    with g_0 = 1 and g_j = h_j - h_{j-1},
  gamma = (gamma_0, ..., gamma_{floor(d/2)}) defined by
      h(t) = sum_k gamma_k t^k (1+t)^{d-2k}.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb

from .complex_core import SimplicialComplex, max_missing_dim


def f_vector(c: SimplicialComplex) -> list[int]:
    """Face counts (f_{-1}, f_0, ..., f_{d-1}) by direct enumeration."""
    return [len(c.faces(k)) for k in range(-1, c.dim + 1)]


def h_from_f(f: list[int], d: int) -> list[int]:
    """Binomial transform of the f-vector."""
    if len(f) != d + 1:
        raise ValueError(f"f-vector must have length d+1 = {d + 1}, got {len(f)}")
    return [sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
            for k in range(d + 1)]


def f_from_h(h: list[int], d: int) -> list[int]:
    """Inverse transform; h_from_f followed by f_from_h is the identity."""
    if len(h) != d + 1:
        raise ValueError(f"h-vector must have length d+1 = {d + 1}, got {len(h)}")
    return [sum(comb(d - i, k - i) * h[i] for i in range(k + 1))
            for k in range(d + 1)]


def g_from_h(h: list[int]) -> list[int]:
    d = len(h) - 1
    top = (d + 1) // 2
    return [1] + [h[j] - h[j - 1] for j in range(1, top + 1)]


def gamma_from_h(h: list[int], d: int) -> list[int]:
    """Coefficients of h(t) in the basis t^k (1+t)^(d-2k).

    Extraction runs from k = 0 upward; any nonzero remainder after
    degree floor(d/2) (possible only for non-sphere input) raises.
    """
    if len(h) != d + 1:
        raise ValueError(f"h-vector must have length d+1 = {d + 1}, got {len(h)}")
    residual = list(h)
    gamma = []
    for k in range(d // 2 + 1):
        g = residual[k]
        gamma.append(g)
        for i in range(d - 2 * k + 1):
            residual[k + i] -= g * comb(d - 2 * k, i)
    if any(residual):
        raise ValueError(f"no gamma decomposition: remainder {residual}")
    return gamma


def h_vector(c: SimplicialComplex) -> list[int]:
    return h_from_f(f_vector(c), c.dim + 1)


def g_vector(c: SimplicialComplex) -> list[int]:
    return g_from_h(h_vector(c))


def gamma_vector(c: SimplicialComplex) -> list[int]:
    return gamma_from_h(h_vector(c), c.dim + 1)


@dataclass(frozen=True)
class InvariantVectors:
    """The four enumeration vectors of one complex, all exact."""

    f: tuple[int, ...]
    h: tuple[int, ...]
    g: tuple[int, ...]
    gamma: tuple[int, ...] | None
    d: int


def invariants(c: SimplicialComplex) -> InvariantVectors:
    d = c.dim + 1
    f = f_vector(c)
    h = h_from_f(f, d)
    try:
        gamma = tuple(gamma_from_h(h, d))
    except ValueError:
        gamma = None
    return InvariantVectors(tuple(f), tuple(h), tuple(g_from_h(h)), gamma, d)


def check_dehn_sommerville(h: list[int]) -> bool:
    """h_i = h_{d-i} for all i."""
    return list(h) == list(reversed(h))


def g2_linear(f0: int, f1: int, d: int) -> int:
    """g_2 = f_1 - d*f_0 + C(d+1, 2)."""
    if d < 2:
        raise ValueError("g2 needs d >= 2")
    return f1 - d * f0 + comb(d + 1, 2)


def vertex_link_f_vectors(c: SimplicialComplex) -> dict[int, list[int]]:
    """f(lk v) for every vertex v of a pure complex, with no link built:
    f_{k-1}(lk v) is the number of k-faces of c that contain v.  Every
    vertex link of a pure (d-1)-complex has dimension d-2, so each vector
    has length d."""
    if not c.is_pure():
        raise ValueError("vertex-link sum rule needs a pure complex")
    counts = [Counter(chain.from_iterable(c.faces(k))) for k in range(c.dim + 1)]
    return {v: [n[v] for n in counts] for v in c.vertices}


def mcmullen_residual(c: SimplicialComplex, k: int) -> int:
    """Defect of the vertex-link sum rule for g-numbers,

        sum_v g_k(lk v) - (k+1) g_{k+1} - (d+1-k) g_k,

    which vanishes on every pure complex of dimension d-1 for
    0 <= k <= floor((d-1)/2); a non-pure complex raises ValueError."""
    links = vertex_link_f_vectors(c)
    d = c.dim + 1
    if not 0 <= k <= (d - 1) // 2:
        raise ValueError(f"k must lie in 0..{(d - 1) // 2}")
    total = sum(g_from_h(h_from_f(f, d - 1))[k] for f in links.values())
    g = g_vector(c)
    return total - (k + 1) * g[k + 1] - (d + 1 - k) * g[k]


def gamma_mcmullen_residual(c: SimplicialComplex, i: int) -> int:
    """Defect of the vertex-link sum rule for gamma-numbers,

        sum_v gamma_i(lk v) - (i+1) gamma_{i+1} - (2d-4i) gamma_i,

    zero on spheres for 0 <= i <= floor((d-1)/2); a non-pure complex
    raises ValueError."""
    links = vertex_link_f_vectors(c)
    d = c.dim + 1
    if not 0 <= i <= (d - 1) // 2:
        raise ValueError(f"i must lie in 0..{(d - 1) // 2}")
    total = sum(gamma_from_h(h_from_f(f, d - 1), d - 1)[i] for f in links.values())
    gam = gamma_vector(c)
    gam_next = gam[i + 1] if i + 1 < len(gam) else 0
    return total - (i + 1) * gam_next - (2 * d - 4 * i) * gam[i]


def guaranteed_level_degree(c: SimplicialComplex) -> int:
    """The degree up to which the truncated Artinian reduction of a
    sphere is level: min(d - j*, floor((d-1)/2)) with j* the largest
    missing-face dimension."""
    d = c.dim + 1
    return min(d - max_missing_dim(c), (d - 1) // 2)


def corollary_S_k_2k_bound(c: SimplicialComplex, k: int) -> tuple[int, Fraction]:
    """For a 2k-dimensional sphere with missing faces of dimension <= k,
    return (g_k, f_0/(k+2)); the first is at least the second."""
    d = c.dim + 1
    if d != 2 * k + 1:
        raise ValueError(f"expected a complex of dimension {2 * k}, got {c.dim}")
    if max_missing_dim(c) > k:
        raise ValueError(f"missing faces exceed dimension {k}")
    g = g_vector(c)
    return g[k], Fraction(len(c.vertices), k + 2)
