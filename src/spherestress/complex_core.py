"""Immutable simplicial complexes and their combinatorial operations.

A complex is stored by its inclusion-maximal faces (facets) over integer
vertex labels; all other faces are derived on demand.  A complex
memoizes three things: its faces by dimension (the one face index:
``is_face`` looks a face up among the faces of its own dimension), its
missing faces and its GF(2) homology sphere verdict.  Every operation
returns a new value, nothing is mutated.

Faces are enumerated once per complex, one frozenset per distinct face:
each size's vertex tuples from all facets are gathered into one set
before any frozenset is made.

The homology sphere test builds no link complex.  It numbers the faces
once, reads each face's link from the face's cofaces in that numbering,
and settles facets and ridges by counting.  Likewise the vertex-link
f-vectors of the link sum rules (``enumeration``) are counted from the
parent's faces.

The distinguished complex ``EMPTY`` is {∅}: the complex whose only face
is the empty face.  It shows up as the link of a facet and as the
(-1)-dimensional sphere; ``from_facets`` never produces it.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, groupby

from .linalg import gf2_pivots


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex-labeled simplicial complex given by its facets.

    Invariants: facets are pairwise incomparable, every vertex occurs in
    some facet, and face membership is closed under subsets by
    construction.  ``dim`` is max facet size minus one.
    """

    vertices: tuple[int, ...]
    facets: frozenset[frozenset[int]]
    dim: int

    @cached_property
    def faces_by_dim(self) -> dict[int, frozenset[frozenset[int]]]:
        """All faces grouped by dimension, including the empty face at -1.

        The sorted vertex tuples of each size are gathered into one set
        first, so a face that several facets share becomes a frozenset
        once.
        """
        facets = [sorted(f) for f in self.facets]
        out = {}
        for k in range(self.dim + 2):
            level: set[tuple[int, ...]] = set()
            for f in facets:
                level.update(combinations(f, k))
            out[k - 1] = frozenset(map(frozenset, level))
        return out

    def faces(self, k: int) -> frozenset[frozenset[int]]:
        """The k-dimensional faces (k = -1 gives {∅})."""
        return self.faces_by_dim.get(k, frozenset())

    def is_face(self, tau) -> bool:
        t = frozenset(tau)
        return t in self.faces(len(t) - 1)

    @cached_property
    def _missing_faces(self) -> tuple[MissingFace, ...]:
        """All missing faces, sorted by (dimension, vertex labels).

        Every proper subset of a missing face s is a face, s - {max s}
        among them, so each candidate is generated exactly once: a face f
        plus a vertex above max(f).
        """
        verts = self.vertices
        out: list[frozenset[int]] = []
        for k in range(self.dim + 1):
            level, above = self.faces(k), self.faces(k + 1)
            for f in level:
                for v in verts[bisect_right(verts, max(f)):]:
                    s = f | {v}
                    if s not in above and all(s - {u} in level for u in f):
                        out.append(s)
        out.sort(key=lambda s: (len(s), sorted(s)))
        return tuple(MissingFace(s) for s in out)

    @cached_property
    def _z2_sphere(self) -> bool:
        """The verdict of ``is_z2_homology_sphere`` on this pure complex.

        No link complex is built.  The cofaces of each face t, one bit
        mask over the face ids, come from the top dimension down:
        cof(t) is t with the cofaces of every face covering t.  Shifted
        down by |t| dimensions they are the faces of lk t, so
        ``_z2_betti`` on them is the homology of lk t.  Facets and
        ridges are settled by counting: a facet's link is {∅}, always
        a (-1)-sphere, and a ridge's link is a set of points, a
        0-sphere exactly when the ridge lies in two facets.  Only two
        dimensions of coface masks are alive at a time.
        """
        down, boundary, starts = _numbered_faces(self)
        top = len(starts) - 2  # the facets' level; level i holds the (i-1)-faces
        cof = [1 << s for s in range(starts[top], starts[top + 1])]
        for lv in range(top - 1, -1, -1):
            first, above = starts[lv], cof
            cof = [1 << s for s in range(first, starts[lv + 1])]
            for s, m in enumerate(above, starts[lv + 1]):
                for t in down[s]:
                    cof[t - first] |= m
            if lv == top - 1:
                if any(m.bit_count() != 3 for m in cof):  # a ridge and two facets
                    return False
                continue
            for m in cof:
                betti = _z2_betti(boundary, starts, lv, m)
                if betti[-1] != 1 or any(betti[:-1]):
                    return False
        return True

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) <= 1

    def __repr__(self):
        return f"SimplicialComplex(f0={len(self.vertices)}, dim={self.dim}, facets={len(self.facets)})"


EMPTY = SimplicialComplex(vertices=(), facets=frozenset({frozenset()}), dim=-1)


def _maximalize(sets: list[frozenset[int]]) -> frozenset[frozenset[int]]:
    """The inclusion-maximal members of ``sets``.  A set is compared only
    with the kept sets of larger size, so pure input makes no comparison."""
    kept: list[frozenset[int]] = []
    for _, same_size in groupby(sorted(set(sets), key=len, reverse=True), key=len):
        kept += [s for s in same_size if not any(s < k for k in kept)]
    return frozenset(kept)


def _make(facet_sets) -> SimplicialComplex:
    facets = _maximalize([frozenset(f) for f in facet_sets])
    if facets == frozenset({frozenset()}):
        return EMPTY
    verts: set[int] = set()
    for f in facets:
        verts.update(f)
    dim = max(len(f) for f in facets) - 1
    return SimplicialComplex(tuple(sorted(verts)), facets, dim)


def from_facets(facets) -> SimplicialComplex:
    """Build a complex from a family of facets (any iterables of ints).

    Non-maximal input faces are absorbed.  Raises ValueError on empty
    input, an empty facet, or a repeated vertex inside one facet.
    """
    facets = list(facets)
    if not facets:
        raise ValueError("need at least one facet")
    sets = []
    for f in facets:
        fl = list(f)
        if not fl:
            raise ValueError("facets must be nonempty")
        fs = frozenset(fl)
        if len(fs) != len(fl):
            raise ValueError(f"facet {sorted(fl)} repeats a vertex")
        sets.append(fs)
    return _make(sets)


def boundary_simplex(d: int) -> SimplicialComplex:
    """Boundary complex of a d-simplex on labels 1..d+1 (a (d-1)-sphere)."""
    if d <= 0:
        raise ValueError("boundary_simplex needs d >= 1")
    verts = range(1, d + 2)
    return _make([set(verts) - {v} for v in verts])


def cycle(n: int) -> SimplicialComplex:
    """The n-cycle 1-2-...-n-1 (a 1-sphere)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return _make([{i, i % n + 1} for i in range(1, n + 1)])


def join(a: SimplicialComplex, b: SimplicialComplex, *rest) -> SimplicialComplex:
    """Join of complexes: faces are unions of faces, one from each factor.

    Vertex labels of the right factor are shifted when the label sets
    overlap, so the join is always defined.
    """
    if rest:
        return join(join(a, b), *rest)
    if a is EMPTY or not a.vertices:
        return b
    if b is EMPTY or not b.vertices:
        return a
    if set(a.vertices) & set(b.vertices):
        offset = max(a.vertices) + 1 - min(b.vertices)
        b = relabel(b, {v: v + offset for v in b.vertices})
    return _make([fa | fb for fa in a.facets for fb in b.facets])


def cone(a: SimplicialComplex, apex: int | None = None) -> SimplicialComplex:
    if apex is None:
        apex = (max(a.vertices) if a.vertices else 0) + 1
    if apex in a.vertices:
        raise ValueError(f"apex {apex} already a vertex")
    return _make([f | {apex} for f in a.facets])


def suspension(a: SimplicialComplex) -> SimplicialComplex:
    return join(a, boundary_simplex(1))


def relabel(a: SimplicialComplex, mapping: dict[int, int]) -> SimplicialComplex:
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("relabeling must be injective")
    return _make([{mapping[v] for v in f} for f in a.facets])


def link(c: SimplicialComplex, tau) -> SimplicialComplex:
    """Link of a face: all faces disjoint from tau whose union with tau is a face."""
    t = frozenset(tau)
    if not t:
        return c
    if not c.is_face(t):
        raise ValueError(f"{sorted(t)} is not a face")
    return _make([f - t for f in c.facets if t <= f])


def star(c: SimplicialComplex, tau) -> SimplicialComplex:
    t = frozenset(tau)
    if not c.is_face(t):
        raise ValueError(f"{sorted(t)} is not a face")
    return _make([f for f in c.facets if t <= f])


def antistar(c: SimplicialComplex, v: int) -> SimplicialComplex:
    if not c.is_face({v}):
        raise ValueError(f"{v} is not a vertex")
    return _make([f - {v} for f in c.facets])


def skeleton(c: SimplicialComplex, k: int) -> SimplicialComplex:
    if not 0 <= k <= c.dim:
        raise ValueError(f"skeleton dimension {k} out of range 0..{c.dim}")
    small = [f for f in c.facets if len(f) <= k]
    return _make(list(c.faces(k)) + small)


def induced(c: SimplicialComplex, w) -> SimplicialComplex:
    """Induced subcomplex on the vertex subset w."""
    ws = frozenset(w)
    if not ws:
        raise ValueError("induced subcomplex needs a nonempty vertex set")
    if not ws <= set(c.vertices):
        raise ValueError("vertex set must be contained in the complex")
    return _make([f & ws for f in c.facets if f & ws])


@dataclass(frozen=True)
class MissingFace:
    """A non-face all of whose proper subsets are faces."""

    vertex_set: frozenset[int]

    @property
    def dim(self) -> int:
        return len(self.vertex_set) - 1

    def __repr__(self):
        return f"MissingFace({sorted(self.vertex_set)})"


def missing_faces(c: SimplicialComplex) -> list[MissingFace]:
    """All missing faces, sorted by (dimension, vertex labels).

    Computed once per complex; each call returns a fresh list.
    """
    return list(c._missing_faces)


def missing_face_counts(c: SimplicialComplex) -> dict[int, int]:
    """m_i = number of missing i-faces, as a dict over occurring dimensions."""
    counts: dict[int, int] = {}
    for mf in missing_faces(c):
        counts[mf.dim] = counts.get(mf.dim, 0) + 1
    return counts


def max_missing_dim(c: SimplicialComplex) -> int:
    mf = missing_faces(c)
    return max(m.dim for m in mf) if mf else 0


def in_class_S(c: SimplicialComplex, j: int) -> bool:
    """True when no missing face has dimension larger than j."""
    return max_missing_dim(c) <= j


def is_flag(c: SimplicialComplex) -> bool:
    return in_class_S(c, 1)


class InadmissibleContraction(ValueError):
    """Raised when an edge to contract lies in a missing face."""

    def __init__(self, edge, witness):
        self.edge = frozenset(edge)
        self.witness = witness
        super().__init__(
            f"edge {sorted(self.edge)} lies in the missing face {sorted(witness)}"
        )


def contract_edge(c: SimplicialComplex, u: int, v: int) -> SimplicialComplex:
    """Contract the edge uv to a fresh vertex.

    Requires lk(uv) = lk(u) ∩ lk(v), equivalently that uv lies in no
    missing face; otherwise InadmissibleContraction is raised carrying a
    witness missing face.  The new vertex gets label max(vertices)+1.
    The result is not checked for sphere-ness; callers validate.
    """
    e = frozenset({u, v})
    if not c.is_face(e):
        raise ValueError(f"{sorted(e)} is not an edge")
    for mf in missing_faces(c):
        if e <= mf.vertex_set:
            raise InadmissibleContraction(e, mf.vertex_set)
    w = max(c.vertices) + 1
    return _make([(f - e) | {w} if f & e else f for f in c.facets])


# ---------------------------------------------------------------------------
# Homology over the two-element field
# ---------------------------------------------------------------------------

def _numbered_faces(c: SimplicialComplex):
    """Number the faces of ``c`` by dimension, the empty face first.

    Returns each face's codimension-1 faces as a tuple of ids and as a
    bit mask, and the first id of every level (level i holds the
    (i-1)-faces) followed by the face count.
    """
    ids: dict[frozenset[int], int] = {}
    down: list[tuple[int, ...]] = []
    boundary: list[int] = []
    starts = []
    for k in range(-1, c.dim + 1):
        starts.append(len(down))
        for f in c.faces(k):
            ids[f] = len(down)
            below = tuple(ids[f - {v}] for v in f)
            down.append(below)
            boundary.append(sum(1 << b for b in below))
    starts.append(len(down))
    return down, boundary, starts


def _z2_betti(boundary: list[int], starts: list[int], low: int, cells: int) -> list[int]:
    """Reduced GF(2) Betti numbers of the chain complex on the faces in
    the bit mask ``cells``, levels ``low`` and up, where each face's
    ``boundary`` is restricted to ``cells``.  Entry i is level low + i.

    ``z2_reduced_betti`` and every face link of the homology sphere test
    go through here.  The boundary ranks come from ``gf2_pivots``, from
    the top level down, with clearing (Chen-Kerber 2011): a pivot i
    found on level l + 1 marks a sum of boundaries that is face i plus
    faces of lower id.  Its own boundary is 0, so the boundary of face
    i is a sum of boundaries of lower ids, its row adds no rank on
    level l, and it is skipped there.
    """
    top = len(starts) - 2
    counts, ranks = {}, {low: 0, top + 1: 0}
    cleared = 0
    for lv in range(top, low - 1, -1):
        level = cells & (((1 << (starts[lv + 1] - starts[lv])) - 1) << starts[lv])
        counts[lv] = level.bit_count()
        if lv > low:
            level &= ~cleared
            rows = []
            while level:
                bit = level & -level
                rows.append(boundary[bit.bit_length() - 1] & cells)
                level ^= bit
            cleared = gf2_pivots(rows)
            ranks[lv] = cleared.bit_count()
    return [counts[lv] - ranks[lv] - ranks[lv + 1] for lv in range(low, top + 1)]


def z2_reduced_betti(c: SimplicialComplex) -> list[int]:
    """Reduced Betti numbers over GF(2), indexed from dimension -1.

    Ranks of the boundary maps are computed by bit-mask elimination; the
    augmentation map to the empty face is included, so the result for a
    k-sphere is 1 in position k+1 and 0 elsewhere.
    """
    _, boundary, starts = _numbered_faces(c)
    return _z2_betti(boundary, starts, 0, (1 << len(boundary)) - 1)


def is_z2_homology_sphere(c: SimplicialComplex) -> bool:
    """True when every face link (the empty face's, the whole complex,
    included) has the reduced GF(2) homology of a sphere of the matching
    dimension.  Links are read from the cofaces of each face, not built
    as complexes; facets pass by definition and a ridge passes when it
    lies in exactly two facets.  The verdict is computed once per
    complex; a non-pure complex raises ValueError."""
    if c is EMPTY:
        return True
    if not c.is_pure():
        raise ValueError("homology sphere test needs a pure complex")
    return c._z2_sphere


# ---------------------------------------------------------------------------
# Isomorphism testing (small complexes)
# ---------------------------------------------------------------------------

def are_isomorphic(a: SimplicialComplex, b: SimplicialComplex) -> bool:
    """Backtracking isomorphism test, fine for desk-scale complexes."""
    if a.dim != b.dim or len(a.vertices) != len(b.vertices):
        return False
    if sorted(len(f) for f in a.facets) != sorted(len(f) for f in b.facets):
        return False

    def profile(c, v):
        deg = sum(1 for e in c.faces(1) if v in e)
        in_facets = sorted(len(f) for f in c.facets if v in f)
        return (deg, tuple(in_facets))

    prof_a = {v: profile(a, v) for v in a.vertices}
    prof_b = {v: profile(b, v) for v in b.vertices}
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return False

    adj_a = {v: {u for e in a.faces(1) if v in e for u in e if u != v} for v in a.vertices}
    adj_b = {v: {u for e in b.faces(1) if v in e for u in e if u != v} for v in b.vertices}
    order = sorted(a.vertices, key=lambda v: (prof_a[v], v))

    def extend(i, mapping, used):
        if i == len(order):
            mapped = frozenset(frozenset(mapping[v] for v in f) for f in a.facets)
            return mapped == b.facets
        v = order[i]
        for w in b.vertices:
            if w in used or prof_b[w] != prof_a[v]:
                continue
            ok = True
            for v2, w2 in mapping.items():
                if (v2 in adj_a[v]) != (w2 in adj_b[w]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if extend(i + 1, mapping, used):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return extend(0, {}, set())


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def complex_to_json(c: SimplicialComplex, name: str = "",
                    coordinates: dict[int, tuple[Fraction, ...]] | None = None) -> str:
    doc: dict = {
        "name": name,
        "facets": sorted([sorted(f) for f in c.facets]),
    }
    if coordinates is not None:
        doc["coordinates"] = {
            str(v): [f"{q.numerator}/{q.denominator}" for q in coords]
            for v, coords in sorted(coordinates.items())
        }
    return json.dumps(doc, sort_keys=True)


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_LABEL = re.compile(r"0|-?[1-9][0-9]*")  # a canonical decimal integer


def _coordinate(v, x) -> Fraction:
    """One coordinate value: a JSON integer or a "p/q" string.  Floats
    and booleans are rejected so that no inexact value enters an exact
    statement."""
    if type(x) is not int and not (isinstance(x, str) and _RATIONAL.fullmatch(x)):
        raise ValueError(f"coordinates of vertex {v} must be integers or \"p/q\" "
                         f"strings, got {json.dumps(x)}")
    try:
        return Fraction(x)
    except ZeroDivisionError as exc:
        raise ValueError(f"coordinate of vertex {v} has a zero denominator") from exc


def complex_from_json(text: str):
    """Parse the interchange schema; returns (complex, name, coordinates)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("facets"), list):
        raise ValueError("complex document needs a 'facets' list")
    if not all(isinstance(f, list) for f in doc["facets"]):
        raise ValueError("every facet must be a list of vertex labels")
    for f in doc["facets"]:
        for v in f:
            if type(v) is not int:  # bool is an int subclass; reject it too
                raise ValueError(f"vertex labels must be integers, got {json.dumps(v)}")
    c = from_facets(doc["facets"])
    name = doc.get("name", "")
    coords = None
    if "coordinates" in doc:
        if not isinstance(doc["coordinates"], dict):
            raise ValueError("'coordinates' must be an object mapping vertex labels to lists")
        coords = {}
        for v, vals in doc["coordinates"].items():
            if not _LABEL.fullmatch(v):
                raise ValueError(f"coordinates are keyed by vertex labels written as "
                                 f"decimal integers, got {json.dumps(v)}")
            if not isinstance(vals, list):
                raise ValueError(f"coordinates of vertex {v} must be a list, "
                                 f"got {json.dumps(vals)}")
            coords[int(v)] = tuple(_coordinate(v, x) for x in vals)
            if len(vals) != c.dim + 1:
                raise ValueError(f"coordinates of vertex {v} must be a list of "
                                 f"dim + 1 = {c.dim + 1} values, got {len(vals)}")
        if set(coords) != set(c.vertices):
            raise ValueError("coordinates must cover exactly the vertices")
    return c, name, coords
