"""Immutable simplicial complexes and their combinatorial operations.

A complex is stored by its inclusion-maximal faces (facets) over integer
vertex labels; all other faces are derived on demand.  Every operation
returns a new value, nothing is mutated.

Each vertex has a facet mask, bit i set when facet i contains it, so a
vertex set is a face exactly when its masks AND to nonzero.  One
memoized walk over the masks (``_mask_walk``) gives the f-vector, the
vertex-link f-vectors and the missing faces; it stores no face and
builds no link.  Readers that need the faces themselves read
sorted-tuple levels, each built once by ``_level`` when first asked
for; frozensets are made only at the public boundary.

The homology sphere test first splits the complex into its finest join
factors.  A set is a face exactly when it contains no missing face, so
the factors are the connected components of the missing-face
hypergraph, read from the memoized missing faces; a vertex in no
missing face makes the complex a cone, which is never a homology
sphere.  Over a field, a join is a homology sphere exactly when each
factor is (Milnor 1956, "Construction of universal bundles II"), so the
verdict is the AND of the factors' verdicts.  Each factor is tested
without building a link complex: its faces are numbered once, each
face's link is read from the face's cofaces in that numbering, and
facets and ridges are settled by counting.

A trial edge contraction builds no complex either:
``contraction_missing_faces`` keeps the parent's missing faces that
avoid the edge and finds the rest with the same walk, run on the masks
of the link of the new vertex, which are the parent's masks restricted
to the facets meeting the edge.

The distinguished complex ``EMPTY`` is {∅}: the complex whose only face
is the empty face.  It shows up as the link of a facet and as the
(-1)-dimensional sphere; ``from_facets`` never produces it.
"""

from __future__ import annotations

import json
import re
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
    def _face_levels(self) -> dict[int, set[tuple[int, ...]]]:
        """The index: the sorted-tuple levels built so far, by dimension."""
        return {}

    def _level(self, k: int) -> set[tuple[int, ...]]:
        """The k-faces as sorted tuples: the (k+1)-subsets of the sorted
        facets gathered into one set.  The one level builder."""
        level: set[tuple[int, ...]] = set()
        for f in self.facets:
            level.update(combinations(sorted(f), k + 1))
        return level

    def _tuples(self, k: int) -> set[tuple[int, ...]]:
        """The k-faces as sorted (k+1)-tuples (k = -1 gives {()}).  Level
        k is built the first time it is asked for and memoized."""
        level = self._face_levels.get(k)
        if level is None:
            if not -1 <= k <= self.dim:
                return set()
            level = self._face_levels[k] = self._level(k)
        return level

    def faces(self, k: int) -> frozenset[frozenset[int]]:
        """The k-dimensional faces (k = -1 gives {∅}), made on each call
        from the memoized tuple level."""
        return frozenset(map(frozenset, self._tuples(k)))

    @cached_property
    def faces_by_dim(self) -> dict[int, frozenset[frozenset[int]]]:
        """All faces grouped by dimension, including the empty face at
        -1, read through ``faces``, so no tuple level is built twice."""
        return {k: self.faces(k) for k in range(-1, self.dim + 1)}

    def is_face(self, tau) -> bool:
        """True when the vertices of tau all lie in one facet."""
        m, masks = (1 << len(self.facets)) - 1, self._facet_masks
        for v in tau:
            m &= masks.get(v, 0)
        return m != 0

    @cached_property
    def _facet_masks(self) -> dict[int, int]:
        """Bit i of the mask of v is set when the i-th facet contains v,
        so a vertex set is a face exactly when its masks AND to nonzero."""
        masks = dict.fromkeys(self.vertices, 0)
        for i, f in enumerate(self.facets):
            for v in f:
                masks[v] |= 1 << i
        return masks

    @cached_property
    def _walk(self) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]], tuple[tuple[int, ...], ...]]:
        """(f-vector, f(lk v) by vertex v, missing faces by (dimension, labels))
        from one ``_mask_walk``; f_{k-1}(lk v) counts the k-faces through v."""
        through = dict.fromkeys(self.vertices, 0)
        found, total = _mask_walk(self._facet_masks.items(), (1 << len(self.facets)) - 1,
                                  through)
        found.sort(key=lambda t: (len(t), t))
        n, field = self.dim + 2, (1 << _WIDTH) - 1  # unpack the counts by size
        links = {v: tuple((x >> (_WIDTH * s)) & field for s in range(1, n))
                 for v, x in through.items()}
        return tuple((total >> (_WIDTH * s)) & field for s in range(n)), links, tuple(found)

    @property
    def _missing_faces(self) -> tuple[tuple[int, ...], ...]:
        """The missing faces as sorted tuples, by (dimension, labels)."""
        return self._walk[2]

    @cached_property
    def _vertex_link_f(self) -> dict[int, tuple[int, ...]]:
        """f(lk v) for every vertex v, counted with no link built."""
        return self._walk[1]

    @cached_property
    def _z2_sphere(self) -> bool:
        """The verdict of ``is_z2_homology_sphere`` on this pure complex,
        taken over its finest join factors.

        A set is a face exactly when it contains no missing face, so K
        is the join K|X ∗ K|Y exactly when no missing face meets both X
        and Y: the finest join factors are the vertex sets of the
        connected components of the missing-face hypergraph.  A vertex
        in no missing face is a cone point (every face extends by it),
        and a cone is acyclic, so never a homology sphere; a lone simplex
        is such a cone.  Over a field, A ∗ B is a homology sphere exactly
        when A and B are (Milnor 1956: the reduced homology of A ∗ B is
        that of A tensored with that of B, shifted up by one, and
        lk(σ ⊔ τ) = lk_A σ ∗ lk_B τ).  A factor K|X of a pure join is
        pure and its missing faces are those of K inside X, so it has
        one factor, and ``_coface_sphere`` decides it directly.
        """
        mfs = self._missing_faces
        if len(frozenset().union(*mfs)) < len(self.vertices):
            return False
        factors = _components(self.vertices, ((s[0], v) for s in mfs for v in s))
        if len(factors) == 1:
            return _coface_sphere(self)
        return all(_coface_sphere(induced(self, x)) for x in factors)

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


def _components(items, pairs) -> list[list]:
    """Connected components of the graph on items whose edges are pairs,
    by union-find.  Each component keeps the order of items, and the
    components are ordered by their first item."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    comps: dict = {}
    for x in items:
        comps.setdefault(find(x), []).append(x)
    return list(comps.values())


_WIDTH = 64  # bits per face size in a packed count; the walk counts one face at a time


def _mask_walk(items, full: int, through: dict | None = None):
    """The minimal non-faces of two or more vertices, as sorted tuples,
    and the face counts by size, ``_WIDTH`` bits a size in one integer,
    of the complex with the (label, facet mask) pairs ``items`` in label
    order and the mask ``full`` of all facets.  A dict ``through`` gains
    for each vertex the packed count of the faces through it.

    Depth first in lexicographic order, each face t is visited once with
    the AND of its masks.  Since t[:-1] + (v,) is a face when t + (v,)
    is, t is extended only by its parent's children after it, and a
    non-face t + (v,) is minimal when t minus any one vertex, plus v, is
    a face: |t| ANDs against the prefix ANDs of t.  A face's count, with
    the counts below it, goes to its last vertex in ``through``.
    """
    found: list[tuple[int, ...]] = []

    def visit(t, ands, masks, ext, one):
        m, kids = ands[-1], []
        for x in ext:
            if m & x[1]:
                kids.append(x)
                continue
            rest = x[1] & masks[-1]
            for i in range(len(t) - 2, -1, -1):
                if not ands[i] & rest:
                    break
                rest &= masks[i]
            else:
                found.append(t + (x[0],))
        count, below = one * len(kids), one << _WIDTH
        for j in range(len(kids) - 1):
            v, mv = kids[j]
            n = visit(t + (v,), ands + (m & mv,), masks + (mv,), kids[j + 1:], below)
            count += n
            if through is not None:
                through[v] += n
        if through is not None:
            for v, _ in kids:
                through[v] += one
        return count

    return found, 1 + visit((), (full,), (), list(items), 1 << _WIDTH)


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
    return _make(list(c._tuples(k)) + small)


def induced(c: SimplicialComplex, w) -> SimplicialComplex:
    """Induced subcomplex on the vertex subset w."""
    ws = frozenset(w)
    if not ws:
        raise ValueError("induced subcomplex needs a nonempty vertex set")
    if not ws <= set(c.vertices):
        raise ValueError("vertex set must be contained in the complex")
    return _make([f & ws for f in c.facets if f & ws])


def missing_faces(c: SimplicialComplex) -> list[frozenset[int]]:
    """All missing faces (non-faces all of whose proper subsets are
    faces) as vertex sets, sorted by (dimension, vertex labels).

    Computed once per complex; each call returns a fresh list.
    """
    return [frozenset(s) for s in c._missing_faces]


def missing_face_counts(c: SimplicialComplex) -> dict[int, int]:
    """m_i = number of missing i-faces, as a dict over occurring dimensions."""
    counts: dict[int, int] = {}
    for s in c._missing_faces:
        counts[len(s) - 1] = counts.get(len(s) - 1, 0) + 1
    return counts


def max_missing_dim(c: SimplicialComplex) -> int:
    mf = c._missing_faces  # sorted by dimension, so the last is the largest
    return len(mf[-1]) - 1 if mf else 0


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


def _contractible_edge(c: SimplicialComplex, u: int, v: int) -> frozenset[int]:
    """The edge uv, checked to lie in no missing face of ``c``."""
    e = frozenset({u, v})
    if not c.is_face(e):
        raise ValueError(f"{sorted(e)} is not an edge")
    for s in c._missing_faces:
        if u in s and v in s:
            raise InadmissibleContraction(e, frozenset(s))
    return e


def contract_edge(c: SimplicialComplex, u: int, v: int) -> SimplicialComplex:
    """Contract the edge uv to a fresh vertex.

    Requires lk(uv) = lk(u) ∩ lk(v), equivalently that uv lies in no
    missing face; otherwise InadmissibleContraction is raised carrying a
    witness missing face.  The new vertex gets label max(vertices)+1.
    The result is not checked for sphere-ness; callers validate.
    """
    e = _contractible_edge(c, u, v)
    w = max(c.vertices) + 1
    return _make([(f - e) | {w} if f & e else f for f in c.facets])


def contraction_missing_faces(c: SimplicialComplex, u: int, v: int) -> list[frozenset[int]]:
    """``missing_faces(contract_edge(c, u, v))``, in the same order,
    without building the contracted complex; raises as ``contract_edge``.

    Let w = max(vertices) + 1 be the new vertex.  A set avoiding w is a
    face after the contraction exactly when it was a face of ``c``
    avoiding u and v, so the memoized missing faces of ``c`` that avoid
    u and v stay missing, and every other missing face is T ∪ {w} for a
    T from ``_new_missing_faces``.
    """
    e = _contractible_edge(c, u, v)
    w = max(c.vertices) + 1
    out = [s for s in c._missing_faces if e.isdisjoint(s)]
    out += [t + (w,) for t in _new_missing_faces(c, e, 1)]
    out.sort(key=lambda t: (len(t), t))
    return [frozenset(s) for s in out]


def _new_missing_faces(c: SimplicialComplex, e: frozenset[int], smallest: int):
    """The sets T, as sorted tuples with |T| >= ``smallest``, for which
    T ∪ {w} is a missing face after contracting the edge e of ``c`` to
    a new vertex w, in no particular order.  The walk of lk(w) runs to
    its end before the first T is yielded; a caller that stops early
    skips only the parent-face tests of the rest.

    T ∪ {w} is missing exactly when T is a face of ``c`` avoiding e and
    a minimal non-face of lk(w), whose facets are F - e over the facets
    F meeting e.  A single vertex T lies in none of those F.  Larger T
    come from ``_mask_walk`` on the masks of ``c`` ANDed with the mask
    ``star`` of those F, and are kept when their masks in ``c`` meet.
    """
    masks = c._facet_masks
    star = masks[min(e)] | masks[max(e)]
    near = [(x, m & star) for x, m in masks.items() if x not in e]
    if smallest <= 1:
        yield from ((x,) for x, m in near if not m)
    found, _ = _mask_walk([(x, m) for x, m in near if m], star)
    yield from (t for t in found if len(t) >= smallest and c.is_face(t))


# ---------------------------------------------------------------------------
# Homology over the two-element field
# ---------------------------------------------------------------------------

def _numbered_faces(c: SimplicialComplex):
    """Number the faces of ``c`` by dimension, the empty face first.

    Returns each face's codimension-1 faces as a tuple of ids and as a
    bit mask, and the first id of every level (level i holds the
    (i-1)-faces) followed by the face count.
    """
    ids: dict[tuple[int, ...], int] = {}
    down: list[tuple[int, ...]] = []
    boundary: list[int] = []
    starts = []
    for k in range(-1, c.dim + 1):
        starts.append(len(down))
        for t in c._tuples(k):
            ids[t] = len(down)
            below = tuple(ids[t[:i] + t[i + 1:]] for i in range(k + 1))
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


def _coface_sphere(c: SimplicialComplex) -> bool:
    """The homology sphere test on the pure complex ``c`` as one piece.

    No link complex is built.  The cofaces of each face t, one bit mask
    over the face ids, come from the top dimension down: cof(t) is t
    with the cofaces of every face covering t.  Shifted down by |t|
    dimensions they are the faces of lk t, so ``_z2_betti`` on them is
    the homology of lk t.  Facets and ridges are settled by counting: a
    facet's link is {∅}, always a (-1)-sphere, and a ridge's link is a
    set of points, a 0-sphere exactly when the ridge lies in two facets.
    Only two dimensions of coface masks are alive at a time.
    """
    down, boundary, starts = _numbered_faces(c)
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
    dimension.  A cone is rejected outright, and a join is judged
    factor by factor.  Links are read from the cofaces of each face, not
    built as complexes; facets pass by definition and a ridge passes when
    it lies in exactly two facets.  The verdict is computed once per
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
        deg = sum(1 for e in c._tuples(1) if v in e)
        return deg, tuple(sorted(len(f) for f in c.facets if v in f))

    prof_a = {v: profile(a, v) for v in a.vertices}
    prof_b = {v: profile(b, v) for v in b.vertices}
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return False
    order = sorted(a.vertices, key=lambda v: (prof_a[v], v))

    def extend(i, mapping, used):
        if i == len(order):
            return frozenset(frozenset(mapping[v] for v in f) for f in a.facets) == b.facets
        v = order[i]
        for w in b.vertices:
            if w in used or prof_b[w] != prof_a[v] or any(
                    a.is_face((v, x)) != b.is_face((w, y)) for x, y in mapping.items()):
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
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"'name' must be a string, got {json.dumps(name)}")
    c = from_facets(doc["facets"])
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
