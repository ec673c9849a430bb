"""Homological toolkit: Hom spaces, socle/radical structure, projective
covers, injective hulls, syzygies, isomorphism certificates, and short-
exact-sequence checks.

Everything is exact linear algebra over the cyclotomic number field.  The
only randomness is one seeded draw schedule (``_draws``).  It picks an
isomorphism witness, once the trace-pairing identity has decided that an
isomorphism exists, and the first map of a sequence in ``ses_candidate``.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import chain

from .cyclo import CycScalar
from .datum import DatumError, ValidatedDatum, Weight
from .linalg import Echelon, Mat, frobenius_pair, hstack, nullspace, rank, solve_right, vstack
from .repmod import (ModuleRep, SubmoduleFacts, direct_sum, intertwines, quotient_module,
                     require_same_datum, spin_submodule)
from . import constructors


# ---------------------------------------------------------------------------
# morphisms


class Morphism(namedtuple("Morphism", "source target matrix")):
    """A module map handed out with its endpoints (cover and hull maps,
    isomorphism witnesses, sequence maps), stored as a dim(target) x
    dim(source) matrix."""

    __slots__ = ()

    def __new__(cls, source: ModuleRep, target: ModuleRep, matrix: Mat):
        if matrix.nrows != target.dim or matrix.ncols != source.dim:
            raise DatumError("morphism matrix shape does not match source/target")
        return tuple.__new__(cls, (source, target, matrix))

    def is_valid(self) -> bool:
        """Check that the matrix intertwines every generator action."""
        return intertwines(self.matrix, self.source, self.target)

    def to_json(self) -> dict:
        return {
            "shape": [self.matrix.nrows, self.matrix.ncols],
            "matrix": [[v.to_json() for v in row] for row in self.matrix.rows],
        }


def zero_module(datum: ValidatedDatum) -> ModuleRep:
    return ModuleRep(datum, [], Mat.zeros(datum.N, 0, 0), Mat.zeros(datum.N, 0, 0), [])


# ---------------------------------------------------------------------------
# Hom spaces


def hom_space(a: ModuleRep, b: ModuleRep) -> tuple[Mat, ...]:
    """Echelonized basis of the space of module maps a -> b, each a
    dim(b) x dim(a) matrix, solved once per datum for each content: the
    system depends only on x and xi of a and b and on the unknowns, so
    modules with equal matrices and weight pairing share one elimination and
    one tuple, End(a) = hom_space(a, a) included.  The key holds the content
    itself, so modules over equal but distinct datum objects share it too.
    """
    require_same_datum(a, b)
    pos = _hom_unknowns(a, b)
    if not pos:
        return ()
    return a.datum.cached(("homs", a.content(), b.content(), pos),
                          lambda: _eliminate_homs(a, b, pos))


def _hom_unknowns(a: ModuleRep, b: ModuleRep) -> tuple[int, ...]:
    """The index pairs (i, j) of equal weight, b.weights[i] == a.weights[j],
    flattened to i0, j0, i1, j1, ...: the entries a map a -> b may have."""
    spaces_a = a.weight_spaces()
    return tuple(k for i, w in enumerate(b.weights) for j in spaces_a.get(w, ()) for k in (i, j))


def _negated_columns(b: ModuleRep) -> tuple[Mat, Mat]:
    """The transposes of -x and -xi of a Hom target b, row k of each column k
    of the negated operator: b's side of the Hom equations, kept on b."""
    return b.cached("negated columns", lambda: ((-b.act_x).transpose(),
                                                (-b.act_xi).transpose()))


def _eliminate_homs(a: ModuleRep, b: ModuleRep, unknowns: tuple[int, ...]) -> tuple[Mat, ...]:
    """The Hom(a, b) basis with unknown entries at the flattened index pairs
    ``unknowns``, eliminated.

    Unknown matrix entries live only on equal-weight index pairs, which makes
    the group-part intertwining automatic; the x and xi intertwining
    conditions become one sparse exact linear system.
    """
    datum = a.datum
    pos = list(zip(unknowns[::2], unknowns[1::2]))
    eqs: dict[tuple, dict[int, CycScalar]] = {}

    def accum(key, p, val):
        d = eqs.setdefault(key, {})
        d[p] = d[p] + val if p in d else val

    neg_x, neg_xi = _negated_columns(b)
    for opname, opa, neg_b in (("x", a.act_x, neg_x), ("xi", a.act_xi, neg_xi)):
        rows_a, neg_cols_b = opa.nz_rows(), neg_b.nz_rows()
        for p, (i, j) in enumerate(pos):
            for c, val in rows_a[j].items():
                accum((opname, i, c), p, val)
            for r, val in neg_cols_b[i].items():
                accum((opname, r, j), p, val)
    system = Mat(datum.N, [{p: v for p, v in eqs[key].items() if v}
                           for key in sorted(eqs)], len(pos))
    out = []
    for v in nullspace(system):
        rows = [{} for _ in range(b.dim)]
        for k, x in v.items():
            i, j = pos[k]
            rows[i][j] = x
        out.append(Mat(datum.N, rows, a.dim))
    return tuple(out)


# ---------------------------------------------------------------------------
# endomorphism algebra and indecomposability


def _trace_gram(fs: list[Mat], gs: list[Mat]) -> Mat:
    """The matrix of traces tr(f g), f in fs, g in gs, for nonempty lists.
    When gs is fs it is symmetric and each trace is taken once."""
    sym = gs is fs
    t = [{} for _ in fs]
    for i, f in enumerate(fs):
        for j in range(i if sym else 0, len(gs)):
            v = frobenius_pair(f, gs[j])
            if v:
                t[i][j] = v
                if sym:
                    t[j][i] = v
    return Mat(fs[0].order, t, len(gs))


def pairing_rank(fs: list[Mat], gs: list[Mat]) -> int:
    """Rank of the matrix of traces tr(f g), f in fs, g in gs; 0 when either
    list is empty."""
    return rank(_trace_gram(fs, gs)) if fs and gs else 0


def _end_radical_coords(m: ModuleRep) -> tuple[dict, ...]:
    """Coordinates in the End(M) basis of a basis of rad End(M): in
    characteristic zero, the nullspace of the trace form (f, g) -> tr(fg).
    End(M) and its trace form depend only on the shape of M, so the
    nullspace is eliminated once per datum for each shape."""
    def build():
        ends = hom_space(m, m)
        return tuple(nullspace(_trace_gram(ends, ends))) if ends else ()
    return m.datum.cached(("end radical", m.shape()), build)


def end_radical(m: ModuleRep) -> list[Mat]:
    """A basis of rad End(M): empty for a multiplicity-free M, whose End is
    a product of copies of the field (``_weight_graph``)."""
    if _weight_graph(m) is not None:
        return []
    ends = hom_space(m, m)
    return [_combination(m.datum, v, ends) for v in _end_radical_coords(m)]


def end_local_dim(m: ModuleRep) -> int:
    """Dimension of End(M) modulo its radical, r(M, M), the rank of the
    trace form.  Value 1 certifies that M is absolutely indecomposable.  For
    a multiplicity-free M it is dim End(M), the number of weakly connected
    components of its weight graph (``_weight_graph``); otherwise End(M) and
    its trace form are solved."""
    graph = _weight_graph(m)
    if graph is not None:
        return graph[0]
    return len(hom_space(m, m)) - len(_end_radical_coords(m))


# ---------------------------------------------------------------------------
# socle, radical, Loewy structure


def candidate_simples(m: ModuleRep) -> list[tuple[int, Weight]]:
    """The simples that can possibly map into or out of m: one V(l, mu) for
    each weight mu in the support, with l its class index."""
    datum = m.datum
    seen = {}
    for w in m.weights:
        if w not in seen:
            seen[w] = datum.classify_weight(w).l
    return sorted(((l, w) for w, l in seen.items()),
                  key=lambda lw: (lw[0], lw[1].sort_key()))


def _nonzero_lines(m: ModuleRep, into: bool) -> tuple[set, set]:
    """For x and for xi, the set of nonzero columns (``into``) or of nonzero
    rows."""
    return tuple(set().union(*op.nz_rows()) if into
                 else {i for i, r in enumerate(op.nz_rows()) if r} for op in (m.act_x, m.act_xi))


def _schur_zero(m: ModuleRep, into: bool):
    """The test ``zero(s)`` for a simple s: True when the nonzero patterns of
    s and of m prove Hom(s, m) = 0 (``into``) or Hom(m, s) = 0; False
    decides nothing.

    A nonzero map f: s -> m is injective, because s is simple.  If op v = 0
    for a basis vector v of s (its column of op = x or xi is empty), then
    op f(v) = f(op v) = 0, with f(v) in m's weight space at v's weight; so
    when op is injective on that weight space, f(v) = 0 and f is zero.
    Dually a nonzero map g: m -> s is onto.  If v lies outside op(s) (its
    row is empty) while m's weight space at v's weight lies in op(m), then
    v = g(u) for some u in that weight space, u = op u', and
    v = op g(u') lies in op(s); so g is zero.  A weight of s missing from m
    proves both directions zero.

    Injectivity on a weight space is the rank of its columns of op; the
    inclusion in op(m) is the rank of its rows of op only when op maps each
    weight space into one weight space, as the group-like relations say, so
    the relations must hold on m.  Over a one-dimensional weight space each
    test is one lookup of a nonzero column or row of m, found once per test;
    a larger weight block is ranked once per test, operator and weight.
    Nothing is kept on m.
    """
    spaces = m.weight_spaces()
    lines = _nonzero_lines(m, into)
    ranked: dict[tuple[int, Weight], bool] = {}

    def full(op: int, w: Weight) -> bool:
        ix = spaces[w]
        if len(ix) == 1:
            return ix[0] in lines[op]
        if (op, w) not in ranked:
            nz = (m.act_x, m.act_xi)[op].nz_rows()
            if into:
                at = {j: k for k, j in enumerate(ix)}
                block = Mat(m.datum.N, ({at[j]: x for j, x in r.items() if j in at}
                                        for r in nz), len(ix))
            else:
                block = Mat(m.datum.N, (nz[i] for i in ix), m.dim)
            ranked[op, w] = rank(block) == len(ix)
        return ranked[op, w]

    def zero(s: ModuleRep) -> bool:
        if any(w not in spaces for w in s.weights):
            return True
        lines_s = s.cached(("nonzero lines", into), lambda: _nonzero_lines(s, into))
        return any(k not in lines_s[op] and full(op, w)
                   for op in (0, 1) for k, w in enumerate(s.weights))
    return zero


# One Hom pass of a module against its candidate simples (``_pass``): the
# simples of soc m or of m's head with their multiplicities, (key, S, basis)
# for each nonzero Hom space, and on the head side the kernel rad m of the
# Hom(m, S) bases stacked (None on the socle side).
_HomPass = namedtuple("_HomPass", "factors homs kernel")


def _pass(m: ModuleRep, into: bool) -> _HomPass:
    """The one Hom pass per side, Hom(S, m) (``into``) or Hom(m, S) for each
    candidate simple S, that the socle (the span of the images), the radical
    (the common kernel), the Loewy walk, the cover and the hull read; built
    once per module.  A simple for which ``_schur_zero`` proves the Hom space
    zero is not solved, and a zero space is not kept.  One elimination gives
    each side's dimension: the socle's is the rank of the Hom(S, m) bases
    side by side, and the head's is dim m minus the size of the kernel of
    the Hom(m, S) bases stacked.  The relations must hold on m, as
    ``_schur_zero`` assumes; a nonzero module with no map on that side
    raises."""
    def build():
        zero = _schur_zero(m, into)
        homs = []
        for l, w in candidate_simples(m):
            s = constructors.simple(m.datum, l, w)
            fs = () if zero(s) else hom_space(s, m) if into else hom_space(m, s)
            if fs:
                homs.append(((l, w), s, fs))
        if m.dim and not homs:
            raise DatumError(f"module has no simple {'submodules' if into else 'quotients'}; "
                             "inconsistent input")
        mats = [f for _, _, fs in homs for f in fs]
        if into:
            return _HomPass(_multiplicities(homs, rank(hstack(mats)) if mats else 0), homs, None)
        kernel = nullspace(vstack(mats)) if mats else []
        return _HomPass(_multiplicities(homs, m.dim - len(kernel)), homs, kernel)
    return m.cached(("pass", into), build)


def socle(m: ModuleRep) -> SubmoduleFacts:
    """Largest semisimple submodule: the span of the images of the maps from
    the candidate simples, the columns of m's Hom(S, m) pass; spun once per
    module."""
    return m.cached("socle", lambda: spin_submodule(
        m, [c for _, _, fs in _pass(m, True).homs for f in fs for c in f.cols()]))


def radical(m: ModuleRep) -> SubmoduleFacts:
    """Intersection of the kernels of the maps onto the candidate simples,
    the kernel that m's Hom(m, S) pass eliminates; spun once per module."""
    return m.cached("radical", lambda: spin_submodule(m, _pass(m, False).kernel))


def head(m: ModuleRep) -> tuple[ModuleRep, Mat]:
    return quotient_module(m, radical(m))


def _multiplicities(homs, total: int) -> list[tuple[tuple[int, Weight], int]]:
    """Multiplicities of the simples in a semisimple module of dimension
    ``total``, from the nonzero Hom(S, -) or Hom(-, S) for each candidate S:
    each dimension is the multiplicity times dim End(S), and the simples must
    exhaust it."""
    out = []
    covered = 0
    for (l, w), s, fs in homs:
        d = len(fs)
        es = len(hom_space(s, s))
        if d % es != 0:
            raise DatumError("inconsistent Hom dimensions in semisimple decomposition")
        out.append(((l, w), d // es))
        covered += d // es * s.dim
    if covered != total:
        raise DatumError("semisimple decomposition does not exhaust the module; "
                         "input is not semisimple or candidate set is incomplete")
    return out


def _factors_as_json(factors) -> list[dict]:
    return [{"l": l, "lambda": w.label(), "mult": mult} for (l, w), mult in factors]


class LoewyType(namedtuple("LoewyType", "s t rl")):
    """s = head length, t = socle length, rl = radical series length."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"s": self.s, "t": self.t, "rl": self.rl}


class LoewyStructure(namedtuple("LoewyStructure", "socle layers")):
    """The simples of the socle and of each radical layer
    rad^k m / rad^(k+1) m, k = 0, 1, ..., with their multiplicities (lists
    of (simple, multiplicity) pairs)."""

    __slots__ = ()

    @property
    def head(self) -> list:
        return self.layers[0] if self.layers else []

    @property
    def type(self) -> LoewyType:
        return LoewyType(sum(mult for _, mult in self.head),
                         sum(mult for _, mult in self.socle), len(self.layers))


def loewy_structure(m: ModuleRep) -> LoewyStructure:
    """The socle and the simples of each radical layer, found once per
    module: read off the weight graph when m is multiplicity-free and the
    graph names its composition factors (``_graph_loewy``), walked by
    ``_solve_loewy`` otherwise."""
    return m.cached("loewy structure", lambda: _graph_loewy(m) or _solve_loewy(m))


def _solve_loewy(m: ModuleRep) -> LoewyStructure:
    """The socle's factors from m's Hom(S, m) pass, and one descent down the
    radical series: layer k is the head's factors of rad^k m's Hom pass, whose
    kernel is spun into rad^(k+1) m, no layer built, until rad^(k+1) m is
    zero or the weight graph names its layers, which are the rest of m's."""
    bottom = _pass(m, True).factors
    layers, cur = [], m
    while cur.dim:
        layers.append(_pass(cur, False).factors)
        cur = radical(cur).module
        if cur.dim and (rest := _graph_loewy(cur)):
            layers += rest.layers
            break
    return LoewyStructure(bottom, layers)


def _weight_graph(m: ModuleRep) -> tuple | None:
    """For a multiplicity-free m (every weight space of dimension one), the
    facts of its weight graph G(m) that the Loewy structure and End are read
    from: the number of weakly connected components, each strongly connected
    component (SCC) as its size and its lowest vector, the socle's SCCs and
    each radical layer's.  None for any other m.  They depend only on the
    shape of m, so they are read once per datum for each shape, with no
    scalar arithmetic.

    G(m) has an edge j -> i for each nonzero x[i, j] or xi[i, j].  A
    submodule is the sum of its weight parts, so in a multiplicity-free m it
    is spanned by a set of basis vectors closed under the edges.  Hence the
    SCCs are the composition factors, the socle is spanned by the sink
    SCCs, rad m by the SCCs that are not sources, and layer k is the source
    SCCs of what is left once layers 0 to k-1 are removed.  An
    endomorphism keeps each weight space, so it is diagonal, and commuting
    with x and xi makes it constant on each weakly connected component: End
    is a product of copies of the field, with zero radical, and its
    dimension is end_local_dim, whether or not the relations hold.
    """
    if m.shape()[1] != tuple(range(m.dim)):
        return None
    return m.datum.cached(("weight graph", m.shape()), lambda: _read_weight_graph(m))


def _read_weight_graph(m: ModuleRep) -> tuple:
    """The facts of ``_weight_graph``, read off G(m).  The lowest vector of an
    SCC is its one vector with no xi-edge inside it, None when there is not
    exactly one."""
    succ = [set() for _ in range(m.dim)]
    for op in (m.act_x, m.act_xi):
        for i, r in enumerate(op.nz_rows()):
            for j in r:
                succ[j].add(i)
    reach = _reach(succ)
    # two vertices share an SCC when they reach the same set, and an edge
    # between SCCs enters a strictly smaller set, so numbering the sets by
    # decreasing size makes every such edge run to a higher number
    number = {r: c for c, r in enumerate(sorted(set(reach), key=lambda r: (-r.bit_count(), r)))}
    comp = [number[r] for r in reach]
    count = len(number)
    members = [[] for _ in range(count)]
    below = [set() for _ in range(count)]  # the SCCs that edges out of each SCC enter
    for v, c in enumerate(comp):
        members[c].append(v)
        below[c].update(comp[i] for i in succ[v] if comp[i] != c)
    inside = {j for i, r in enumerate(m.act_xi.nz_rows()) for j in r if comp[j] == comp[i]}
    sccs = []
    for vs in members:
        lows = [v for v in vs if v not in inside]
        sccs.append((len(vs), lows[0] if len(lows) == 1 else None))
    # the layer of each SCC, the length of the longest path into it, is
    # final by the time the loop reaches it
    depth = [0] * count
    both = [set(ds) for ds in below]  # the SCCs' graph with its edges taken both ways
    for c, ds in enumerate(below):
        for d in ds:
            depth[d] = max(depth[d], depth[c] + 1)
            both[d].add(c)
    return (len(set(_reach(both))), tuple(sccs),
            tuple(c for c in range(count) if not below[c]),
            tuple(tuple(c for c in range(count) if depth[c] == k)
                  for k in range(max(depth, default=-1) + 1)))


def _reach(succ: list[set]) -> list[int]:
    """For each vertex v of the digraph whose vertex v has the successors
    succ[v], the set of vertices that v reaches, v itself included, as the
    bits of an int.  Sweeps forward and then back over the vertices, joining
    each set with its successors' sets, until no set grows.  After k sweeps
    each set holds every vertex within k edges, so at most dim sweeps of
    O(edges) unions are made: the worst case is O(dim * edges), where
    Tarjan's algorithm takes O(dim + edges).  ``_weight_graph`` pays it once
    per datum for each shape."""
    reach = [1 << v for v in range(len(succ))]
    order = list(range(len(succ)))
    grew = True
    while grew:
        grew = False
        for v in order:
            r = reach[v]
            for w in succ[v]:
                r |= reach[w]
            if r != reach[v]:
                reach[v], grew = r, True
        order.reverse()
    return reach


def _graph_loewy(m: ModuleRep) -> LoewyStructure | None:
    """The Loewy structure of a multiplicity-free m, read off its weight
    graph: an SCC of size l is V(l, lam), lam the weight of its lowest
    vector, the xi-killed end of the string.  None for any other m, or when
    a name is ambiguous: an SCC without a single lowest vector, or one with
    classify_weight(lam).l other than its size, which the relations rule
    out."""
    graph = _weight_graph(m)
    if graph is None:
        return None
    _, sccs, socle, layers = graph
    names = []
    for size, low in sccs:
        if low is None or m.datum.classify_weight(m.weights[low]).l != size:
            return None
        names.append((size, m.weights[low]))

    def factors(cs) -> list:
        return sorted(((names[c], 1) for c in cs), key=lambda f: (f[0][0], f[0][1].sort_key()))
    return LoewyStructure(factors(socle), [factors(cs) for cs in layers])


def loewy_type(m: ModuleRep) -> LoewyType:
    """The type of ``loewy_structure``, found once per datum for each shape:
    its lengths are those of the submodule lattice, which the shape fixes.
    Both readers assume that the relations hold, as ``module analyze`` and
    ``classify`` check first: they read the actual weights (the Hom-pass
    walk through ``candidate_simples``, the weight graph in naming its
    composition factors), so for a module whose relations fail the result
    is not a function of the shape, and the walk may raise."""
    return m.datum.cached(("loewy type", m.shape()), lambda: loewy_structure(m).type)


def composition_factors(m: ModuleRep) -> list[dict]:
    """Multiset of simple factors over the radical series, sorted."""
    counts: dict[tuple[int, Weight], int] = {}
    for factors in loewy_structure(m).layers:
        for key, mult in factors:
            counts[key] = counts.get(key, 0) + mult
    keys = sorted(counts, key=lambda lw: (lw[0], lw[1].sort_key()))
    return [{"l": l, "lambda": w.label(), "mult": counts[(l, w)]} for l, w in keys]


# ---------------------------------------------------------------------------
# projective covers, injective hulls, syzygies


def projective_of_simple(datum: ValidatedDatum, l: int, w: Weight) -> ModuleRep:
    """Projective cover (= injective hull) of the simple V(l, w): the simple
    itself at l = n, else the registry member P(l, w); the module is shared,
    so callers must not change it."""
    if l == datum.n:
        return constructors.simple(datum, l, w)
    return constructors.FAMILIES["P"].member(datum, l, w)


def _cover_map(m: ModuleRep, cover: bool) -> tuple[Morphism, list]:
    """A minimal projective cover P -> m (``cover``) or injective hull m -> P,
    and the kernel of its matrix, which is empty for a hull.

    The simples S of the head (socle) of m and their multiplicities come
    from m's Hom pass (``_pass``), and so does the edge: phi, the Hom(m, S)
    bases stacked, has kernel rad m, and psi, the Hom(S, m) bases side by
    side, has image soc m, so neither rad m nor soc m is spun.  For each S,
    maps f in Hom(P(S), m) (in Hom(m, P(S))) are taken greedily while the
    columns of phi f (the rows of f psi) leave the span of the images taken
    so far, so the map is bijective on the head (socle), of dimension
    sum mult * l.  One elimination of the map's matrix gives its kernel and,
    by rank and nullity, the check that the map is onto (one to one).
    """
    datum = m.datum
    name = "projective cover" if cover else "injective hull"
    if m.dim == 0:
        z = zero_module(datum)
        return Morphism(*((z, m) if cover else (m, z)), Mat.zeros(datum.N, 0, 0)), []
    hom_pass = _pass(m, not cover)
    mats = [f for _, _, fs in hom_pass.homs for f in fs]
    edge = vstack(mats) if cover else hstack(mats)
    span = Echelon(datum.N)
    chosen: list[tuple[ModuleRep, Mat]] = []
    for (l, w), mult in hom_pass.factors:
        ps = projective_of_simple(datum, l, w)
        taken = 0
        for f in hom_space(ps, m) if cover else hom_space(m, ps):
            if taken == mult:
                break
            image = (edge * f).transpose() if cover else f * edge
            if [p for p in map(span.add, image.nz_rows()) if p is not None]:
                chosen.append((ps, f))
                taken += 1
        if taken != mult:
            raise DatumError(f"{name} selection failed; inconsistent input")
    if len(span.pivots) != sum(l * mult for (l, _), mult in hom_pass.factors):
        raise DatumError(f"{name} does not fill the head" if cover
                         else f"{name} does not embed the socle")
    p = direct_sum([ps for ps, _ in chosen])
    maps = [f for _, f in chosen]
    f = Morphism(p, m, hstack(maps)) if cover else Morphism(m, p, vstack(maps))
    kernel = nullspace(f.matrix)
    if f.matrix.ncols - len(kernel) != m.dim:
        raise DatumError(f"{name} map is not " + ("surjective" if cover else "injective"))
    return f, kernel


def projective_cover_map(m: ModuleRep) -> Morphism:
    """Minimal projective cover P -> m, P = ``f.source``."""
    return _cover_map(m, True)[0]


def injective_hull_map(m: ModuleRep) -> Morphism:
    """Minimal injective (= projective) hull m -> E, E = ``f.target``."""
    return _cover_map(m, False)[0]


def syzygy(m: ModuleRep) -> ModuleRep:
    """Kernel of a projective cover, built once per module."""
    def build():
        f, kernel = _cover_map(m, True)
        return spin_submodule(f.source, kernel).module
    return m.cached("syzygy", build)


def cosyzygy(m: ModuleRep) -> ModuleRep:
    """Cokernel of an injective hull, built once per module."""
    def build():
        f, _ = _cover_map(m, False)
        return quotient_module(f.target, spin_submodule(f.target, f.matrix.cols()))[0]
    return m.cached("cosyzygy", build)


def omega(m: ModuleRep, s: int) -> ModuleRep:
    """Iterated syzygy (s > 0) or cosyzygy (s < 0); s = 0 returns m.  Each
    step is memoized on the module it starts from."""
    cur = m
    for _ in range(abs(s)):
        cur = syzygy(cur) if s > 0 else cosyzygy(cur)
    return cur


def omega_power(datum: ValidatedDatum, l: int, lam: Weight, s: int) -> ModuleRep:
    """Omega^s of the simple V(l, lam), l regular."""
    constructors.require_regular(datum, l, lam)
    return omega(constructors.simple(datum, l, lam), s)


# ---------------------------------------------------------------------------
# isomorphism testing


class IsoVerdict(namedtuple("IsoVerdict", "verdict reason witness trials", defaults=(None, 0))):
    """``verdict`` is "yes" or "no"; a yes carries its ``witness`` Morphism
    and the number of combinations ``trials`` tried to find it."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason, "trials": self.trials}


def _no(reason: str) -> IsoVerdict:
    return IsoVerdict("no", reason)


def invariant_key(mod: ModuleRep) -> tuple:
    """Invariants compared before a Hom solve: modules with different keys
    are not isomorphic.  The kernel dimensions of x and xi are found once
    per datum for each content: counted for an operator with at most one
    nonzero per row and per column, eliminated for any other."""
    return (mod.dim, mod.weight_multiset(),
            *mod.datum.cached(("kernel dims", mod.content()),
                              lambda: (_kernel_dim(mod.act_x, mod.x_kernel),
                                       _kernel_dim(mod.act_xi, mod.xi_kernel))))


def _kernel_dim(op: Mat, kernel) -> int:
    """dim ker op.  When op has at most one nonzero per row and per column,
    its rank is its number of nonzeros; otherwise ``kernel()`` is
    eliminated."""
    cols = [j for r in op.nz_rows() for j in r]
    if len(set(cols)) == len(cols) and all(len(r) <= 1 for r in op.nz_rows()):
        return op.ncols - len(cols)
    return len(kernel())


def is_isomorphic(a: ModuleRep, b: ModuleRep, seed: int = 0) -> IsoVerdict:
    """Exact isomorphism test: the verdict is always "yes" or "no".

    With r(a, b) the rank of the trace pairing of Hom(a, b) with Hom(b, a),
    r(a, b) = sum m_i n_i d_i in characteristic zero, where m_i, n_i are the
    multiplicities of the indecomposable X_i in a and b and d_i is the
    dimension of End(X_i) modulo its radical.  So a and b are isomorphic
    exactly when r(a, a) + r(b, b) = 2 r(a, b), the difference being
    sum d_i (m_i - n_i)^2.  NO verdicts cite a mismatched invariant or Hom
    dimension, or the failed identity.  YES verdicts carry a re-verified
    invertible intertwiner: the first invertible element of the Hom(a, b)
    basis, else a seeded combination of it.

    The basis is scanned once the invariants agree.  An invertible basis map
    is an isomorphism, which forces every Hom dimension to agree, End(b) to
    be End(a) and the identity to hold, so it decides the verdict without
    Hom(b, a), End(b) or the pairing; they are read only when no basis map
    is invertible.
    """
    require_same_datum(a, b)
    if a.dim != b.dim:
        return _no(f"dimension {a.dim} != {b.dim}")
    if a.dim == 0:
        return IsoVerdict("yes", "both modules are zero",
                          Morphism(a, b, Mat.zeros(a.datum.N, 0, 0)))
    for reason, ka, kb in zip(("weight multisets differ", "dim ker(x) differs",
                               "dim ker(xi) differs"), invariant_key(a)[1:], invariant_key(b)[1:]):
        if ka != kb:
            return _no(reason)
    homs_ab = hom_space(a, b)
    for trials, mat in enumerate(homs_ab, 1):
        # a zero row already makes the map singular, without an elimination
        if all(mat.nz_rows()) and rank(mat) == a.dim:
            return _yes(a, b, mat, "basis scan", trials, end_local_dim(a) == 1)
    homs_ba = hom_space(b, a)
    ends_a = hom_space(a, a)
    ends_b = hom_space(b, b)
    dims = {len(homs_ab), len(homs_ba), len(ends_a), len(ends_b)}
    if len(dims) != 1:
        return _no("Hom-space dimensions are asymmetric: "
                   f"hom(a,b)={len(homs_ab)}, hom(b,a)={len(homs_ba)}, "
                   f"end(a)={len(ends_a)}, end(b)={len(ends_b)}")
    el_a, el_b = end_local_dim(a), end_local_dim(b)
    # With both End algebras local, the maps a -> b that are not invertible
    # are those f with tr(g f) = 0 for every g in Hom(b, a), a proper subspace
    # when r(a, b) = 1, so the basis scan finds an invertible map.
    local = el_a == el_b == 1
    r = pairing_rank(homs_ab, homs_ba)
    if el_a + el_b != 2 * r:
        return _no("trace pairing of Hom(a,b) with Hom(b,a) vanishes; "
                   "both endomorphism algebras are local, so no map is invertible" if local
                   else f"trace pairing ranks: r(a,a) + r(b,b) = {el_a + el_b} "
                        f"!= 2 r(a,b) = {2 * r}")
    # the determinant of a combination is a nonzero polynomial of degree dim a;
    # the draws are counted after the basis maps the scan tried
    for trials, mat in enumerate(_draws(a.datum, homs_ab, seed, a.dim), len(homs_ab) + 1):
        if mat is not None and rank(mat) == a.dim:
            return _yes(a, b, mat, "seeded combination", trials, local)
    raise DatumError("no invertible combination of Hom(a,b) though the trace "
                     "pairing certifies an isomorphism; inconsistent input")


def _yes(a: ModuleRep, b: ModuleRep, mat: Mat, how: str, trials: int, local: bool) -> IsoVerdict:
    """The yes verdict for an invertible map found by ``how`` at trial
    ``trials``, re-verified as an intertwiner.  With local End algebras the
    trace pairing already decides, so it is cited, with no trials."""
    witness = Morphism(a, b, mat)
    if not witness.is_valid():
        raise DatumError("isomorphism witness is not an intertwiner; inconsistent input")
    if local:
        how, trials = "trace pairing", 0
    return IsoVerdict("yes", f"invertible intertwiner ({how})", witness, trials)


# ---------------------------------------------------------------------------
# short exact sequences


class SesReport(namedtuple("SesReport", "maps_ok f_injective g_surjective composite_zero "
                           "dims_match split section left_end_local right_end_local "
                           "translate_verdict radical_factors", defaults=(None,) * 6)):
    """Exactness facts of a sequence; ``ses_check`` adds ``split`` (and a
    ``section``) and ``radical_factors`` for exact ones,
    ``ar_candidate_check`` the other AR conditions."""

    __slots__ = ()

    @property
    def exact(self) -> bool:
        return (self.maps_ok and self.f_injective and self.g_surjective
                and self.composite_zero and self.dims_match)

    @property
    def ar_ok(self) -> bool:
        return (self.exact and self.split is False
                and self.left_end_local == 1 and self.right_end_local == 1
                and self.radical_factors is True and self.translate_verdict == "yes")

    def to_json(self) -> dict:
        out = {
            "maps_ok": self.maps_ok,
            "f_injective": self.f_injective,
            "g_surjective": self.g_surjective,
            "composite_zero": self.composite_zero,
            "dims_match": self.dims_match,
            "exact": self.exact,
        }
        if self.split is not None:
            out["split"] = self.split
        if self.section is not None:
            out["section"] = self.section.to_json()
        if self.left_end_local is not None:
            out["left_end_local"] = self.left_end_local
            out["right_end_local"] = self.right_end_local
            out["translate_left_is_omega2_right"] = self.translate_verdict
            out["radical_factors_through_g"] = self.radical_factors
            out["ar_ok"] = self.ar_ok
        return out


def _flattened(order: int, mats: list[Mat]) -> Mat:
    """The matrix whose k-th column lists the entries of mats[k], row by row."""
    return Mat(order, ({i * m.ncols + j: x for i, r in enumerate(m.nz_rows())
                        for j, x in r.items()} for m in mats),
               mats[0].nrows * mats[0].ncols).transpose()


def _combination(datum: ValidatedDatum, coeffs: dict, mats: list[Mat]) -> Mat | None:
    """The sum of c * mats[k] over the nonzero coefficients c = coeffs[k]
    (scalars or integers), or None when every coefficient is zero."""
    mat = None
    for k, c in coeffs.items():
        if c:
            term = mats[k].scale(datum.scalar(c))
            mat = term if mat is None else mat + term
    return mat


def _draws(datum: ValidatedDatum, mats: list[Mat], seed: int, limit: int):
    """The seeded combinations of mats that the searches try: rounds of 64
    draws of integer coefficients in [-s, s], s = 3, 6, 12, ..., each draw
    yielded as ``_combination`` gives it (None when every coefficient is 0).

    A nonzero polynomial of degree at most ``limit`` in the coefficients
    vanishes on a draw with probability at most limit / (2s + 1)
    (Schwartz-Zippel), so the schedule ends after the first round in which
    that is below 1/2.
    """
    rng = random.Random(seed)
    bound = 3
    while True:
        for _ in range(64):
            coeffs = [rng.randint(-bound, bound) for _ in mats]
            yield _combination(datum, dict(enumerate(coeffs)), mats)
        if 2 * bound + 1 > 2 * limit:
            return
        bound *= 2


def ses_check(f: Morphism, g: Morphism) -> SesReport:
    """Exactness and splitness of 0 -> A -f-> B -g-> C -> 0.  An exact
    sequence also reports whether every radical endomorphism r of C factors
    as r = g h through some h in Hom(C, B), solved like the section."""
    if f.target.dim != g.source.dim:
        raise DatumError("morphisms are not composable")
    require_same_datum(f.source, g.target)
    a, b, c = f.source, f.target, g.target
    maps_ok = f.is_valid() and g.is_valid()
    f_inj = rank(f.matrix) == a.dim
    g_sur = rank(g.matrix) == c.dim
    comp0 = (g.matrix * f.matrix).is_zero()
    dims = b.dim == a.dim + c.dim
    rep = SesReport(maps_ok, f_inj, g_sur, comp0, dims)
    if not rep.exact:
        return rep
    radical = end_radical(c)
    homs_cb = hom_space(c, b)
    if not homs_cb:
        # only the zero map factors through g
        return rep._replace(split=c.dim == 0, radical_factors=not radical)
    datum = a.datum
    sys = _flattened(datum.N, [g.matrix * h for h in homs_cb])
    sol = solve_right(sys, _flattened(datum.N, [Mat.identity(datum.N, c.dim)]))
    # a section s has g s = 1 on C != 0, so it is not zero
    section = None if sol is None else Morphism(
        c, b, _combination(datum, sol.cols()[0], homs_cb))
    split = sol is not None
    factors = split or not radical or solve_right(sys, _flattened(datum.N, radical)) is not None
    return rep._replace(split=split, section=section, radical_factors=factors)


def ar_candidate_check(f: Morphism, g: Morphism, seed: int = 0) -> SesReport:
    """ses_check plus the other almost-split conditions: absolutely
    indecomposable ends and left end isomorphic to Omega^2 of the right end
    (the translate for a symmetric algebra).  With a non-split sequence whose
    radical endomorphisms of C factor through g, they certify that it is
    almost split (Auslander, Reiten and Smalo, Ch. V)."""
    rep = ses_check(f, g)
    if not rep.exact:
        return rep
    return rep._replace(left_end_local=end_local_dim(f.source),
                        right_end_local=end_local_dim(g.target),
                        translate_verdict=is_isomorphic(f.source, omega(g.target, 2), seed).verdict)


def ses_candidate(a: ModuleRep, mids: list[ModuleRep], c: ModuleRep,
                  seed: int = 0) -> tuple[Morphism, Morphism] | None:
    """Maps making 0 -> a -f-> B -g-> c -> 0 exact, B = (+)mids, as (f, g).

    f is each injective map in turn among the all-ones sum of the Hom(a, B)
    basis and the draws of ``_draws``.  With pi the projection of B onto
    q = B / im f, g = w pi for the first w in the Hom(q, c) basis of rank
    dim c: g is onto with kernel im f, so the sequence is exact.  When End(c)
    is local, such a w exists exactly when q is isomorphic to c, because the
    maps q -> c that are not invertible then form a proper subspace.  None
    means that no draw of the schedule gave such an f.
    """
    b = direct_sum(mids) if len(mids) > 1 else mids[0]
    if b.dim != a.dim + c.dim:
        return None
    homs_ab = hom_space(a, b)
    if not homs_ab:
        return None
    for f_mat in chain([sum(homs_ab[1:], homs_ab[0])], _draws(a.datum, homs_ab, seed, b.dim)):
        if f_mat is None or rank(f_mat) != a.dim:
            continue
        q, pi = quotient_module(b, spin_submodule(b, f_mat.cols()))
        for w in hom_space(q, c):
            if rank(w) == c.dim:
                return Morphism(a, b, f_mat), Morphism(b, c, w * pi)
    return None


# Lemmas stated per family: family letter, item tag, the tau-shift taking
# the left end A to the right end C, and the error where the family is empty.
AR_LEMMAS = {
    "4.9": ("T", "4.9(4)", -1, None),
    "4.10": ("Tbar", "4.10(4)", 1, None),
    "4.20": ("M", "4.20(5)", 0, "band sequences need m > 1; use 4.28 when m = 1"),
    "4.28": ("W", "4.28(4)", 0, "W-family sequences need m = 1; use 4.20 when m > 1"),
}


def ar_sequences_for_lemma(datum: ValidatedDatum, lemma: str, max_t: int = 1,
                           etas=(1,), weights=None):
    """Terms (name, A, mids, C) of the almost-split sequences asserted for
    the selected statement tag: '4.5' (simple/syzygy family), '4.9' (chains),
    '4.10' (dual chains), '4.20' (bands, m > 1), '4.28' (W family, m = 1)."""
    n = datum.n
    if weights is None:
        weights = [(l, datum.weights_in_class(l)[0]) for l in range(1, n)]
    for l, lam in weights:
        constructors.require_regular(datum, l, lam)
    out = []
    if lemma == "4.5":
        # Omega^(s+2) V -> Omega^(s+1) V(n-l, sigma lam) (+) Omega^(s+1) V(n-l,
        # sigma^-1 lam) -> Omega^s V: item (1) at s = -1, with P(l, lam) as a
        # third middle term, then items (2) at s = t and (3) at s = -t-2
        for l, lam in weights:
            v = constructors.simple(datum, l, lam)
            shifted = [constructors.simple(datum, n - l, datum.sigma(lam)),
                       constructors.simple(datum, n - l, datum.sigma_inv(lam))]
            for s in [-1, *(s for t in range(max_t + 1) for s in (t, -t - 2))]:
                mids = [omega(u, s + 1) for u in shifted]
                if s == -1:
                    item = "4.5(1)"
                    mids.append(projective_of_simple(datum, l, lam))
                else:
                    item = f"4.5(2) t={s}" if s >= 0 else f"4.5(3) t={-s - 2}"
                out.append((f"{item} l={l} lam={lam.label()}", omega(v, s + 2), mids,
                            omega(v, s)))
        return out
    if lemma not in AR_LEMMAS:
        raise DatumError(f"unknown sequence tag {lemma!r}; "
                         "expected one of 4.5, 4.9, 4.10, 4.20, 4.28")
    letter, item, shift, guard = AR_LEMMAS[lemma]
    fam = constructors.FAMILIES[letter]
    if not fam.on_m(datum.m):
        raise DatumError(guard)
    # each member is built once per datum: with tau-shift 0 the ends are one
    # module, and a sequence's right end is the next one's middle term, so
    # End(C) and its Hom solves are shared through the datum's Hom memo
    for l, lam in weights:
        c_lam = datum.tau(lam, shift)
        for kw in ([{"eta": constructors.EtaParam.of(e)} for e in etas]
                   if "eta" in fam.params else [{}]):
            on = "".join(f" eta={ep}" for ep in kw.values())
            for t in range(1, max_t + 1):
                mids = [fam.member(datum, l, c_lam, t=t - 1, **kw)] if t > 1 else []
                out.append((f"{item} t={t}{on} l={l} lam={lam.label()}",
                            fam.member(datum, l, lam, t=t, **kw),
                            mids + [fam.member(datum, l, lam, t=t + 1, **kw)],
                            fam.member(datum, l, c_lam, t=t, **kw)))
    return out


# ---------------------------------------------------------------------------
# best-effort family recognition


def match_family(m: ModuleRep, max_t: int = 4, max_s: int = 4,
                 etas=(0, 1, -1, 2, "inf")) -> str | None:
    """Name a classified-family member isomorphic to m, or None.

    Candidates are the registry members at m's own support weights whose
    predicted dimension is dim m: every family but Omega at each weight in
    turn, then Omega.  Every member N is absolutely indecomposable, so only
    an m with r(m, m) = end_local_dim 1 can match one, and then m is
    isomorphic to N exactly when r(m, N) = 1, as in ``is_isomorphic``.
    Hom(N, m) is solved only for an N with m's invariants and with
    dim Hom(m, N) = dim End(m), which an isomorphism forces.
    """
    if m.dim == 0:
        return "zero"
    if end_local_dim(m) != 1:
        return None
    ends = hom_space(m, m)
    datum = m.datum
    key = invariant_key(m)
    fams = constructors.FAMILIES
    for group in ([f for c, f in fams.items() if c != "Omega"], [fams["Omega"]]):
        for l, w in candidate_simples(m):
            for fam in group:
                if l not in fam.l_range(datum):
                    continue
                for params in fam.grid(datum, max_t, max_s, etas):
                    if fam.dim(datum, l, **params) != m.dim:
                        continue
                    cand = fam.build(datum, l, w, **params)
                    if invariant_key(cand) != key:
                        continue
                    homs = hom_space(m, cand)
                    if len(homs) == len(ends) and pairing_rank(
                            homs, hom_space(cand, m)) == 1:
                        return fam.tag.format(l=l, lam=w.label(), **params)
    return None
