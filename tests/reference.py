"""Slow, direct references that tests compare the package against.

The package reaches each of these results one way: ``loewy_structure`` reads
the simples of every radical layer off the weight graph or from the Hom passes
that find the radicals, ``linalg.Echelon`` is its one elimination, and
``is_isomorphic`` decides every pair by an invertible Hom basis map or the rank
of the trace pairing.  The references below build the
intermediate modules and spans that the package skips, or scan the pairings
one by one, so that tests can check its answers against a second,
independent route.  ``weight_graph`` finds the components of G(m) by a search
from every vertex and peels its layers, where the package reads both kinds
of component off one reachability closure and the layers off longest
paths.  ``projective_table`` writes P(l, lambda) entry by entry
from the action tables, where the package glues two chain segments.  The datum classes its weights in integer exponents mod N;
the references here search for the same classes over ``CycScalar`` values.
``is_isomorphic`` and ``spin_submodule`` are the package's functions as they
were before the package scanned the Hom basis first and spun by products;
tests hold the package's verdicts and spans equal to theirs.
"""

from collections import Counter
from fractions import Fraction
from itertools import chain

from doublerep import homology
from doublerep.constructors import _put, require_regular, simple
from doublerep.datum import NILPOTENT, DatumError, Weight, WeightClass
from doublerep.homology import (IsoVerdict, Morphism, _draws, _no, end_local_dim, hom_space,
                                invariant_key, pairing_rank)
from doublerep.linalg import Echelon, Mat, Row, frobenius_pair, rank
from doublerep.repmod import ModuleRep, SubmoduleFacts, quotient_module, require_same_datum


def semisimple_factors(h):
    """Multiplicities ``[((l, weight), mult), ...]`` of the simples in a
    semisimple module, each counted as dim Hom(S, h) / dim End(S) over the
    candidate simples S, solved by ``hom_space`` and not by the package's Hom
    pass; a module that is not semisimple raises ``DatumError``."""
    out, covered, support = [], 0, set(h.weights)
    for l, w in homology.candidate_simples(h):
        s = simple(h.datum, l, w)
        # a nonzero map out of a simple is one to one, so S's weights occur in h
        d = len(homology.hom_space(s, h)) if support.issuperset(s.weights) else 0
        if d:
            es = len(homology.hom_space(s, s))
            if d % es:
                raise DatumError("inconsistent Hom dimensions in semisimple decomposition")
            out.append(((l, w), d // es))
            covered += d // es * s.dim
    if covered != h.dim:
        raise DatumError("semisimple decomposition does not exhaust the module")
    return out


def radical_series(m):
    """The successive semisimple layers M/rad M, rad M/rad^2 M, ..., each
    built as a quotient module."""
    out = []
    while m.dim:
        rad = homology.radical(m)
        out.append(quotient_module(m, rad)[0])
        m = rad.module
    return out


def _search(succ, v):
    """The vertices that v reaches along succ, v included."""
    seen, todo = {v}, [v]
    while todo:
        for w in succ[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return frozenset(seen)


def weight_graph(m):
    """The weight graph G(m) of a module with distinct weights (an edge
    j -> i for each nonzero x[i, j] or xi[i, j]), read by search: a Counter
    of the strongly connected components as (size, lowest vector, is a sink,
    radical layer), and the number of weakly connected components.  Two
    vertices share a component when each reaches the other; the lowest
    vector is the component's one vector with no xi-edge to a vector of it,
    None when there is not exactly one; layer k is the components with no
    edge into them from what is left once layers 0 to k-1 are removed; the
    weak components are found by searching the edges taken both ways."""
    n = m.dim
    succ = [set() for _ in range(n)]
    for op in (m.act_x, m.act_xi):
        for i, r in enumerate(op.nz_rows()):
            for j in r:
                succ[j].add(i)
    xi_edges = {(j, i) for i, r in enumerate(m.act_xi.nz_rows()) for j in r}
    reach = [_search(succ, v) for v in range(n)]
    sccs = {frozenset(w for w in reach[v] if v in reach[w]) for v in range(n)}
    layer, left = {}, set(sccs)
    while left:
        rest = frozenset().union(*left)
        tops = {c for c in left if not any(w in c for u in rest - c for w in succ[u])}
        layer.update(dict.fromkeys(tops, len(set(layer.values()))))
        left -= tops
    facts = Counter()
    for c in sccs:
        lows = [v for v in c if not any((v, w) in xi_edges for w in c)]
        facts[len(c), lows[0] if len(lows) == 1 else None,
              all(succ[v] <= c for v in c), layer[c]] += 1
    both = [succ[v] | {u for u in range(n) if v in succ[u]} for v in range(n)]
    return facts, len({_search(both, v) for v in range(n)})


def echelon(vectors, order):
    """The ``Echelon`` of the span of the given ``{index: value}`` vectors."""
    e = Echelon(order)
    for v in vectors:
        e.add(v)
    return e


def span_basis(vectors, order):
    """The reduced echelon basis of the span, in pivot order; two lists of
    vectors span the same space exactly when their bases are equal."""
    e = echelon(vectors, order)
    return [e.rows[p] for p in e.pivots]


def same_span(rows_a, rows_b, order):
    return span_basis(rows_a, order) == span_basis(rows_b, order)


def in_span(vectors, v, order):
    return not echelon(vectors, order).reduce(v)


def rational_value(x):
    """The Fraction a cyclotomic scalar equals, or None when it is irrational."""
    return None if any(x.num[1:]) else Fraction(x.num[0], x.den)


def action(m):
    """What identifies a module's matrices: weight tags, x and xi."""
    return m.weights, m.act_x, m.act_xi


def local_iso_verdict(a, b):
    """The isomorphism verdict for modules a and b whose End algebras are
    local, by scanning pairs of basis maps: every endomorphism of a is then a
    scalar plus a nilpotent, so the first f in the Hom(a, b) basis with
    tr(g f) != 0 for some g in the Hom(b, a) basis is an isomorphism, and
    there is none when every pairing vanishes."""
    homs_ba = homology.hom_space(b, a)
    for f in homology.hom_space(a, b):
        if any(frobenius_pair(f, g) for g in homs_ba):
            return homology.IsoVerdict("yes", "invertible intertwiner (trace pairing)",
                                       homology.Morphism(a, b, f))
    return homology.IsoVerdict("no", "trace pairing of Hom(a,b) with Hom(b,a) vanishes; "
                               "both endomorphism algebras are local, so no map is invertible")


def rho_order(chi, a):
    """n, the order of rho = chi(a), by multiplying out its powers."""
    rho = chi.value(a)
    n, p = 1, rho
    while not p.is_one():
        n, p = n + 1, p * rho
    return n


def weight_classes(datum):
    """The class of each weight, in enumeration order, by comparing
    lambda(a) / lambda(chi) with rho^d for d < n."""
    rho, n = datum.chi.value(datum.a), rho_order(datum.chi, datum.a)

    def classify(lam):
        e = lam.value_g(datum.a) * lam.value_gamma_exps(datum.chi.exps).inv()
        p = datum.one()
        for d in range(n):
            if e == p:
                return WeightClass(d + 1, d, "regular") if d <= n - 2 \
                    else WeightClass(n, None, "n_boundary")
            p = p * rho
        return WeightClass(n, None, "n_generic")

    return [classify(w) for w in datum.enumerate_weights()]


def kernel(datum):
    """The weights with lambda(a) = lambda(chi), in enumeration order."""
    return [w for w in datum.enumerate_weights()
            if w.value_g(datum.a) == w.value_gamma_exps(datum.chi.exps)]


def projective_table(datum, l, lam):
    """The projective cover P(l, lambda) of V(l, lambda), dimension 2n, entry
    by entry from the action tables: v_0..v_(n-1), then u_0..u_(n-1)."""
    require_regular(datum, l, lam)
    n = datum.n
    one = datum.one()

    def V(i: int) -> int:
        return i

    def U(i: int) -> int:
        return n + i

    slam = datum.sigma(lam)
    silam = datum.sigma_inv(lam)
    x, xi = [{} for _ in range(2 * n)], [{} for _ in range(2 * n)]
    if datum.kind == NILPOTENT:
        weights = ([datum.phi_shift(lam, i) for i in range(n)]
                   + [datum.phi_shift(lam, i - n + l) for i in range(n)])
        for i in range(n - 1):
            _put(x, V(i + 1), V(i), one)
            _put(x, U(i + 1), U(i), one)
        _put(xi, U(n - l - 1), V(0), one)
        for i in range(1, l):
            _put(xi, V(i - 1), V(i), datum.alpha_coeff(i, l, lam))
            _put(xi, U(n - l + i - 1), V(i), one)
        _put(xi, U(n - 1), V(l), one)
        for i in range(l + 1, n):
            _put(xi, V(i - 1), V(i), datum.alpha_coeff(i - l, n - l, slam))
        for i in range(1, n - l):
            _put(xi, U(i - 1), U(i), datum.alpha_coeff(i, n - l, silam))
        for i in range(n - l + 1, n):
            _put(xi, U(i - 1), U(i), datum.alpha_coeff(i - n + l, l, lam))
    else:
        weights = ([datum.phi_shift(lam, i - n + l) for i in range(n)]
                   + [datum.phi_shift(lam, i) for i in range(n)])
        y, z = datum.yz_coeff(l, lam)
        for i in range(n - l - 1):
            _put(x, V(i + 1), V(i), datum.alpha_coeff(i + 1, n - l, silam))
        _put(x, U(0), V(n - l - 1), one)
        for i in range(n - l, n - 1):
            _put(x, V(i + 1), V(i), datum.alpha_coeff(i + 1 - n + l, l, lam))
            _put(x, U(i + 1 - n + l), V(i), one)
        _put(x, V(0), V(n - 1), y)
        _put(x, U(l), V(n - 1), one)
        for i in range(l - 1):
            _put(x, U(i + 1), U(i), datum.alpha_coeff(i + 1, l, lam))
        for i in range(l, n - 1):
            _put(x, U(i + 1), U(i), datum.alpha_coeff(i + 1 - l, n - l, slam))
        _put(x, U(0), U(n - 1), z)
        for i in range(1, n):
            _put(xi, V(i - 1), V(i), one)
            _put(xi, U(i - 1), U(i), one)
    labels = [f"v{i}" for i in range(n)] + [f"u{i}" for i in range(n)]
    return ModuleRep(datum, weights, Mat(datum.N, x, 2 * n), Mat(datum.N, xi, 2 * n), labels)


# ``homology.is_isomorphic`` as it was before it scanned the Hom(a, b) basis
# first: every invariant, Hom dimension and the pairing identity are decided
# before any basis map is tried.
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
    # the determinant of a combination is a nonzero polynomial of degree dim a
    for trials, mat in enumerate(chain(homs_ab, _draws(a.datum, homs_ab, seed, a.dim)), 1):
        if mat is not None and rank(mat) == a.dim:
            witness = Morphism(a, b, mat)
            if not witness.is_valid():
                raise DatumError("isomorphism witness is not an intertwiner; inconsistent input")
            how = "basis scan" if trials <= len(homs_ab) else "seeded combination"
            if local:
                how, trials = "trace pairing", 0
            return IsoVerdict("yes", f"invertible intertwiner ({how})", witness, trials)
    raise DatumError("no invertible combination of Hom(a,b) though the trace "
                     "pairing certifies an isomorphism; inconsistent input")


# ``repmod.spin_submodule`` as it was before it took the images of a basis as
# one product: one ``matvec`` per basis row and operator.
def spin_submodule(mod: ModuleRep, seeds: list[Row]) -> SubmoduleFacts:
    """Smallest submodule containing the seed vectors.

    Seeds are split into weight-pure components (legitimate because every
    submodule is graded by the weight projectors in the group part of the
    algebra) and kept in one sparse reduced echelon basis (``Echelon``) per
    weight block.  The x and xi images of each basis row are taken once and
    reduced against the blocks: when every image lies in the span, the span
    is closed and the images give the restricted action; otherwise the
    images that leave it extend the span, and the images of the new basis
    are taken again.  The basis depends only on the submodule, not on the
    seeds or their order.
    """
    datum = mod.datum
    blocks: dict[Weight, Echelon] = {}

    def add(v: Row) -> bool:
        """Extend the span by the weight components of v; True when it grew."""
        comps: dict[Weight, Row] = {}
        for k, x in v.items():
            comps.setdefault(mod.weights[k], {})[k] = x
        grew = False
        for w, comp in comps.items():
            if w not in blocks:
                blocks[w] = Echelon(datum.N)
            if blocks[w].add(comp) is not None:
                grew = True
        return grew

    for seed in seeds:
        add(seed)
    while True:
        basis = [(w, p) for w in sorted(blocks, key=Weight.sort_key) for p in blocks[w].pivots]
        rows = [blocks[w].rows[p] for w, p in basis]
        images = [[op.matvec(b) for b in rows] for op in (mod.act_x, mod.act_xi)]
        grew = [add(v) for vs in images for v in vs]
        if not any(grew):
            break

    pivots = [p for _, p in basis]
    at = {p: idx for idx, p in enumerate(pivots)}

    def restrict(vs: list[Row]) -> Mat:
        # in a reduced echelon basis, the coefficient of a row in a vector of
        # the span is the vector's value at the row's pivot
        return Mat.from_cols(datum.N, [{at[k]: c for k, c in v.items() if k in at} for v in vs],
                             len(rows))

    labels = [mod.labels[p] for p in pivots]
    module = ModuleRep(datum, [w for w, _ in basis], *map(restrict, images), labels)
    return SubmoduleFacts(mod, rows, pivots, module)
