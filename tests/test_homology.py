"""Homological layer: Hom spaces, socle/radical, syzygies, isomorphism
certification, and almost-split sequence candidates."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublerep import cli, homology
from doublerep.constructors import (FAMILIES, band, projective, simple, t1, t1bar,
                                    t_chain, t_chain_bar, verma, w_band)
from doublerep.cyclo import CycScalar
from doublerep.datum import DatumError
from doublerep.linalg import (Echelon, Mat, frobenius_pair, hstack, inv, nullspace, rank,
                              solve_right, vstack)
from doublerep.repmod import ModuleRep, direct_sum, intertwines, quotient_module, spin_submodule

from .conftest import conjugated_json, first_weight, make_datum
from .reference import radical_series, same_span, semisimple_factors, weight_graph
from .test_registry import members


# ---------------------------------------------------------------------------
# hom spaces


def test_hom_space_of_simples(datum_b):
    lam, mu = datum_b.weights_in_class(1)[:2]
    v = simple(datum_b, 1, lam)
    assert len(homology.hom_space(v, v)) == 1
    assert intertwines(homology.hom_space(v, v)[0], v, v)
    assert len(homology.hom_space(v, simple(datum_b, 1, mu))) == 0


def test_hom_space_members_are_morphisms(datum_b):
    lam = first_weight(datum_b, 1)
    p = projective(datum_b, 1, lam)
    t2 = t_chain(datum_b, 1, lam, 2)
    for f in homology.hom_space(p, t2):
        assert (f.nrows, f.ncols) == (t2.dim, p.dim) and intertwines(f, p, t2)
    for f in homology.hom_space(t2, p):
        assert (f.nrows, f.ncols) == (p.dim, t2.dim) and intertwines(f, t2, p)


def test_morphism_rejects_wrong_shape(datum_b):
    v = simple(datum_b, 1, first_weight(datum_b, 1))
    with pytest.raises(DatumError, match="shape does not match"):
        homology.Morphism(v, v, Mat.zeros(datum_b.N, v.dim + 1, v.dim))


def test_hom_vanishes_off_tau_orbit_step(datum_b):
    # Hom(T_1(l, lam), T_1(l, tau^k lam)) = 0 unless m | k
    lam = first_weight(datum_b, 1)
    a = t1(datum_b, 1, lam)
    b = t1(datum_b, 1, datum_b.tau(lam))
    assert len(homology.hom_space(a, b)) == 0
    assert len(homology.hom_space(a, a)) == 1


# ---------------------------------------------------------------------------
# local endomorphism rank


def test_end_local_dim_of_families(datum_b, datum_a):
    lam = first_weight(datum_b, 1)
    assert homology.end_local_dim(simple(datum_b, 1, lam)) == 1
    assert homology.end_local_dim(projective(datum_b, 1, lam)) == 1
    assert homology.end_local_dim(t_chain(datum_b, 1, lam, 2)) == 1
    assert homology.end_local_dim(band(datum_b, 1, lam, 2, 1)) == 1
    lam_a = first_weight(datum_a, 1)
    assert homology.end_local_dim(w_band(datum_a, 1, lam_a, 1, 2)) == 1


def test_end_local_dim_of_direct_sums(datum_b):
    lam, mu = datum_b.weights_in_class(1)[:2]
    v = simple(datum_b, 1, lam)
    w = simple(datum_b, 1, mu)
    same = direct_sum([v, v])
    mixed = direct_sum([v, w])
    assert homology.end_local_dim(same) == 4
    assert homology.end_local_dim(mixed) == 2
    # el(a (+) b) = el(a) + el(b) + 2 r(a, b), as the classify screen reads it
    ends = homology.hom_space(v, v)
    assert homology.pairing_rank(ends, homology.hom_space(v, v)) == 1
    assert homology.pairing_rank(homology.hom_space(v, w), homology.hom_space(w, v)) == 0
    assert homology.pairing_rank(ends, []) == homology.pairing_rank([], ends) == 0


# ---------------------------------------------------------------------------
# socle / radical / head / composition series


def ambient_rows_of_inner(outer_facts, inner_facts):
    """Rows of a submodule-of-a-submodule written in ambient coordinates."""
    inclusion = Mat.from_cols(outer_facts.ambient.datum.N, outer_facts.rows,
                              outer_facts.ambient.dim)
    return [inclusion.matvec(row) for row in inner_facts.rows]


def second_socle_rows(mod, soc_facts):
    """Basis (ambient coordinates) of soc^2 = preimage of soc(M/soc M)."""
    q, proj = quotient_module(mod, soc_facts)
    socq = homology.socle(q)
    rows = list(soc_facts.rows)
    for w in socq.rows:
        lift = solve_right(proj, Mat.from_cols(mod.datum.N, [w], nrows=q.dim))
        assert lift is not None
        rows.append(lift.cols()[0])
    return rows


def test_projective_loewy_structure(datum_b, datum_c):
    for d in (datum_b, datum_c):
        n = d.n
        for l in range(1, n):
            lam = first_weight(d, l)
            p = projective(d, l, lam)
            soc = homology.socle(p)
            assert soc.dim == l
            assert homology.is_isomorphic(soc.module, simple(d, l, lam)).verdict == "yes"
            h, _ = homology.head(p)
            assert homology.is_isomorphic(h, simple(d, l, lam)).verdict == "yes"
            lt = homology.loewy_type(p)
            assert (lt.s, lt.t, lt.rl) == (1, 1, 3)
            series = radical_series(p)
            assert len(series) == 3
            assert [layer.dim for layer in series] == [l, 2 * (n - l), l]
            factors = homology.composition_factors(p)
            assert sum(f["mult"] for f in factors) == 4


def test_projective_socle_radical_coincidences(datum_b, datum_c):
    # rad P = soc^2 P and rad^2 P = soc P, as subspaces
    for d in (datum_b, datum_c):
        lam = first_weight(d, 1)
        p = projective(d, 1, lam)
        soc = homology.socle(p)
        rad = homology.radical(p)
        rad2 = homology.radical(rad.module)
        rad2_rows = ambient_rows_of_inner(rad, rad2)
        assert same_span(rad2_rows, soc.rows, d.N)
        soc2_rows = second_socle_rows(p, soc)
        assert same_span(soc2_rows, rad.rows, d.N)


def test_projective_middle_layer(datum_b):
    lam = first_weight(datum_b, 1)
    p = projective(datum_b, 1, lam)
    n = datum_b.n
    series = radical_series(p)
    middle = series[1]
    got = sorted((l, w.label()) for (l, w), _ in homology.loewy_structure(middle).socle)
    slam = datum_b.sigma(lam).label()
    silam = datum_b.sigma_inv(lam).label()
    assert got == sorted({(n - 1, slam), (n - 1, silam)})


def test_semisimple_factor_exhaustiveness_guard(datum_b):
    lam = first_weight(datum_b, 1)
    p = projective(datum_b, 1, lam)
    with pytest.raises(DatumError):
        semisimple_factors(p)  # P is not semisimple


def _layered_loewy_type(m):
    """Loewy type layer by layer: the radical series as quotient modules,
    then the simples of its top layer and of the socle module counted with
    ``semisimple_factors``."""
    if m.dim == 0:
        return homology.LoewyType(0, 0, 0)
    layers = radical_series(m)
    s = sum(mult for _, mult in semisimple_factors(layers[0]))
    t = sum(mult for _, mult in semisimple_factors(homology.socle(m).module))
    return homology.LoewyType(s, t, len(layers))


def _members_and_sums(key):
    mods = [fam.build(datum, l, lam, **params) for datum, fam, l, lam, params in members(key)]
    return (mods + [direct_sum([a, b]) for a, b in zip(mods, mods[1:] + mods[:1])]
            + [direct_sum([a, a]) for a in mods])


@pytest.mark.parametrize("key", ["A", "B", "C", "E", "D", "F"])
def test_loewy_type_matches_layered_reference(key):
    for m in _members_and_sums(key):
        assert homology.loewy_type(m) == _layered_loewy_type(m), m.labels
        layers = [semisimple_factors(q) for q in radical_series(m)]
        assert homology.loewy_structure(m).layers == layers, m.labels


@pytest.mark.parametrize("key", ["A", "B", "C", "E", "D", "F", "R2", "H"])
def test_weight_certificate_and_end_memo_match_the_exact_solve(key):
    # A candidate simple for which the Schur certificate proves a Hom space
    # zero gets no solve: in each direction where it says zero, the exact
    # elimination must find no map.  The End basis memoized on the datum
    # must equal a fresh elimination.
    certified = 0
    for m in _members_and_sums(key):
        homology.loewy_type(m)
        homology.end_local_dim(m)
        tests = {into: homology._schur_zero(m, into) for into in (True, False)}
        for l, w in homology.candidate_simples(m):
            s = simple(m.datum, l, w)
            for into, (a, b) in ((True, (s, m)), (False, (m, s))):
                if tests[into](s):
                    certified += 1
                    assert _direct_homs(a, b) == (), (m.labels, l, w.label(), into)
        assert homology.hom_space(m, m) is homology.hom_space(m, m)
        assert homology.hom_space(m, m) == _direct_homs(m, m), m.labels
    assert certified


def _rebased(m, draw):
    """m in a basis changed by a drawn unimodular matrix L U inside each
    weight space, L and U unit triangular: its weights stay, and its x and
    xi fill the weight blocks."""
    datum = m.datum
    cols = [{} for _ in range(m.dim)]
    for ix in m.weight_spaces().values():
        k = len(ix)
        lower = [[1 if i == j else draw(st.integers(-3, 3)) if i > j else 0
                  for j in range(k)] for i in range(k)]
        upper = [[1 if i == j else draw(st.integers(-3, 3)) if i < j else 0
                  for j in range(k)] for i in range(k)]
        for i in range(k):
            for j in range(k):
                if c := sum(lower[i][t] * upper[t][j] for t in range(k)):
                    cols[ix[j]][ix[i]] = datum.scalar(c)
    change = Mat.from_cols(datum.N, cols, m.dim)
    back = inv(change)
    return ModuleRep(datum, m.weights, back * m.act_x * change, back * m.act_xi * change)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_weight_block_certificate_matches_the_exact_solve(data):
    # M (+) M in a basis mixed inside each weight space, M a registry member
    # other than a simple: every weight space has dimension >= 2, so each
    # zero the certificate proves for a simple whose weights all occur in
    # the sum comes from the rank of a weight block, and the exact
    # elimination must find no map there.  The ranks do not depend on the
    # basis inside a weight space; for these members at least one candidate
    # is decided that way.
    key = data.draw(st.sampled_from("BCDEF"))
    mods = [fam.build(d, l, lam, **params) for d, fam, l, lam, params in members(key)
            if fam.letter != "V"]
    a = data.draw(st.sampled_from(mods))
    m = _rebased(direct_sum([a, a]), data.draw)
    spaces = m.weight_spaces()
    assert min(map(len, spaces.values())) >= 2
    tests = {into: homology._schur_zero(m, into) for into in (True, False)}
    by_rank = 0
    for l, w in homology.candidate_simples(m):
        s = simple(m.datum, l, w)
        for into, (x, y) in ((True, (s, m)), (False, (m, s))):
            if tests[into](s):
                by_rank += all(v in spaces for v in s.weights)
                assert _direct_homs(x, y) == (), (a.labels, l, w.label(), into)
    assert by_rank


def _direct_homs(a, b):
    """Hom(a, b) eliminated afresh, past the datum's memo."""
    return homology._eliminate_homs(a, b, homology._hom_unknowns(a, b))


@pytest.mark.parametrize("key", ["A", "B", "C", "E", "D", "F", "R2"])
def test_socle_stop_and_hom_memo_match_the_exact_passes(key, monkeypatch):
    # The Loewy walk makes one radical pass per layer until it reaches a
    # nonzero radical power whose layers the weight graph names, and none
    # after; its layers and socle must be those of the radical series built
    # as quotient modules.  The walk is the exact path that every module whose
    # structure the weight graph does not read takes, so it is held to the
    # reference on every member, multiplicity-free or not.  A Hom basis
    # served by the content-keyed memo must equal a fresh elimination, also
    # for a module read back from JSON over a distinct datum object, where
    # the memo of the source's datum must serve the same basis.
    mods = [fam.build(datum, l, lam, **params) for datum, fam, l, lam, params in members(key)]
    radical, passes = homology.radical, []
    monkeypatch.setattr(homology, "radical", lambda m: passes.append(m) or radical(m))
    for a, b in zip(mods, mods[1:] + mods[:1]):
        passes.clear()
        got = homology._solve_loewy(a)
        powers = [a]  # rad^k a, the walk's own modules through the radical memo
        while powers[-1].dim:
            powers.append(radical(powers[-1]).module)
        read = next((k for k in range(1, len(powers) - 1)
                     if homology._graph_loewy(powers[k])), len(powers) - 1)
        assert passes == powers[:read], a.labels
        layers = [semisimple_factors(q) for q in radical_series(a)]
        assert got.layers == layers, a.labels
        assert got.socle == semisimple_factors(homology.socle(a).module), a.labels
        back = ModuleRep.from_json(json.loads(json.dumps(b.to_json())))
        assert back.datum is not b.datum
        for x, y in ((a, a), (a, b), (b, a), (a, back), (back, a)):
            assert homology.hom_space(x, y) == _direct_homs(x, y), (x.labels, y.labels)
        assert homology.hom_space(a, back) is homology.hom_space(a, b)


def test_walk_hands_a_multiplicity_free_radical_power_to_the_graph(monkeypatch):
    # P(2,(0;2)) over E: its 4-dimensional radical is multiplicity-free, so
    # one radical pass gives the head and the weight graph the other layers.
    # Omega^-2 V(1,(0,0;0,0)) over R2: no radical power is multiplicity-free,
    # so the walk goes on until the radical is zero, and its last layer is
    # 3 * V(1,(0,0;0,0)).
    e, r2 = make_datum("E"), make_datum("R2")
    p = projective(e, 2, cli.parse_weight(e, "0;2"))
    low = cli.parse_weight(r2, "0,0;0,0")
    om = homology.omega_power(r2, 1, low, -2)
    radical, passes = homology.radical, []
    monkeypatch.setattr(homology, "radical", lambda m: passes.append(m.dim) or radical(m))
    for m, dims in ((p, [6]), (om, [9, 3])):
        passes.clear()
        got = homology._solve_loewy(m)
        assert passes == dims, m.labels
        assert got.layers == [semisimple_factors(q) for q in radical_series(m)], m.labels
    assert homology._graph_loewy(radical(p).module) is not None
    assert homology._solve_loewy(om).layers[-1] == [((1, low), 3)]


@pytest.mark.parametrize("key", ["A", "B", "C", "E", "D", "F", "R2"])
def test_shape_memo_matches_a_fresh_datum(key):
    # End(M), its trace form and the submodule lattice depend only on the
    # shape of M, and the kernels of x and xi only on its content.  Every
    # classify member's values, read through the datum's memos in manifest
    # order, must equal those of the same member built over a fresh datum
    # object, whose memos are empty.
    max_t, max_s, etas = (1, 0, "1") if key == "R2" else (2, 2, "1,-1")
    datum = make_datum(key)
    total, specs = cli._classify_specs(datum, max_t, max_s, cli.parse_etas(etas))
    shapes = set()
    for fam, l, w, params in specs:
        mod = fam.member(datum, l, w, **params)
        shapes.add(mod.shape())
        ref = fam.build(make_datum(key), l, w, **params)
        assert (homology.loewy_type(mod), homology.end_local_dim(mod),
                homology.invariant_key(mod)) == (
            homology.loewy_structure(ref).type,
            len(homology.hom_space(ref, ref)) - len(homology.end_radical(ref)),
            (ref.dim, ref.weight_multiset(), len(nullspace(ref.act_x)),
             len(nullspace(ref.act_xi)))), (fam.letter, l, w, params)
    # members of one shape read the first one's values
    assert len(shapes) < total


# ---------------------------------------------------------------------------
# multiplicity-free modules: the weight graph against the exact path


def _unipotent(datum, dim, rng):
    """A random upper unitriangular change of basis with entries in -2..2,
    which mixes weight vectors of different weights."""
    return Mat(datum.N, ({i: datum.one(), **{j: datum.scalar(c) for j in range(i + 1, dim)
                                             if (c := rng.randint(-2, 2))}}
                         for i in range(dim)), dim)


def _graph_agrees(m):
    """The weight graph's Loewy structure and End against the exact path:
    the layered reference, the End basis and its trace-form radical."""
    graph = homology._weight_graph(m)
    assert graph is not None, m.labels
    got = homology._graph_loewy(m)
    assert got.layers == [semisimple_factors(q) for q in radical_series(m)], m.labels
    assert got.socle == semisimple_factors(homology.socle(m).module), m.labels
    assert graph[0] == len(homology.hom_space(m, m)), m.labels
    assert homology._end_radical_coords(m) == (), m.labels
    return graph[0]


@pytest.mark.parametrize("key", ["A", "B", "C", "D", "E", "F", "R2", "H"])
def test_weight_graph_matches_the_exact_path(key, monkeypatch):
    # On every multiplicity-free member of the classify grid (max-t 2, H 1;
    # max-s 1; eta = 1, -1), each sum of two consecutive ones with disjoint
    # weights, and copies of 12 of them in a random unipotent basis, read
    # back into a weight basis by from_json, the weight graph's Loewy
    # structure equals the radical series built as quotient modules, its
    # component count is dim End, and rad End = 0.  Kernel counting equals
    # nullspace on every member.
    datum = make_datum(key)
    _, specs = cli._classify_specs(datum, 1 if key == "H" else 2, 1, cli.parse_etas("1,-1"))
    rng = random.Random(key)
    free = []
    for fam, l, w, params in specs:
        m = fam.member(datum, l, w, **params)
        for op in (m.act_x, m.act_xi):
            assert homology._kernel_dim(op, lambda op=op: nullspace(op)) == len(nullspace(op))
        if homology._weight_graph(m) is not None:
            free.append(m)
            _graph_agrees(m)
    assert free
    for a, b in zip(free, free[1:]):
        if not set(a.weights) & set(b.weights):
            assert _graph_agrees(direct_sum([a, b])) == (homology.end_local_dim(a)
                                                          + homology.end_local_dim(b))
    for m in rng.sample(free, min(len(free), 12)):
        back = ModuleRep.from_json(conjugated_json(m, _unipotent(datum, m.dim, rng)))
        _graph_agrees(back)
        assert homology.loewy_structure(back) == homology.loewy_structure(m), m.labels
    # a sum whose summands share a weight is not multiplicity-free: it takes
    # the walk and the End solve
    walked, solved = [], []
    for name, log in (("_solve_loewy", walked), ("_end_radical_coords", solved)):
        fn = getattr(homology, name)
        monkeypatch.setattr(homology, name, lambda m, fn=fn, log=log: log.append(m) or fn(m))
    shared = direct_sum([free[0], free[0]])
    assert homology._weight_graph(shared) is None and homology._graph_loewy(shared) is None
    homology.loewy_structure(shared)
    # End(X (+) X) is the 2 x 2 matrices over End(X) = the field
    assert homology.end_local_dim(free[0]) == 1 and homology.end_local_dim(shared) == 4
    assert walked == solved == [shared]


def _patterned(datum, weights, edges):
    """A module with the given distinct weights whose x (op 0) and xi (op 1)
    have a nonzero entry at [i, j] for each edge (op, j, i, c), of value c;
    its relations need not hold."""
    ops = [[{} for _ in weights] for _ in range(2)]
    for op, j, i, c in edges:
        ops[op][i][j] = datum.scalar(c)
    return ModuleRep(datum, weights, *(Mat(datum.N, rows, len(weights)) for rows in ops))


def _graph_facts(m):
    """The weight graph's facts in the reference's form: a Counter of the
    SCCs as (size, lowest vector, is a sink, layer), whatever their
    numbering, and the weak component count."""
    weak, sccs, sinks, layers = homology._weight_graph(m)
    layer = {c: k for k, cs in enumerate(layers) for c in cs}
    assert sorted(layer) == list(range(len(sccs))) == sorted(c for cs in layers for c in cs)
    return Counter((size, low, c in sinks, layer[c]) for c, (size, low) in enumerate(sccs)), weak


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_weight_graph_matches_the_search_reference(datum_e, data):
    # On distinct weights and an arbitrary sparse pattern of x and xi (a
    # path through the vertices, closed into a cycle or not, plus random
    # edges, self-loops among them, relabelled by a random permutation so
    # that the path zigzags through the index order), the SCCs with their
    # sizes, lowest vectors, sinks and layers and the weak component count
    # equal the search reference's; the count is dim End, solved exactly,
    # whether or not the relations hold.
    dim = data.draw(st.integers(0, 12))
    label = data.draw(st.permutations(range(dim)))
    ws = data.draw(st.lists(st.sampled_from(datum_e.enumerate_weights()), min_size=dim,
                            max_size=dim, unique=True))
    op, c = st.integers(0, 1), st.sampled_from([-2, -1, 1, 2])
    path = data.draw(st.integers(0, dim))
    edges = [(data.draw(op), k, k + 1) for k in range(path - 1)]
    if path > 1 and data.draw(st.booleans()):
        edges.append((data.draw(op), path - 1, 0))
    if dim:
        vertex = st.integers(0, dim - 1)
        edges += data.draw(st.lists(st.tuples(op, vertex, vertex), max_size=dim))
    m = _patterned(datum_e, ws, [(o, label[j], label[i], data.draw(c)) for o, j, i in edges])
    facts, weak = _graph_facts(m)
    assert (facts, weak) == weight_graph(m)
    assert weak == len(homology.hom_space(m, m)) == homology.end_local_dim(m)


@pytest.mark.parametrize("case", ["x both ways", "xi both ways", "size off the class"])
def test_an_ambiguous_component_sends_the_loewy_structure_to_the_walk(datum_e, case):
    # An SCC whose vectors all lack an inner xi-edge (x-edges both ways) or
    # all have one (xi-edges both ways) has no single lowest vector, and a
    # lone vector whose weight lies in class l = 2 is an SCC of size 1 whose
    # weight names a simple of dimension 2: the graph is read, but it names
    # no Loewy structure, and End is still its component count.
    if case == "size off the class":
        m = _patterned(datum_e, datum_e.weights_in_class(2)[:1], [])
    else:
        op = 0 if case == "x both ways" else 1
        m = _patterned(datum_e, datum_e.weights_in_class(1)[:2], [(op, 0, 1, 1), (op, 1, 0, 1)])
    assert homology._weight_graph(m) is not None
    assert homology._graph_loewy(m) is None
    assert homology.end_local_dim(m) == len(homology.hom_space(m, m)) == 1


def test_kernel_count_falls_back_off_monomial_matrices(datum_e):
    # The rank of a matrix with at most one nonzero per row and per column is
    # its number of nonzeros; any other matrix is eliminated.
    one, calls = datum_e.one(), []

    def kernel(op):
        calls.append(op)
        return nullspace(op)

    monomial = Mat(datum_e.N, [{2: one}, {}, {0: one + one}], 3)
    two_in_a_column = Mat(datum_e.N, [{0: one}, {0: one}, {}], 3)
    two_in_a_row = Mat(datum_e.N, [{0: one, 1: one}, {}, {}], 3)
    assert homology._kernel_dim(monomial, lambda: kernel(monomial)) == 1
    assert calls == []
    for op in (two_in_a_column, two_in_a_row):
        assert homology._kernel_dim(op, lambda op=op: kernel(op)) == 2
    assert calls == [two_in_a_column, two_in_a_row]


@pytest.mark.parametrize("side", ["socle", "head"])
@pytest.mark.parametrize("copies,message", [(1, "inconsistent Hom dimensions"),
                                            (2, "does not exhaust")])
def test_loewy_type_keeps_the_multiplicity_checks(side, copies, message, monkeypatch):
    # T_1(1, lam) over E has one simple S in its socle and another in its
    # head.  On a fresh datum whose cached simple at `side` answers a
    # 2-dimensional End(S) instead of its 1-dimensional one, dim Hom = 1 (one
    # copy of T_1) is not divisible by it, and dim Hom = 2 (two copies)
    # counts one S, which does not exhaust the socle or the head.  One copy
    # is multiplicity-free, so loewy_type reads it off its weight graph,
    # which solves no Hom space and keeps its true type; the exact walk
    # keeps the checks.  Two copies share every weight and take the walk.
    probe = make_datum("E")
    t = t_chain(probe, 1, first_weight(probe, 1), 1)
    [((l, lam), _)] = getattr(homology.loewy_structure(t), side)
    hom_space = homology.hom_space
    walks = (homology._solve_loewy, _layered_loewy_type)
    for loewy in walks + ((homology.loewy_type,) if copies > 1 else ()):
        datum = make_datum("E")
        w = next(w for w in datum.weights_in_class(l) if w.label() == lam.label())
        s = simple(datum, l, w)
        fake = (Mat.identity(datum.N, s.dim),) * 2
        monkeypatch.setattr(homology, "hom_space",
                            lambda a, b, s=s: fake if a is b is s else hom_space(a, b))
        assert len(homology.hom_space(s, s)) == 2
        m = direct_sum([t_chain(datum, 1, first_weight(datum, 1), 1)] * copies)
        with pytest.raises(DatumError, match=message):
            loewy(m)
        if copies == 1:
            assert homology.loewy_type(m) == homology.loewy_structure(t).type


# ---------------------------------------------------------------------------
# the per-datum caches: simples, projective covers and the End solve


def test_simple_is_built_once_per_datum():
    datum = make_datum("B")
    lam = first_weight(datum, 1)
    v = simple(datum, 1, lam)
    assert simple(datum, 1, lam) is v
    assert simple(datum, 1, lam, "standard") is not v
    cover = homology.projective_of_simple(datum, 1, lam)
    assert homology.projective_of_simple(datum, 1, lam) is cover
    outside = first_weight(datum, 2)
    for _ in range(2):  # a weight that fails the class check is never cached
        with pytest.raises(DatumError):
            simple(datum, 1, outside)


def test_projective_cover_is_the_registry_member():
    # a classify P entry and the cover a syzygy uses are one module
    datum = make_datum("D")
    for l in range(1, datum.n):
        for w in datum.weights_in_class(l):
            cover = homology.projective_of_simple(datum, l, w)
            assert cover is FAMILIES["P"].member(datum, l, w)


def test_end_dim_of_a_simple_is_solved_once(monkeypatch):
    datum = make_datum("B")
    lam = first_weight(datum, 1)
    v = simple(datum, 1, lam)
    solves = []
    solve = homology._eliminate_homs
    monkeypatch.setattr(homology, "_eliminate_homs",
                        lambda a, b, pos: solves.append((a, b)) or solve(a, b, pos))
    for _ in range(2):
        assert semisimple_factors(direct_sum([v, v])) == [((1, lam), 2)]
    assert sum(1 for a, b in solves if a is v and b is v) == 1


def test_cached_modules_are_unchanged_by_classify(capsys, monkeypatch):
    # a datum of its own: the session fixtures share their caches across tests
    datum = make_datum("E")
    n = datum.n
    keys = [(l, w) for l in range(1, n + 1) for w in datum.weights_in_class(l)]
    simples = {(l, w): simple(datum, l, w) for l, w in keys}
    covers = {(l, w): homology.projective_of_simple(datum, l, w) for l, w in keys if l < n}
    monkeypatch.setattr(cli, "_load_datum", lambda path: datum)
    assert cli.main(["classify", "E.json", "--max-t", "1", "--max-s", "1", "--etas", "1"]) == 0
    assert capsys.readouterr().out.endswith("manifest ok\n")
    fresh = make_datum("E")
    for (l, w), mod in simples.items():
        assert simple(datum, l, w) is mod
        _assert_same_module(mod, simple(fresh, l, w))
    for (l, w), mod in covers.items():
        assert homology.projective_of_simple(datum, l, w) is mod
        _assert_same_module(mod, projective(fresh, l, w))


def _assert_same_module(mod, ref):
    assert mod.weights == ref.weights and mod.labels == ref.labels
    for m, r in ((mod.act_x, ref.act_x), (mod.act_xi, ref.act_xi)):
        assert m.rows == r.rows and m.nz_rows() == r.nz_rows()


# ---------------------------------------------------------------------------
# projective covers, injective hulls, syzygies


def _reference_cover(m):
    """Projective cover selected over the head built as a quotient module,
    its simples counted by ``semisimple_factors``."""
    datum = m.datum
    h, pi = homology.head(m)
    chosen = []
    span = Echelon(datum.N)
    for (l, w), mult in semisimple_factors(h):
        ps = homology.projective_of_simple(datum, l, w)
        taken = 0
        for f in homology.hom_space(ps, m):
            if taken == mult:
                break
            if [p for p in map(span.add, (pi * f).cols()) if p is not None]:
                chosen.append((ps, f))
                taken += 1
        assert taken == mult
    assert len(span.pivots) == h.dim
    return direct_sum([ps for ps, _ in chosen]), hstack([mat for _, mat in chosen])


def _reference_hull(m):
    """Injective hull selected by the rank of the stacked socle images."""
    datum = m.datum
    soc = homology.socle(m)
    inclusion = Mat.from_cols(datum.N, soc.rows, m.dim)
    chosen, stack, soc_rank = [], [], 0
    for (l, w), mult in semisimple_factors(soc.module):
        ps = homology.projective_of_simple(datum, l, w)
        taken = 0
        for g in homology.hom_space(m, ps):
            if taken == mult:
                break
            cand = g * inclusion
            r = rank(vstack(stack + [cand]))
            if r > soc_rank:
                stack.append(cand)
                soc_rank = r
                chosen.append((ps, g))
                taken += 1
        assert taken == mult
    assert soc_rank == soc.dim
    return direct_sum([ps for ps, _ in chosen]), vstack([mat for _, mat in chosen])


@pytest.mark.parametrize("key", ["A", "B", "C", "E", "D", "F", "R2", "H"])
def test_cover_and_hull_match_reference(key):
    # the hull reads the socle's dimension as the rank of the Hom(S, m) maps
    # and the reference as the dimension of the spun socle, also where a
    # simple occurs in the socle more than once (every datum's sums a (+) a)
    for m in _members_and_sums(key):
        cover, hull = homology.projective_cover_map(m), homology.injective_hull_map(m)
        assert cover.target is m and hull.source is m
        for p, f, (ref, ref_map) in ((cover.source, cover, _reference_cover(m)),
                                     (hull.target, hull, _reference_hull(m))):
            assert p.labels == ref.labels and p.weights == ref.weights, m.labels
            assert p.act_x == ref.act_x and p.act_xi == ref.act_xi, m.labels
            assert f.matrix == ref_map, m.labels


def test_syzygies_read_the_one_radical_or_socle_solve(monkeypatch):
    datum = make_datum("D")
    lam = first_weight(datum, 2)
    # a cover reads its head from the Hom(m, S) pass and a hull its socle from
    # the Hom(S, m) pass, each as the rank of the pass's maps: neither reads
    # rad m or soc m, so a syzygy spins only its kernel and a cosyzygy only
    # the image of m in the hull's target
    mods = [simple(datum, 2, lam), t_chain(datum, 2, lam, 2)]
    calls, spun = [], []
    schur_zero = homology._schur_zero
    monkeypatch.setattr(homology, "_schur_zero",
                        lambda m, into: calls.append(into) or schur_zero(m, into))
    for name in ("radical", "socle"):
        def counted(m, name=name, solve=getattr(homology, name)):
            calls.append(name)
            return solve(m)
        monkeypatch.setattr(homology, name, counted)
    spin = homology.spin_submodule
    monkeypatch.setattr(homology, "spin_submodule",
                        lambda mod, seeds: spun.append(mod) or spin(mod, seeds))
    for m in mods:
        for omega, into in ((homology.syzygy, False), (homology.cosyzygy, True)):
            calls.clear()
            spun.clear()
            dim = omega(m).dim
            assert dim and calls == [into], (omega.__name__, m.labels)
            # the one spin is inside P, of dim m + dim Omega m (or Omega^-1 m)
            assert [p.dim for p in spun] == [m.dim + dim], (omega.__name__, m.labels)


def test_projective_cover_builds_no_quotient_module(monkeypatch):
    # the head is read off the maps m -> S of the radical's Hom pass
    datum = make_datum("D")
    lam = first_weight(datum, 2)

    def refuse(*args):
        raise AssertionError("quotient_module called")
    monkeypatch.setattr(homology, "quotient_module", refuse)
    for m in (simple(datum, 2, lam), t_chain(datum, 2, lam, 2), projective(datum, 2, lam)):
        f = homology.projective_cover_map(m)
        assert f.target is m and f.is_valid() and rank(f.matrix) == m.dim


def test_cover_and_hull_of_a_non_module_raise(datum_b):
    # x and xi swap two vectors of one weight: no simple maps in or out
    w, one = first_weight(datum_b, 1), datum_b.one()
    swap = Mat(datum_b.N, [{1: one}, {0: one}], 2)
    m = ModuleRep(datum_b, [w, w], swap, swap, ["a", "b"])
    assert not m.verify_relations().ok
    with pytest.raises(DatumError, match="no simple quotients"):
        homology.projective_cover_map(m)
    with pytest.raises(DatumError, match="no simple submodules"):
        homology.injective_hull_map(m)
    # the check lives in the Hom pass, so the socle and the radical raise too
    with pytest.raises(DatumError, match="no simple submodules"):
        homology.socle(m)
    with pytest.raises(DatumError, match="no simple quotients"):
        homology.radical(m)


def test_cover_and_hull_of_simple(datum_b):
    lam = first_weight(datum_b, 1)
    v = simple(datum_b, 1, lam)
    f = homology.projective_cover_map(v)
    assert f.target is v and f.source.dim == 2 * datum_b.n
    assert f.matrix.nrows == v.dim and rank(f.matrix) == v.dim
    g = homology.injective_hull_map(v)
    assert g.source is v and g.target.dim == 2 * datum_b.n
    assert rank(g.matrix) == v.dim
    assert homology.syzygy(v).dim == f.source.dim - v.dim
    assert homology.cosyzygy(v).dim == g.target.dim - v.dim


def test_omega_kills_projectives(datum_b):
    lam = first_weight(datum_b, 1)
    p = projective(datum_b, 1, lam)
    assert homology.syzygy(p).dim == 0
    z = verma(datum_b, first_weight(datum_b, 2))  # projective simple
    assert homology.syzygy(z).dim == 0


def test_omega_power_types(datum_b):
    lam = first_weight(datum_b, 1)
    v = homology.omega_power(datum_b, 1, lam, 0)
    assert v.dim == 1
    for s in (1, 2):
        up = homology.omega_power(datum_b, 1, lam, s)
        lt = homology.loewy_type(up)
        assert (lt.s, lt.t) == (s + 1, s)
        lt = homology.loewy_type(homology.omega_power(datum_b, 1, lam, -s))
        assert (lt.s, lt.t) == (s, s + 1)
    assert homology.omega_power(datum_b, 1, lam, 1).dim == 2 * datum_b.n - 1
    with pytest.raises(DatumError):
        homology.omega_power(datum_b, datum_b.n, first_weight(datum_b, 2), 1)


# ---------------------------------------------------------------------------
# isomorphism certification


def test_is_isomorphic_yes_with_witness(datum_b):
    lam = first_weight(datum_b, 1)
    a = t1bar(datum_b, 1, lam)
    p = projective(datum_b, 1, lam)
    # spin the u-block of the nilpotent P: a copy of Tbar_1 whose
    # weight-sorted basis differs from the table's ordering
    one = datum_b.one()
    seeds = [{datum_b.n + j: one} for j in range(datum_b.n)]
    facts = spin_submodule(p, seeds)
    verdict = homology.is_isomorphic(a, facts.module)
    assert verdict.verdict == "yes"
    assert verdict.witness is not None
    assert verdict.witness.is_valid()
    assert rank(verdict.witness.matrix) == a.dim


def test_is_isomorphic_no_cases(datum_b):
    lam, mu = datum_b.weights_in_class(1)[:2]
    assert homology.is_isomorphic(simple(datum_b, 1, lam),
                                  simple(datum_b, 1, mu)).verdict == "no"
    assert homology.is_isomorphic(t1(datum_b, 1, lam),
                                  t1bar(datum_b, 1, lam)).verdict == "no"
    assert homology.is_isomorphic(band(datum_b, 1, lam, 1, 1),
                                  band(datum_b, 1, lam, 2, 1)).verdict == "no"
    assert homology.is_isomorphic(simple(datum_b, 1, lam),
                                  projective(datum_b, 1, lam)).verdict == "no"


def test_is_isomorphic_band_tau_shift(datum_b):
    lam = first_weight(datum_b, 1)
    a = band(datum_b, 1, lam, 2, 1)
    b = band(datum_b, 1, datum_b.tau(lam), 2, 1)
    assert homology.is_isomorphic(a, b).verdict == "yes"


def test_is_isomorphic_decomposable_pair(datum_b):
    lam, mu = datum_b.weights_in_class(1)[:2]
    v = simple(datum_b, 1, lam)
    w = simple(datum_b, 1, mu)
    s1 = direct_sum([v, w])
    s2 = direct_sum([w, v])
    assert homology.is_isomorphic(s1, s2).verdict == "yes"
    s3 = direct_sum([v, v])
    assert homology.is_isomorphic(s1, s3).verdict == "no"


def test_is_isomorphic_decides_sums_with_equal_hom_and_loewy_invariants(datum_b):
    # V (+) T_2(lam) and V (+) T_2(tau lam): equal Hom dimensions, Loewy
    # types, composition factors, socles and heads, and End is not local;
    # r(a, b) = 1 counts only the common summand V, against r(a, a) = 2
    lam = first_weight(datum_b, 1)
    v = simple(datum_b, 1, lam)
    a = direct_sum([v, t_chain(datum_b, 1, lam, 2)])
    b = direct_sum([v, t_chain(datum_b, 1, datum_b.tau(lam), 2)])
    la, lb = homology.loewy_structure(a), homology.loewy_structure(b)
    assert (la.type, la.socle, la.head) == (lb.type, lb.socle, lb.head)
    assert homology.composition_factors(a) == homology.composition_factors(b)
    verdict = homology.is_isomorphic(a, b)
    assert verdict.verdict == "no"
    assert verdict.reason == "trace pairing ranks: r(a,a) + r(b,b) = 4 != 2 r(a,b) = 2"


def test_witness_search_widens_its_range_and_never_gives_up(datum_a, monkeypatch):
    # V (+) P and P (+) V over A: End is not local, no basis map is
    # invertible, and combinations with coefficients in -3..3 are made
    # singular, so the first round of 64 draws fails
    lam = first_weight(datum_a, 1)
    v, p = simple(datum_a, 1, lam), projective(datum_a, 1, lam)
    a, b = direct_sum([v, p]), direct_sum([p, v])
    combine = homology._combination

    def singular_in_small_range(datum, coeffs, mats):
        mat = combine(datum, coeffs, mats)
        if max(map(abs, coeffs.values())) > 3:
            return mat
        return Mat.zeros(datum.N, mat.nrows, mat.ncols)

    monkeypatch.setattr(homology, "_combination", singular_in_small_range)
    verdict = homology.is_isomorphic(a, b)
    assert verdict.verdict == "yes"
    assert verdict.trials > len(homology.hom_space(a, b)) + 64
    assert verdict.witness.is_valid() and rank(verdict.witness.matrix) == a.dim
    # with every combination singular, the search stops once a draw would
    # fail with probability below 1/2, and blames the input
    monkeypatch.setattr(homology, "_combination",
                        lambda datum, coeffs, mats: Mat.zeros(datum.N, a.dim, a.dim))
    with pytest.raises(DatumError, match="inconsistent input"):
        homology.is_isomorphic(a, b)


# ---------------------------------------------------------------------------
# short exact sequences and AR candidates


def _split_sequence(datum):
    """0 -> V -> V (+) P -> P -> 0 by the inclusion and the projection."""
    lam = first_weight(datum, 1)
    v = simple(datum, 1, lam)
    p = projective(datum, 1, lam)
    s = direct_sum([v, p])
    N = datum.N
    one = datum.one()
    inc_cols = [{j: one} for j in range(v.dim)]
    f = homology.Morphism(v, s, Mat.from_cols(N, inc_cols, nrows=s.dim))
    proj_cols = [{j - v.dim: one} if j >= v.dim else {} for j in range(s.dim)]
    g = homology.Morphism(s, p, Mat.from_cols(N, proj_cols, nrows=p.dim))
    return f, g


def test_split_sequence_detected(datum_b):
    f, g = _split_sequence(datum_b)
    report = homology.ses_check(f, g)
    assert report.exact
    assert report.split
    assert not homology.ar_candidate_check(f, g).ar_ok


def test_split_sequence_json(datum_b):
    f, g = _split_sequence(datum_b)
    b, c = g.source, g.target
    report = homology.ses_check(f, g)
    out = report.to_json()
    assert list(out) == ["maps_ok", "f_injective", "g_surjective", "composite_zero",
                         "dims_match", "exact", "split", "section"]
    assert out["split"] is True
    assert out["section"]["shape"] == [b.dim, c.dim]
    assert [len(r) for r in out["section"]["matrix"]] == [c.dim] * b.dim
    section = report.section.matrix
    # the entries are scalar JSON, as in module files, so the section reads back
    read = Mat.from_rows(datum_b.N, [[CycScalar.from_json(x) for x in r]
                                     for r in json.loads(json.dumps(out))["section"]["matrix"]])
    assert read == section
    assert g.matrix * section == Mat.identity(datum_b.N, c.dim)


def test_non_exact_pair_reports_no_split_and_no_ar_verdict(datum_b):
    f, g = _split_sequence(datum_b)
    zero = homology.Morphism(f.source, f.target, Mat.zeros(datum_b.N, f.target.dim,
                                                           f.source.dim))
    for report in (homology.ses_check(zero, g), homology.ar_candidate_check(zero, g)):
        assert report.maps_ok and not report.f_injective and not report.exact
        out = report.to_json()
        assert out["exact"] is False
        assert "split" not in out and "ar_ok" not in out


def test_sequence_maps_must_compose(datum_b):
    _, g = _split_sequence(datum_b)
    for check in (homology.ses_check, homology.ar_candidate_check):
        with pytest.raises(DatumError, match="^morphisms are not composable$"):
            check(g, g)


def test_ses_candidate_none(datum_b, monkeypatch):
    lam, mu = datum_b.weights_in_class(1)[:2]
    v, w = simple(datum_b, 1, lam), simple(datum_b, 1, mu)
    # dimensions that do not add up
    assert homology.ses_candidate(v, [v], v) is None
    # dim B = dim A + dim C, but Hom(A, B) = 0
    assert not homology.hom_space(v, direct_sum([w, w]))
    assert homology.ses_candidate(v, [w, w], w) is None
    # three distinct simples: dim B = dim A + dim C and Hom(A, B) != 0, but
    # every injective f has cokernel V(1, mu) and Hom(V(1, mu), C) = 0, so
    # the search walks the whole schedule: one round of 64 draws at dim B = 2
    u = simple(datum_b, 1, datum_b.weights_in_class(1)[2])
    assert homology.hom_space(v, direct_sum([v, w]))
    draws = []
    schedule = homology._draws

    def counted(*args):
        for mat in schedule(*args):
            draws.append(mat)
            yield mat
    monkeypatch.setattr(homology, "_draws", counted)
    assert homology.ses_candidate(v, [v, w], u) is None
    assert len(draws) == 64


@pytest.mark.parametrize("lemma,datum_key,max_t", [
    ("4.5", "B", 1), ("4.5", "C", 1),
    ("4.9", "B", 2), ("4.10", "C", 2),
    ("4.20", "B", 2), ("4.28", "A", 2),
])
def test_ar_sequences(lemma, datum_key, max_t):
    from .conftest import make_datum
    d = make_datum(datum_key)
    seqs = homology.ar_sequences_for_lemma(d, lemma, max_t=max_t)
    assert seqs
    for name, a, mids, c in seqs:
        found = homology.ses_candidate(a, mids, c)
        assert found is not None, f"{name}: no exact sequence realized"
        f, g = found
        report = homology.ar_candidate_check(f, g)
        assert report.ar_ok, f"{name}: {report.to_json()}"
        assert report.radical_factors is True


@pytest.mark.parametrize("lemma,datum_key,same_ends", [("4.20", "E", True), ("4.9", "B", False)])
def test_ar_sequences_build_each_member_once(lemma, datum_key, same_ends):
    seqs = homology.ar_sequences_for_lemma(make_datum(datum_key), lemma, max_t=2)
    assert seqs and all((a is c) is same_ends for _, a, _, c in seqs)
    for (_, a1, mids1, c1), (_, a2, mids2, _) in zip(seqs[::2], seqs[1::2]):
        # t = 1 then t = 2 at one weight: C_1 and the top of B_1 come back
        assert mids2[0] is c1 and a2 is mids1[-1]


def test_lemma_4_5_walks_each_syzygy_once(monkeypatch):
    # a datum of its own, so no syzygy is memoized yet.  Over E at t <= 2 the
    # 14 sequences and the Omega^2 C of each translate check take 56 covers
    # and hulls; rebuilding every Omega^k V from its simple took 128
    datum = make_datum("E")
    calls = []
    cover_map = homology._cover_map
    monkeypatch.setattr(homology, "_cover_map",
                        lambda m, cover: calls.append(m) or cover_map(m, cover))
    seqs = homology.ar_sequences_for_lemma(datum, "4.5", max_t=2)
    assert len(seqs) == 14
    for name, a, _, c in seqs:
        omega2 = homology.omega(c, 2)
        if name.startswith("4.5(2)"):
            # Omega^(t+2) V is two steps past Omega^t V on one memoized walk
            assert omega2 is a, name
    assert len(calls) == 56


def test_end_radical_is_the_trace_form_radical(monkeypatch):
    # a datum of its own, so no End radical is memoized yet
    datum = make_datum("C")
    lam = first_weight(datum, 1)
    grams = []
    gram = homology._trace_gram
    monkeypatch.setattr(homology, "_trace_gram", lambda fs, gs: grams.append(fs) or gram(fs, gs))
    for m, solved in ((simple(datum, 1, lam), 0), (projective(datum, 1, lam), 1),
                      (band(datum, 1, lam, 1, 3), 1), (band(datum, 1, lam, 1, 1), 0)):
        grams.clear()
        local = homology.end_local_dim(m)
        rad = homology.end_radical(m)
        # one Gram matrix gives both; a multiplicity-free module (the simple
        # and M_1) has End read off its weight graph, with none
        assert len(grams) == solved
        assert (homology._weight_graph(m) is None) == solved
        ends = homology.hom_space(m, m)
        assert local == homology.pairing_rank(ends, ends)
        assert len(rad) == len(ends) - local
        if rad:
            assert rank(homology._flattened(datum.N, rad)) == len(rad)
        for r in rad:
            assert intertwines(r, m, m)
            assert all(not frobenius_pair(r, e) for e in ends)
            power = r
            for _ in range(m.dim - 1):
                power = power * r
            assert power.is_zero()


def test_ar_check_requires_the_radical_to_factor_through_g(datum_c):
    # over C, M_2 -> M_4 -> M_2 is exact, non-split, with local ends and
    # M_2 = Omega^2 M_2, yet not almost split: the almost-split sequence that
    # ends in M_2 has middle term M_1 (+) M_3
    lam = first_weight(datum_c, 1)
    m = {t: band(datum_c, 1, lam, 1, t) for t in (1, 2, 3, 4)}
    for mids, almost_split in (([m[4]], False), ([m[1], m[3]], True)):
        f, g = homology.ses_candidate(m[2], mids, m[2])
        report = homology.ar_candidate_check(f, g)
        assert report.exact and report.split is False
        assert (report.left_end_local, report.right_end_local, report.translate_verdict) == (
            1, 1, "yes")
        assert report.radical_factors is almost_split
        assert report.ar_ok is almost_split
        assert report.to_json()["radical_factors_through_g"] is almost_split


def test_ar_lemma_kind_guards(datum_a, datum_b):
    with pytest.raises(DatumError):
        homology.ar_sequences_for_lemma(datum_b, "4.28", max_t=1)
    with pytest.raises(DatumError):
        homology.ar_sequences_for_lemma(datum_a, "4.20", max_t=1)
    with pytest.raises(DatumError):
        homology.ar_sequences_for_lemma(datum_b, "9.99", max_t=1)


# ---------------------------------------------------------------------------
# family recognition


def test_match_family_tags(datum_b, datum_a):
    lam = first_weight(datum_b, 1)
    assert homology.match_family(simple(datum_b, 1, lam)).startswith("V(")
    assert homology.match_family(projective(datum_b, 1, lam)).startswith("P(")
    assert homology.match_family(t_chain(datum_b, 1, lam, 2)).startswith("T_2(")
    assert homology.match_family(band(datum_b, 1, lam, 2, 1)).startswith("M_1(")
    omega2 = homology.omega_power(datum_b, 1, lam, 2)
    tag = homology.match_family(omega2, max_s=3)
    assert tag is not None and "Omega" in tag
    lam_a = first_weight(datum_a, 1)
    wtag = homology.match_family(w_band(datum_a, 1, lam_a, 2, 1))
    assert wtag is not None and wtag.startswith("W_1(")
    # a decomposable module matches nothing
    v = simple(datum_b, 1, lam)
    assert homology.match_family(direct_sum([v, v])) is None


def test_zero_module(datum_b):
    z = homology.zero_module(datum_b)
    assert z.dim == 0
    assert z.verify_relations().ok
    # its projective cover and injective hull are zero
    f = homology.projective_cover_map(z)
    g = homology.injective_hull_map(z)
    assert f.source.dim == g.target.dim == 0
    assert (f.target, g.source) == (z, z)
    assert f.matrix.nrows == f.matrix.ncols == g.matrix.nrows == g.matrix.ncols == 0
