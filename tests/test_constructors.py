"""Contract tests for the module-family constructors.

Covers: relation soundness on small grids, the natural/standard basis change,
the worked examples from the action tables (kernel dimensions, special matrix
entries), the deliberately mis-normalized closing-edge coefficient as a
negative control, chain/band submodule structure, and family dispatch.
"""

import pytest

from doublerep.constructors import (FAMILIES, EtaParam, _put, band, build_family,
                                    projective, simple, t1, t1bar, t_chain,
                                    t_chain_bar, verma, w1, w_band)
from doublerep.cyclo import CycScalar, q_factorial, root_of_unity
from doublerep.datum import NILPOTENT, NON_NILPOTENT, DatumError
from doublerep.homology import is_isomorphic
from doublerep.linalg import Mat, rank
from doublerep.repmod import ModuleRep, intertwines, quotient_module, spin_submodule

from .conftest import first_weight, make_datum, sparse
from .reference import action, in_span, projective_table, rational_value


def unit_cols(datum, indices):
    return [{j: datum.one()} for j in indices]


def restriction_is_matrix_identical(big, small, window):
    """True when the coordinate window of big carries exactly small's action."""
    incl = Mat.from_cols(big.datum.N, unit_cols(big.datum, window), nrows=big.dim)
    return intertwines(incl, small, big)


# ---------------------------------------------------------------------------
# eta parameter


def test_eta_param():
    inf = EtaParam.of("inf")
    assert inf.is_inf
    two = EtaParam.of(2)
    assert not two.is_inf
    assert EtaParam.of(two) is two
    assert EtaParam.parse("inf").is_inf
    assert not EtaParam.parse("-1").is_inf
    assert EtaParam.of("2") == two and hash(EtaParam.of("2")) == hash(two)
    assert [str(e) for e in (inf, two, EtaParam.of("-1/2"))] == ["inf", "2", "-1/2"]
    with pytest.raises(AttributeError):
        two.value = None


def test_eta_domain_errors():
    b = make_datum("B")  # m = 2
    a = make_datum("A")  # m = 1
    lam_b = first_weight(b, 1)
    lam_a = first_weight(a, 1)
    with pytest.raises(DatumError):
        band(b, 1, lam_b, 0)  # band holonomy must be nonzero
    with pytest.raises(DatumError):
        band(b, 1, lam_b, "inf")  # and finite
    with pytest.raises(DatumError):
        band(a, 1, lam_a, 1)  # m = 1 has no band family
    with pytest.raises(DatumError):
        w_band(b, 1, lam_b, 1)  # m > 1 has no W family
    assert w_band(a, 1, lam_a, "inf").verify_relations().ok
    assert w_band(a, 1, lam_a, 0).verify_relations().ok


def test_eta_outside_the_datum_field_is_a_datum_error(datum_c):
    # zeta_5 does not lie in Q(zeta_4): rejected where the datum reads it
    lam = first_weight(datum_c, 1)
    with pytest.raises(DatumError, match=r"^scalar of order 5 does not lie in Q\(zeta_4\)$"):
        band(datum_c, 1, lam, root_of_unity(5))
    assert band(datum_c, 1, lam, root_of_unity(4)).verify_relations().ok


# ---------------------------------------------------------------------------
# relation soundness (small grid; the full acceptance grid re-runs this wider)


@pytest.mark.parametrize("key", ["A", "B", "C"])
def test_relations_small_grid(key):
    d = make_datum(key)
    n = d.n
    for lam in d.enumerate_weights():
        assert verma(d, lam).verify_relations().ok
        l = d.classify_weight(lam).l
        assert simple(d, l, lam).verify_relations().ok
        assert simple(d, l, lam, "standard").verify_relations().ok
    for l in range(1, n):
        for lam in d.weights_in_class(l)[:2]:
            assert projective(d, l, lam).verify_relations().ok
            for t in (1, 2):
                assert t_chain(d, l, lam, t).verify_relations().ok
                assert t_chain_bar(d, l, lam, t).verify_relations().ok
                if d.m > 1:
                    for eta in (1, -1, 2):
                        assert band(d, l, lam, eta, t).verify_relations().ok
                else:
                    for eta in (1, -1, 2, 0, "inf"):
                        assert w_band(d, l, lam, eta, t).verify_relations().ok


# ---------------------------------------------------------------------------
# simple modules


def test_simple_basis_change_is_asserted_internally():
    # simple(..., "standard") raises if the diagonal change of basis fails to
    # intertwine the two tables; run it across every class of each datum.
    for key in ("A", "B", "C", "E"):
        d = make_datum(key)
        for l in range(1, d.n + 1):
            for lam in d.weights_in_class(l)[:3]:
                nat = simple(d, l, lam)
                std = simple(d, l, lam, "standard")
                assert nat.dim == std.dim == l
                assert sorted(nat.weight_multiset()) == sorted(std.weight_multiset())


def test_simple_l1_acts_by_zero(datum_b):
    lam = first_weight(datum_b, 1)
    v = simple(datum_b, 1, lam)
    assert v.act_x.is_zero() and v.act_xi.is_zero()
    assert v.group_element_matrix(datum_b.a)[0, 0] == lam.value_g(datum_b.a)


def test_simple_xi_invariants_is_bottom_vector():
    for key in ("B", "C", "E"):
        d = make_datum(key)
        for l in range(2, d.n + 1):
            lam = d.weights_in_class(l)[0]
            for basis in ("natural", "standard"):
                v = simple(d, l, lam, basis)
                ker = v.xi_kernel()
                assert len(ker) == 1
                assert list(ker[0]) == [0]


def test_simple_top_entry_non_nilpotent_case(datum_c):
    # l = n = 2 weight with lam(a) = i: x m_{n-1} = ((lam(a)^2 - 1)/beta) m_0
    i_val = datum_c.one()
    lam = None
    for w in datum_c.weights_in_class(2):
        val = w.value_g(datum_c.a)
        if rational_value(val) is None and datum_c.classify_weight(w).branch == "n_generic":
            lam = w
            i_val = val
            break
    assert lam is not None
    std = simple(datum_c, 2, lam, "standard")
    beta = datum_c.beta_coeff(2, lam)
    expected = (i_val * i_val - datum_c.one()) * beta.inv()
    assert std.act_x[0, 1] == expected
    assert not expected.is_zero()
    nat = simple(datum_c, 2, lam)
    assert nat.act_x[0, 1] == i_val * i_val - datum_c.one()


# ---------------------------------------------------------------------------
# verma modules


def test_verma_equals_simple_on_top_class():
    for key in ("A", "B", "C", "E"):
        d = make_datum(key)
        for lam in d.weights_in_class(d.n)[:3]:
            assert action(verma(d, lam)) == action(simple(d, d.n, lam))


def test_verma_x_nilpotent_on_nilpotent_datum():
    for key in ("A", "B"):
        d = make_datum(key)
        for lam in d.enumerate_weights():
            z = verma(d, lam)
            power = z.act_x
            for _ in range(d.n - 1):
                power = power * z.act_x
            assert power.is_zero()


def test_verma_unique_submodule(datum_b):
    from doublerep import homology
    for l in range(1, datum_b.n):
        lam = first_weight(datum_b, l)
        z = verma(datum_b, lam)
        d_val = datum_b.classify_weight(lam).d
        facts = spin_submodule(z, [{d_val + 1: datum_b.one()}])
        assert facts.dim == datum_b.n - l
        soc = homology.socle(z)
        assert soc.rows == facts.rows
        assert len(homology.composition_factors(z)) == 2


# ---------------------------------------------------------------------------
# projective covers: table examples


def test_projective_nilpotent_xi_sends_vl_to_u_last(datum_b):
    n = datum_b.n
    for l in range(1, n):
        lam = first_weight(datum_b, l)
        p = projective(datum_b, l, lam)
        col = [r[l] for r in p.act_xi.rows]
        assert col[n + n - 1].is_one()
        assert sum(0 if c.is_zero() else 1 for c in col) == 1


def test_projective_non_nilpotent_x_kernel():
    for key, ls in (("C", [1]), ("E", [1, 2])):
        d = make_datum(key)
        n = d.n
        for l in ls:
            lam = first_weight(d, l)
            p = projective(d, l, lam)
            # x u_{l-1} = 0
            assert all(r[n + l - 1].is_zero() for r in p.act_x.rows)
            # P^x = span{u_{l-1}, u_{n-1} - z_{l,lam} v_{n-l-1}}
            _, z = d.yz_coeff(l, lam)
            ker = p.x_kernel()
            assert len(ker) == 2
            e2 = [CycScalar.zero(d.N)] * p.dim
            e2[n + n - 1] = d.one()
            e2[n - l - 1] = -z
            assert in_span(ker, {n + l - 1: d.one()}, d.N)
            assert in_span(ker, sparse(e2), d.N)


def test_projective_rejects_top_class(datum_b):
    lam = first_weight(datum_b, 2)
    with pytest.raises(DatumError):
        projective(datum_b, 2, lam)


STANDING = ["A", "B", "C", "D", "E", "F", "H", "R2"]


@pytest.mark.parametrize("key", STANDING)
def test_projective_equals_the_reference_table(key):
    # the two glued segments reproduce the action tables entry for entry
    d = make_datum(key)
    for l in range(1, d.n):
        for lam in d.weights_in_class(l):
            p, ref = projective(d, l, lam), projective_table(d, l, lam)
            assert (action(p), p.labels) == (action(ref), ref.labels), (l, lam.label())


@pytest.mark.parametrize("key", STANDING)
def test_projective_is_an_extension_of_two_t1_strings(key):
    # the u_i span Tbar_1(l, lambda) (T_1 on a non-nilpotent datum) and the
    # quotient by it is Tbar_1(n-l, sigma lambda) (T_1(n-l, sigma^-1 lambda))
    d = make_datum(key)
    n, nil = d.n, d.kind == NILPOTENT
    chain = t_chain_bar if nil else t_chain
    for l in range(1, n):
        for lam in d.weights_in_class(l):
            p = projective(d, l, lam)
            sub = spin_submodule(p, unit_cols(d, range(n, 2 * n)))
            assert sub.module.dim == n
            assert is_isomorphic(sub.module, chain(d, l, lam, 1)).verdict == "yes"
            quo, _ = quotient_module(p, sub)
            mu = d.sigma(lam) if nil else d.sigma_inv(lam)
            assert is_isomorphic(quo, chain(d, n - l, mu, 1)).verdict == "yes", (l, lam.label())


# ---------------------------------------------------------------------------
# negative control: closing-edge coefficient with its subscript read literally


def literal_closing_misread(d, l, lam):
    """Non-nilpotent projective with the closing coefficient built from the
    basis index n-1 instead of the class index l."""
    assert d.kind == NON_NILPOTENT
    p = projective(d, l, lam)
    la = lam.value_g(d.a)
    lchi = lam.value_gamma_exps(d.chi.exps)
    denom = q_factorial(d.n - 1, d.rho)
    lit = d.n - 1
    y_lit = (d.rho_power(1 - lit) * la - d.rho_power(lit) * lchi) * denom.inv()
    x_cols = p.act_x.cols()
    col = [r[d.n - 1] for r in p.act_x.rows]
    col[0] = y_lit
    x_cols[d.n - 1] = sparse(col)
    bad_x = Mat.from_cols(d.N, x_cols, nrows=p.dim)
    return ModuleRep(d, p.weights, bad_x, p.act_xi, p.labels), y_lit


def test_literal_subscript_misread_fails_where_visible(datum_c, datum_e):
    # at l = n-1 the literal and normalized subscripts coincide
    for d, l in ((datum_c, 1), (datum_e, 2)):
        lam = first_weight(d, l)
        mod, y_lit = literal_closing_misread(d, l, lam)
        y, _ = d.yz_coeff(l, lam)
        assert y_lit == y
        assert mod.verify_relations().ok
    # at l = 1 < n-1 the misread produces a non-module
    lam = first_weight(datum_e, 1)
    mod, y_lit = literal_closing_misread(datum_e, 1, lam)
    y, _ = datum_e.yz_coeff(1, lam)
    assert y_lit != y
    report = mod.verify_relations()
    assert not report.ok
    assert report.failures()


# ---------------------------------------------------------------------------
# restrictions of P: t1 / t1bar / w1


def test_t1_families_are_verified_restrictions():
    for key in ("A", "B", "C", "E"):
        d = make_datum(key)
        for l in range(1, d.n):
            lam = d.weights_in_class(l)[1 % len(d.weights_in_class(l))]
            m1 = t1(d, l, lam)
            assert action(m1) == action(t_chain(d, l, lam, 1))
            m2 = t1bar(d, l, lam)
            assert action(m2) == action(t_chain_bar(d, l, lam, 1))
            assert m1.dim == m2.dim == d.n
            if d.m == 1:
                for eta in ("inf", 0, 2):
                    w = w1(d, l, lam, eta)
                    assert action(w) == action(w_band(d, l, lam, eta, 1))


def test_w1_x_invariants_dimension(datum_a):
    lam = first_weight(datum_a, 1)
    assert len(w1(datum_a, 1, lam, 2).x_kernel()) == 1
    assert len(w1(datum_a, 1, lam, 0).x_kernel()) == 1
    assert len(w1(datum_a, 1, lam, "inf").x_kernel()) == 2


# ---------------------------------------------------------------------------
# chain and band submodule structure


def test_t_chain_submodule_chain(datum_b):
    from doublerep import homology
    n = datum_b.n
    t = 3
    for l in range(1, n):
        lam = first_weight(datum_b, l)
        big = t_chain(datum_b, l, lam, t)
        for j in (1, 2):
            window = list(range((t - j) * n, t * n))
            seeds = unit_cols(datum_b, window)
            facts = spin_submodule(big, seeds)
            assert facts.dim == j * n
            small = t_chain(datum_b, l, lam, j)
            assert restriction_is_matrix_identical(big, small, window)
            q, _ = quotient_module(big, facts)
            expect = t_chain(datum_b, l, datum_b.tau(lam, -j), t - j)
            assert homology.is_isomorphic(q, expect).verdict == "yes"


def test_t_chain_bar_submodule_chain(datum_b):
    from doublerep import homology
    n = datum_b.n
    t = 3
    for l in range(1, n):
        lam = first_weight(datum_b, l)
        big = t_chain_bar(datum_b, l, lam, t)
        for j in (1, 2):
            window = list(range(j * n))
            seeds = unit_cols(datum_b, window)
            facts = spin_submodule(big, seeds)
            assert facts.dim == j * n
            small = t_chain_bar(datum_b, l, lam, j)
            assert restriction_is_matrix_identical(big, small, window)
            q, _ = quotient_module(big, facts)
            expect = t_chain_bar(datum_b, l, datum_b.tau(lam, j), t - j)
            assert homology.is_isomorphic(q, expect).verdict == "yes"


def test_band_t1_matches_band_m1(datum_b, datum_c):
    for d in (datum_b, datum_c):
        lam = first_weight(d, 1)
        assert (action(build_family(d, "band_m1", 1, lam, eta=2))
                == action(build_family(d, "band_mt", 1, lam, t=1, eta=2)))


def test_band_unique_inner_band(datum_b):
    from doublerep import homology
    lam = first_weight(datum_b, 1)
    eta = 2
    m2 = band(datum_b, 1, lam, eta, 2)
    m1 = band(datum_b, 1, lam, eta, 1)
    homs = homology.hom_space(m1, m2)
    injective = [f for f in homs if rank(f) == m1.dim]
    assert injective, "no embedded copy of the smaller band"
    # all embeddings share one image: the unique inner band submodule
    spans = set()
    for f in injective:
        facts = spin_submodule(m2, f.cols())
        spans.add(tuple(tuple(r.items()) for r in facts.rows))
    assert len(spans) == 1
    facts = spin_submodule(m2, injective[0].cols())
    assert facts.dim == m1.dim
    assert homology.is_isomorphic(facts.module, m1).verdict == "yes"
    q, _ = quotient_module(m2, facts)
    assert homology.is_isomorphic(q, m1).verdict == "yes"
    lt = homology.loewy_type(facts.module)
    assert (lt.s, lt.t) == (datum_b.m, datum_b.m)


def test_w_band_submodule_chain(datum_a):
    from doublerep import homology
    n = datum_a.n
    lam = first_weight(datum_a, 1)
    for eta in (2, "inf"):
        big = w_band(datum_a, 1, lam, eta, 3)
        for j in (1, 2):
            small = w_band(datum_a, 1, lam, eta, j)
            homs = homology.hom_space(small, big)
            injective = [f for f in homs if rank(f) == small.dim]
            assert injective
            facts = spin_submodule(big, injective[0].cols())
            assert facts.dim == j * n
            q, _ = quotient_module(big, facts)
            expect = w_band(datum_a, 1, lam, eta, 3 - j)
            assert homology.is_isomorphic(q, expect).verdict == "yes"


def test_soc_and_head_formulas(datum_b):
    from doublerep import homology
    n = datum_b.n
    lam = first_weight(datum_b, 1)
    slam = datum_b.sigma(lam)

    def ms(pairs):
        out = {}
        for l, w in pairs:
            key = (l, w.label())
            out[key] = out.get(key, 0) + 1
        return sorted((l, label, m) for (l, label), m in out.items())

    def as_triples(factors):
        return sorted((l, w.label(), mult) for (l, w), mult in factors)

    t2 = homology.loewy_structure(t_chain(datum_b, 1, lam, 2))
    assert as_triples(t2.socle) == ms(
        [(1, lam), (1, datum_b.tau(lam, -1))])
    assert as_triples(t2.head) == ms(
        [(n - 1, slam), (n - 1, datum_b.tau(slam, -1))])
    tbar2 = t_chain_bar(datum_b, 1, lam, 2)
    assert as_triples(homology.loewy_structure(tbar2).socle) == ms(
        [(1, lam), (1, datum_b.tau(lam))])
    m1 = band(datum_b, 1, lam, 2, 1)
    assert as_triples(homology.loewy_structure(m1).socle) == ms(
        [(1, datum_b.tau(lam, k)) for k in range(datum_b.m)])
    lt = homology.loewy_type(m1)
    assert (lt.s, lt.t) == (datum_b.m, datum_b.m)


def test_w_band_soc_head(datum_a):
    from doublerep import homology
    lam = first_weight(datum_a, 1)
    slam = datum_a.sigma(lam)

    for eta in (0, 2, "inf"):
        w2 = w_band(datum_a, 1, lam, eta, 2)
        loewy = homology.loewy_structure(w2)
        assert loewy.socle == [((1, lam), 2)]
        assert loewy.head == [((datum_a.n - 1, slam), 2)]
        lt = homology.loewy_type(w2)
        assert (lt.s, lt.t) == (2, 2)


# ---------------------------------------------------------------------------
# dispatcher


def test_build_family_dispatch(datum_b, datum_a):
    lam = first_weight(datum_b, 1)
    lam_n = first_weight(datum_b, 2)
    assert build_family(datum_b, "verma", None, lam_n).dim == datum_b.n
    assert build_family(datum_b, "simple", 2, lam_n, basis="standard").dim == 2
    assert build_family(datum_b, "projective", 1, lam).dim == 2 * datum_b.n
    assert build_family(datum_b, "string_tt", 1, lam, t=3).dim == 3 * datum_b.n
    assert build_family(datum_b, "string_ttbar", 1, lam, t=2).dim == 2 * datum_b.n
    assert build_family(datum_b, "band_mt", 1, lam, t=2, eta=1).dim == 2 * 2 * datum_b.n
    lam_a = first_weight(datum_a, 1)
    assert build_family(datum_a, "w_t", 1, lam_a, t=2, eta="inf").dim == 2 * datum_a.n
    with pytest.raises(DatumError):
        build_family(datum_b, "nosuch", 1, lam)
    with pytest.raises(DatumError):
        build_family(datum_b, "band_m1", 1, lam)  # eta missing
    with pytest.raises(DatumError):
        build_family(datum_b, "verma", 2, lam)  # class mismatch
    with pytest.raises(DatumError):
        build_family(datum_b, "omega", 1, lam)


@pytest.mark.parametrize("build,key,what", [
    (lambda d, lam, t: t_chain(d, 1, lam, t), "B", "chain"),
    (lambda d, lam, t: t_chain_bar(d, 1, lam, t), "B", "chain"),
    (lambda d, lam, t: band(d, 1, lam, 1, t), "B", "band"),
    (lambda d, lam, t: w_band(d, 1, lam, 1, t), "A", "band"),
])
def test_lengths_below_one_are_rejected(build, key, what):
    datum = make_datum(key)
    with pytest.raises(DatumError, match=rf"^{what} length t=0 must be >= 1$"):
        build(datum, first_weight(datum, 1), 0)


# ---------------------------------------------------------------------------
# stored matrices: what every builder, spin and quotient hands to ModuleRep


def _assert_stored_entries(mod, what):
    """x and xi are dim x dim and store only nonzero scalars at the datum's
    order, each inside the matrix."""
    dim, N = mod.dim, mod.datum.N
    for m in (mod.act_x, mod.act_xi):
        assert (m.nrows, m.ncols) == (dim, dim), what
        for row in m.nz_rows():
            for j, x in row.items():
                assert 0 <= j < dim and x and x.order == N, what


@pytest.mark.parametrize("key", ["A", "B", "C", "D", "E", "F"])
def test_builders_store_nonzero_entries_at_the_datum_order(key):
    datum = make_datum(key)
    one = datum.one()
    built = [(f"verma {l}", verma(datum, first_weight(datum, l)))
             for l in range(1, datum.n + 1)]
    built += [(f"standard V {l}", simple(datum, l, first_weight(datum, l), "standard"))
              for l in range(1, datum.n + 1)]
    for fam in FAMILIES.values():
        for l in fam.l_range(datum):
            for params in fam.grid(datum, 2, 1, ("1", "-1", "0", "inf")):
                built.append((f"{fam.letter} {l} {params}",
                              fam.build(datum, l, first_weight(datum, l), **params)))
    proper = 0
    for what, mod in built:
        # the spin of the last basis vector, and the quotient by it
        sub = spin_submodule(mod, [{mod.dim - 1: one}])
        quot, _ = quotient_module(mod, sub)
        for m, part in ((mod, ""), (sub.module, " spin"), (quot, " quotient")):
            _assert_stored_entries(m, what + part)
        proper += 0 < sub.dim < mod.dim
    assert proper > len(built) // 2


def test_entry_outside_the_matrix_is_an_error(datum_b):
    rows = [{}, {}]
    for i, j in ((2, 0), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(DatumError, match=rf"entry \({i},{j}\) outside dimension 2"):
            _put(rows, i, j, datum_b.one())
    _put(rows, 1, 0, CycScalar.zero(datum_b.N))
    assert rows == [{}, {}]
