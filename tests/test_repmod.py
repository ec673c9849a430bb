"""ModuleRep mechanics: relation checking, serialization, spin, quotients."""

import itertools

import pytest

from doublerep import homology
from doublerep.cyclo import CycScalar, root_of_unity
from doublerep.constructors import projective, simple, verma
from doublerep.datum import DatumError
from doublerep.linalg import Mat
from doublerep.repmod import (ModuleRep, _mat_pow, direct_sum, intertwines,
                              quotient_module, spin_submodule)

from .conftest import conjugated_json, first_weight, upper_ones
from .reference import action


def test_relations_hold_and_report_shape(datum_b):
    lam = first_weight(datum_b, 1)
    mod = simple(datum_b, 1, lam)
    report = mod.verify_relations()
    assert report.ok
    assert report.failures() == []


def test_relation_failure_detected(datum_b):
    lam = first_weight(datum_b, 1)
    p = projective(datum_b, 1, lam)
    bad_x = p.act_x + Mat.identity(datum_b.N, p.dim)
    bad = ModuleRep(datum_b, p.weights, bad_x, p.act_xi, p.labels)
    report = bad.verify_relations()
    assert not report.ok
    assert report.failures()


@pytest.mark.parametrize("k", range(1, 18))
def test_mat_pow_matches_repeated_products(k, monkeypatch):
    # a 3x3 matrix over Q(zeta_9) that is neither nilpotent nor of finite order
    z, one = root_of_unity(9), CycScalar.one(9)
    m = Mat.from_rows(9, [[z, one, CycScalar.zero(9)],
                          [one + one, CycScalar.zero(9), z * z],
                          [one, z, one]])
    expected = m
    for _ in range(k - 1):
        expected = expected * m
    products = []
    mul = Mat.__mul__
    monkeypatch.setattr(Mat, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    assert _mat_pow(m, k) == expected
    # one squaring per bit below the top one and one product per further set bit
    assert len(products) == (k.bit_length() - 1) + (bin(k).count("1") - 1)


def test_group_action_is_diagonal_in_weights(datum_b):
    lam = first_weight(datum_b, 1)
    z = verma(datum_b, lam)
    ga = z.group_element_matrix(datum_b.a)
    for i, w in enumerate(z.weights):
        assert ga[i, i] == w.value_g(datum_b.a)
    cm = z.char_matrix(datum_b.chi.exps)
    for i, w in enumerate(z.weights):
        assert cm[i, i] == w.value_gamma_exps(datum_b.chi.exps)


def test_weight_bookkeeping(datum_b):
    lam = first_weight(datum_b, 1)
    p = projective(datum_b, 1, lam)
    assert len(p.weight_multiset()) == p.dim
    spaces = p.weight_spaces()
    assert sum(len(ix) for ix in spaces.values()) == p.dim
    # a file in a basis of non-weight vectors: the loader re-derives the
    # tags from the group action and changes to a weight basis
    q = ModuleRep.from_json(conjugated_json(p, upper_ones(datum_b, p.dim)))
    assert q.weight_multiset() == p.weight_multiset()
    assert list(q.weights) == sorted(q.weights, key=lambda w: w.sort_key())
    assert q.verify_relations().ok
    assert homology.is_isomorphic(p, q).verdict == "yes"


def test_json_round_trip(datum_c):
    lam = first_weight(datum_c, 1)
    p = projective(datum_c, 1, lam)
    back = ModuleRep.from_json(p.to_json())
    assert action(back) == action(p)
    assert back.labels == p.labels
    assert back.weights == p.weights
    assert back.verify_relations().ok


def test_json_parses_each_distinct_entry_once(datum_e, monkeypatch):
    m = projective(datum_e, 1, first_weight(datum_e, 1))
    doc = m.to_json()
    mats = doc["matrices"]
    entries = [e for mat in (*mats["group"], *mats["gamma"], mats["x"], mats["xi"])
               for row in mat for e in row]
    parse = CycScalar.from_json
    parsed = []
    monkeypatch.setattr(CycScalar, "from_json",
                        staticmethod(lambda obj: parsed.append(1) or parse(obj)))
    back = ModuleRep.from_json(doc)
    assert action(back) == action(m)
    # one more parse reads the datum's alpha
    assert len(parsed) - 1 == len({repr(e) for e in entries}) < len(entries) // 10


def test_spin_submodule_of_verma(datum_b):
    lam = first_weight(datum_b, 1)  # d(lam) = 0, submodule generated by x^1
    z = verma(datum_b, lam)
    facts = spin_submodule(z, [{1: datum_b.one()}])
    assert facts.dim == z.dim - 1
    assert facts.module.verify_relations().ok
    # the inclusion, whose columns are the one stored basis ``rows``, is a module map
    assert intertwines(Mat.from_cols(datum_b.N, facts.rows, z.dim), facts.module, z)


def test_spin_submodule_does_not_depend_on_seed_order(datum_e):
    p = projective(datum_e, 1, first_weight(datum_e, 1))
    kx, kxi = p.x_kernel(), p.xi_kernel()
    # the last seed mixes weights, so it is split before it is echelonized
    mixed = Mat.from_cols(p.datum.N, [kx[0]], p.dim) + Mat.from_cols(p.datum.N, [kxi[-1]], p.dim)
    seeds = kx + kxi + mixed.cols()
    ref = spin_submodule(p, seeds)
    assert ref.module.verify_relations().ok
    for perm in itertools.permutations(seeds):
        facts = spin_submodule(p, list(perm))
        assert facts.rows == ref.rows
        assert facts.pivots == ref.pivots


def test_quotient_module(datum_b):
    lam = first_weight(datum_b, 1)
    z = verma(datum_b, lam)
    facts = spin_submodule(z, [{1: datum_b.one()}])
    q, proj = quotient_module(z, facts)
    assert q.dim == z.dim - facts.dim
    assert q.verify_relations().ok
    assert intertwines(proj, z, q)


def test_direct_sum(datum_b):
    lam = first_weight(datum_b, 1)
    v = simple(datum_b, 1, lam)
    p = projective(datum_b, 1, lam)
    s = direct_sum([v, p])
    assert s.dim == v.dim + p.dim
    assert s.verify_relations().ok
    assert sorted(s.weight_multiset()) == sorted(v.weight_multiset() + p.weight_multiset())


def test_kernel_helpers(datum_c):
    lam = first_weight(datum_c, 1)
    p = projective(datum_c, 1, lam)
    assert len(p.x_kernel()) == 2  # P^x is two-dimensional in the non-nilpotent table
    for vec in p.x_kernel():
        assert p.act_x.matvec(vec) == {}
    for vec in p.xi_kernel():
        assert p.act_xi.matvec(vec) == {}


def test_dimension_mismatch_rejected(datum_b):
    lam = first_weight(datum_b, 1)
    v = simple(datum_b, 1, lam)
    with pytest.raises(DatumError):
        ModuleRep(datum_b, v.weights, Mat.zeros(datum_b.N, 2, 2), v.act_xi)
