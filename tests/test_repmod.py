"""ModuleRep mechanics: relation checking, serialization, spin, quotients."""

import itertools

import pytest

from doublerep.constructors import projective, simple, verma
from doublerep.datum import DatumError
from doublerep.linalg import Mat
from doublerep.repmod import (ModuleRep, direct_sum, matrices_equal,
                              quotient_module, spin_submodule)

from .conftest import first_weight


def intertwines(big: ModuleRep, small: ModuleRep, incl: Mat) -> bool:
    pairs = [(big.act_x, small.act_x), (big.act_xi, small.act_xi)]
    pairs += list(zip(big.act_group, small.act_group))
    pairs += list(zip(big.act_gamma, small.act_gamma))
    return all(b * incl == incl * s for b, s in pairs)


def test_relations_hold_and_report_shape(datum_b):
    lam = first_weight(datum_b, 1)
    mod = simple(datum_b, 1, lam)
    report = mod.verify_relations()
    assert report.ok
    assert report.failures() == []
    assert "ok" in report.summary() or report.summary()


def test_relation_failure_detected(datum_b):
    lam = first_weight(datum_b, 1)
    p = projective(datum_b, 1, lam)
    bad_x = p.act_x + Mat.identity(datum_b.N, p.dim)
    bad = ModuleRep(datum_b, p.act_group, p.act_gamma, bad_x, p.act_xi,
                    p.labels, p.weights)
    report = bad.verify_relations()
    assert not report.ok
    assert report.failures()


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
    diag, change = p.as_weight_diagonal()
    assert matrices_equal(diag, p)
    assert change == Mat.identity(datum_b.N, p.dim)
    # strip the weight tags and re-derive them from the group action
    untagged = ModuleRep(datum_b, p.act_group, p.act_gamma, p.act_x, p.act_xi)
    rediag, basis = untagged.as_weight_diagonal()
    assert rediag.weights is not None
    assert sorted(rediag.weight_multiset()) == sorted(p.weight_multiset())
    assert p.act_x * basis == basis * rediag.act_x


def test_json_round_trip(datum_c):
    lam = first_weight(datum_c, 1)
    p = projective(datum_c, 1, lam)
    back = ModuleRep.from_json(p.to_json())
    assert matrices_equal(back, p)
    assert back.labels == p.labels
    assert back.weights == p.weights
    assert back.verify_relations().ok


def test_spin_submodule_of_verma(datum_b):
    lam = first_weight(datum_b, 1)  # d(lam) = 0, submodule generated by x^1
    z = verma(datum_b, lam)
    one = datum_b.one()
    zero = datum_b.zero()
    seed = [zero] * z.dim
    seed[1] = one
    facts = spin_submodule(z, [seed])
    assert facts.dim == z.dim - 1
    assert facts.module.verify_relations().ok
    assert intertwines(z, facts.module, facts.inclusion)


def test_spin_submodule_does_not_depend_on_seed_order(datum_e):
    p = projective(datum_e, 1, first_weight(datum_e, 1))
    kx, kxi = p.x_kernel(), p.xi_kernel()
    # the last seed mixes weights, so it is split before it is echelonized
    seeds = kx + kxi + [tuple(a + b for a, b in zip(kx[0], kxi[-1]))]
    ref = spin_submodule(p, seeds)
    assert ref.module.verify_relations().ok
    for perm in itertools.permutations(seeds):
        facts = spin_submodule(p, list(perm))
        assert facts.rows == ref.rows
        assert facts.pivots == ref.pivots


def test_quotient_module(datum_b):
    lam = first_weight(datum_b, 1)
    z = verma(datum_b, lam)
    one = datum_b.one()
    zero = datum_b.zero()
    seed = [zero] * z.dim
    seed[1] = one
    facts = spin_submodule(z, [seed])
    q, proj = quotient_module(z, facts)
    assert q.dim == z.dim - facts.dim
    assert q.verify_relations().ok
    pairs = [(z.act_x, q.act_x), (z.act_xi, q.act_xi)]
    pairs += list(zip(z.act_group, q.act_group))
    pairs += list(zip(z.act_gamma, q.act_gamma))
    assert all(proj * b == s * proj for b, s in pairs)


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
        assert all(c.is_zero() for c in p.act_x.matvec(vec))
    for vec in p.xi_kernel():
        assert all(c.is_zero() for c in p.act_xi.matvec(vec))


def test_dimension_mismatch_rejected(datum_b):
    lam = first_weight(datum_b, 1)
    v = simple(datum_b, 1, lam)
    with pytest.raises(DatumError):
        ModuleRep(datum_b, v.act_group, v.act_gamma,
                  Mat.zeros(datum_b.N, 2, 2), v.act_xi)
