"""``is_isomorphic`` and ``spin_submodule`` against their earlier forms.

``reference.is_isomorphic`` decides every invariant, Hom dimension and the
pairing identity before it tries a basis map; the package returns at the
first invertible Hom(a, b) basis map and reads the identity only when there
is none.  Both must give the same verdict, reason, trial count and witness
on every pair of registry members with equal weights (equal invariant keys
among them) over A-F and R2, on basis-permuted copies of them, and on
V(+)P against P(+)V over A, whose witness is a seeded combination.
``reference.spin_submodule`` takes one ``matvec`` per basis row and
operator; the package takes one product per operator, and both must find
the same submodule, basis and action.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublerep import homology
from doublerep.constructors import FAMILIES, projective, simple
from doublerep.linalg import Mat
from doublerep.repmod import ModuleRep, direct_sum, spin_submodule

from . import reference
from .conftest import first_weight, make_datum
from .test_registry import ETAS

KEYS = ["A", "B", "C", "D", "E", "F", "R2"]


@lru_cache(maxsize=None)
def registry(key: str) -> tuple[ModuleRep, ...]:
    """Every registry member at max-t = max-s = 2 at the first two weights of
    each class, and the bands also at tau of the first, which they are
    isomorphic to."""
    d = make_datum(key)
    out = []
    for fam in FAMILIES.values():
        for l in fam.l_range(d):
            ws = d.weights_in_class(l)
            lams = [*ws[:2], d.tau(ws[0])] if fam.letter in ("M", "W") else ws[:2]
            for params in fam.grid(d, 2, 2, ETAS):
                out += (fam.build(d, l, lam, **params) for lam in lams)
    return tuple(out)


def permuted(m: ModuleRep, rnd: random.Random) -> ModuleRep:
    """m in its own basis taken in a random order: new vector k is old vector
    order[k], so every matrix has its rows and columns permuted alike."""
    order = list(range(m.dim))
    rnd.shuffle(order)
    at = {old: new for new, old in enumerate(order)}

    def conj(op: Mat) -> Mat:
        rows = op.nz_rows()
        return Mat(op.order, ({at[j]: x for j, x in rows[old].items()} for old in order), m.dim)

    return ModuleRep(m.datum, [m.weights[k] for k in order], conj(m.act_x), conj(m.act_xi),
                     [m.labels[k] for k in order])


def same_verdict(a: ModuleRep, b: ModuleRep, seed: int = 0) -> homology.IsoVerdict:
    got = homology.is_isomorphic(a, b, seed)
    want = reference.is_isomorphic(a, b, seed)
    assert tuple(got[:2]) + (got.trials,) == tuple(want[:2]) + (want.trials,), (a.labels, b.labels)
    if want.witness is None:
        assert got.witness is None
    else:
        assert got.witness.source is a and got.witness.target is b
        assert got.witness.matrix == want.witness.matrix
    return got


@pytest.mark.parametrize("key", KEYS)
def test_scan_matches_the_reference_on_registry_pairs(key):
    rnd = random.Random(key)
    # equal weights, so the pairs whose kernel dimensions differ are compared
    # too
    groups = {}
    for m in registry(key):
        groups.setdefault(m.weight_multiset(), []).append(m)
    reasons = set()
    for group in groups.values():
        mods = group + [permuted(m, rnd) for m in group]
        for i, a in enumerate(mods):
            for b in mods[i:]:
                reasons.add(same_verdict(a, b).reason.split(":")[0])
    assert "invertible intertwiner (trace pairing)" in reasons and len(reasons) > 1


def test_scan_matches_the_reference_on_a_seeded_combination():
    d = make_datum("A")
    lam = first_weight(d, 1)
    v, p = simple(d, 1, lam), projective(d, 1, lam)
    a, b = direct_sum([v, p]), direct_sum([p, v])
    for seed in range(4):
        verdict = same_verdict(a, b, seed)
        assert verdict.reason == "invertible intertwiner (seeded combination)"
        assert verdict.trials > len(homology.hom_space(a, b))


def test_ar_check_never_solves_the_translate_side(monkeypatch):
    # the invertible basis map of Hom(A, Omega^2 C) decides A = tau C, so
    # End(Omega^2 C) and Hom(Omega^2 C, A) are never eliminated
    d = make_datum("E")
    solved = []
    eliminate = homology._eliminate_homs
    monkeypatch.setattr(homology, "_eliminate_homs",
                        lambda a, b, pos: solved.append((a, b)) or eliminate(a, b, pos))
    ends = []
    for _, a, mids, c in homology.ar_sequences_for_lemma(d, "4.20", max_t=2, etas=(1, -1)):
        rep = homology.ar_candidate_check(*homology.ses_candidate(a, mids, c))
        assert rep.ar_ok and rep.translate_verdict == "yes"
        ends.append((a, homology.omega(c, 2)))
    assert len(ends) == 8 and solved
    for a, tau_c in ends:
        assert not [(x, y) for x, y in solved if x is tau_c and (y is tau_c or y is a)]


@lru_cache(maxsize=None)
def spin_pool(key: str) -> tuple[ModuleRep, ...]:
    """Registry members at the first weight of each class, at max-t = max-s = 1,
    and the sums of neighbouring ones."""
    d = make_datum(key)
    mods = [fam.build(d, l, first_weight(d, l), **params) for fam in FAMILIES.values()
            for l in fam.l_range(d) for params in fam.grid(d, 1, 1, ETAS)]
    return tuple(mods + [direct_sum(pair) for pair in zip(mods, mods[1:])])


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_product_spin_matches_the_matvec_spin(data):
    mods = spin_pool(data.draw(st.sampled_from(KEYS)))
    m = mods[data.draw(st.integers(0, len(mods) - 1))]
    entry = st.tuples(st.integers(0, m.dim - 1), st.integers(-2, 2).filter(bool))
    seeds = [{k: m.datum.scalar(c) for k, c in entries}
             for entries in data.draw(st.lists(st.lists(entry, max_size=4), min_size=1,
                                               max_size=3))]
    got, want = spin_submodule(m, seeds), reference.spin_submodule(m, seeds)
    assert got.ambient is want.ambient is m
    assert got.rows == want.rows and got.pivots == want.pivots
    assert got.module.weights == want.module.weights
    assert got.module.labels == want.module.labels
    assert got.module.act_x == want.module.act_x and got.module.act_xi == want.module.act_xi


def test_a_spin_keeps_no_negated_columns():
    # a spin reads x and xi of the module itself: it adds nothing to the
    # module's memo, and a Hom solve into the module, which keeps its
    # negated columns there, does not change what the same seeds spin
    d = make_datum("E")
    lam = first_weight(d, 1)
    p = projective(d, 1, lam)
    seeds = [{0: d.scalar(1)}]
    memo = dict(p._memo)
    first = spin_submodule(p, seeds)
    assert p._memo == memo
    assert homology.hom_space(simple(d, 1, lam), p)
    memo = dict(p._memo)
    again = spin_submodule(p, seeds)
    assert p._memo.keys() == memo.keys()
    assert again.rows == first.rows and again.pivots == first.pivots
    assert again.module.act_x == first.module.act_x
    assert again.module.act_xi == first.module.act_xi
