"""``is_isomorphic`` on direct sums, decided by the trace-pairing identity.

Random sums of two or three indecomposables (V at two weights, P, T_1,
Tbar_1, and the band M_1 at eta = 1, -1 and at tau lambda, which is
isomorphic to M_1 at lambda) over datums B and E.  A sum must be found
isomorphic, with a valid invertible witness, to its summands in shuffled
order under a random unipotent change of basis within the weight blocks;
it must be found not isomorphic once one summand is swapped for a
non-isomorphic member of the same dimension.

Pairs of modules with local End algebras get the verdict, reason, trial
count and witness of the direct scan over pairs of basis maps
(``reference.local_iso_verdict``), and every yes witness is re-verified,
whichever way it was found.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublerep import homology
from doublerep.constructors import FAMILIES, band, projective, simple, t1, t1bar
from doublerep.datum import DatumError
from doublerep.linalg import Mat, rank
from doublerep.repmod import ModuleRep, direct_sum, spin_submodule

from . import reference
from .conftest import conjugated_json, make_datum


@lru_cache(maxsize=None)
def pool(key: str) -> list[tuple[str, object]]:
    """(isomorphism class, module) for each member."""
    d = make_datum(key)
    lam, mu = d.weights_in_class(1)[:2]
    return [("V(lam)", simple(d, 1, lam)), ("V(mu)", simple(d, 1, mu)),
            ("P", projective(d, 1, lam)), ("T_1", t1(d, 1, lam)), ("Tbar_1", t1bar(d, 1, lam)),
            ("M_1(1)", band(d, 1, lam, 1, 1)), ("M_1(-1)", band(d, 1, lam, -1, 1)),
            ("M_1(1)", band(d, 1, d.tau(lam), 1, 1))]


def unipotent_in_weight_blocks(mod: ModuleRep, rnd) -> Mat:
    """The identity plus random small integers above the diagonal, on the
    index pairs of equal weight only."""
    d, w = mod.datum, mod.weights
    rows = [{i: d.one()} for i in range(mod.dim)]
    for i in range(mod.dim):
        for j in range(i + 1, mod.dim):
            c = rnd.randint(-2, 2)
            if w[i] == w[j] and c:
                rows[i][j] = d.scalar(c)
    return Mat(d.N, rows, mod.dim)


@pytest.mark.parametrize("key", ["B", "E"])
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_identity_decides_sums(key, data):
    members = pool(key)
    picks = data.draw(st.lists(st.integers(0, len(members) - 1), min_size=2, max_size=3))
    rnd = data.draw(st.randoms(use_true_random=False))
    a = direct_sum([members[k][1] for k in picks])
    shuffled = direct_sum([members[k][1] for k in rnd.sample(picks, len(picks))])
    b = ModuleRep.from_json(conjugated_json(shuffled, unipotent_in_weight_blocks(shuffled, rnd)))

    verdict = homology.is_isomorphic(a, b, seed=rnd.randint(0, 99))
    assert verdict.verdict == "yes", verdict.reason
    assert verdict.witness.is_valid()
    assert rank(verdict.witness.matrix) == a.dim

    swaps = [(pos, k) for pos, p in enumerate(picks) for k, (cls, m) in enumerate(members)
             if m.dim == members[p][1].dim and cls != members[p][0]]
    if swaps:
        pos, k = data.draw(st.sampled_from(swaps))
        other = direct_sum([members[k if i == pos else p][1] for i, p in enumerate(picks)])
        assert homology.is_isomorphic(a, other).verdict == "no"


def respun(mod: ModuleRep) -> ModuleRep:
    """mod in the basis ``spin_submodule`` finds from the unit vectors taken
    in reverse order."""
    one = mod.datum.one()
    return spin_submodule(mod, [{i: one} for i in reversed(range(mod.dim))]).module


def local_pairs(key: str):
    """Pairs of registry members with local End algebras, at the first two
    weights of each class: each member against itself, a re-spun copy and,
    for bands, the band at tau lambda; and every two members with the same
    invariants."""
    d = make_datum(key)
    mods = []
    for fam in FAMILIES.values():
        for l in fam.l_range(d):
            for params in fam.grid(d, 2, 2, ("1", "-1", "0", "inf")):
                for lam in d.weights_in_class(l)[:2]:
                    m = fam.build(d, l, lam, **params)
                    if homology.end_local_dim(m) != 1:
                        continue
                    mods.append(m)
                    yield m, m
                    yield m, respun(m)
                    if fam.letter in ("M", "W"):
                        yield m, fam.build(d, l, d.tau(lam), **params)
    for i, a in enumerate(mods):
        for b in mods[i + 1:]:
            if homology.invariant_key(a) == homology.invariant_key(b):
                yield a, b


@pytest.mark.parametrize("key", ["A", "B", "C", "E", "D", "F"])
def test_local_verdicts_match_the_pairing_scan(key):
    seen = set()
    for a, b in local_pairs(key):
        verdict = homology.is_isomorphic(a, b)
        if verdict.reason.startswith("Hom-space dimensions are asymmetric"):
            continue
        assert tuple(verdict) == tuple(reference.local_iso_verdict(a, b)), (a.labels, b.labels)
        assert verdict.verdict == "no" or verdict.witness.is_valid()
        seen.add(verdict.verdict)
    assert "yes" in seen


def witness_case(path: str, monkeypatch):
    """A pair whose yes verdict is found by ``path``.  The sums of registry
    members tried over B and E have no invertible Hom basis map, so for the
    basis scan the first basis map of Hom(a, b) is replaced by the
    isomorphism the seeded search finds."""
    d = make_datum("B")
    lam, mu = d.weights_in_class(1)[:2]
    if path == "trace pairing":
        a = projective(d, 1, lam)
        return a, respun(a)
    a = direct_sum([simple(d, 1, lam), simple(d, 1, mu), t1(d, 1, lam)])
    b = direct_sum([t1(d, 1, lam), simple(d, 1, mu), simple(d, 1, lam)])
    if path == "basis scan":
        iso = homology.is_isomorphic(a, b).witness.matrix
        solve = homology.hom_space
        monkeypatch.setattr(homology, "hom_space", lambda x, y: (
            (iso,) + solve(x, y)[1:] if x is a and y is b else solve(x, y)))
    return a, b


@pytest.mark.parametrize("path", ["trace pairing", "basis scan", "seeded combination"])
def test_every_yes_witness_is_reverified(path, monkeypatch):
    a, b = witness_case(path, monkeypatch)
    verdict = homology.is_isomorphic(a, b)
    assert verdict.reason == f"invertible intertwiner ({path})"
    if path != "seeded combination":
        assert verdict.trials == (0 if path == "trace pairing" else 1)
    assert verdict.witness.is_valid()
    monkeypatch.setattr(homology.Morphism, "is_valid", lambda self: False)
    with pytest.raises(DatumError, match="not an intertwiner"):
        homology.is_isomorphic(a, b)
