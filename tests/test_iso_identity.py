"""``is_isomorphic`` on direct sums, decided by the trace-pairing identity.

Random sums of two or three indecomposables (V at two weights, P, T_1,
Tbar_1, and the band M_1 at eta = 1, -1 and at tau lambda, which is
isomorphic to M_1 at lambda) over datums B and E.  A sum must be found
isomorphic, with a valid invertible witness, to its summands in shuffled
order under a random unipotent change of basis within the weight blocks;
it must be found not isomorphic once one summand is swapped for a
non-isomorphic member of the same dimension.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublerep import homology
from doublerep.constructors import band, projective, simple, t1, t1bar
from doublerep.linalg import Mat, rank
from doublerep.repmod import ModuleRep, direct_sum

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
