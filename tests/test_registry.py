"""The family registry's predictions hold on the members it describes: the
built module's dimension and Loewy type are the predicted ones, and
``match_family`` names the member by the family's own tag."""

import pytest

from doublerep import homology
from doublerep.constructors import FAMILIES

from .conftest import first_weight, make_datum

ETAS = ("1", "-1", "0", "inf")


def members(key):
    datum = make_datum(key)
    for fam in FAMILIES.values():
        for l in fam.l_range(datum):
            for params in fam.grid(datum, 2, 2, ETAS):
                yield datum, fam, l, first_weight(datum, l), params


@pytest.mark.parametrize("key", ["A", "B", "C", "E", "D", "F"])
def test_registry_predictions(key):
    seen = set()
    for datum, fam, l, lam, params in members(key):
        seen.add(fam.letter)
        mod = fam.build(datum, l, lam, **params)
        what = fam.tag.format(l=l, lam=lam.label(), **params)
        assert mod.dim == fam.dim(datum, l, **params), what
        lt = homology.loewy_type(mod)
        assert (lt.s, lt.t, lt.rl) == fam.loewy(datum, l, **params), what
        expected = what
        if fam.letter == "W" and params["eta"] in ("inf", "0"):
            # at m = 1, W_t(eta=inf) and W_t(eta=0) are T_t and Tbar_t, which
            # match_family tries first
            chain = FAMILIES["T" if params["eta"] == "inf" else "Tbar"]
            expected = chain.tag.format(l=l, lam=lam.label(), t=params["t"])
        assert homology.match_family(mod, max_t=2, max_s=2, etas=ETAS) == expected, what
    bands = {"W"} if make_datum(key).m == 1 else {"M"}
    assert seen == {"V", "P", "T", "Tbar", "Omega"} | bands
