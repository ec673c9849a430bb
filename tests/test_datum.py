"""Group datum validation, weight classification, and the twist maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublerep.datum import (NILPOTENT, NON_NILPOTENT, DatumError, FinAbGroup,
                             GroupChar, Weight, datum_from_json, validate_datum)

from . import reference
from .conftest import DATUM_JSON, INVALID_DATUM_JSON, make_datum


def test_group_basics():
    g = FinAbGroup((4, 6))
    assert g.size == 24
    assert g.exponent == 12
    assert g.rank == 2
    assert g.normalize((5, -1)) == (1, 5)
    assert g.inverse((1, 2)) == (3, 4)
    assert g.power((1, 1), 3) == (3, 3)
    assert g.element_order((2, 3)) == 2
    assert len(list(g.elements())) == 24


def test_datum_kinds_and_invariants():
    a = make_datum("A")
    assert (a.kind, a.n, a.m, a.N) == (NILPOTENT, 2, 1, 2)
    b = make_datum("B")
    assert (b.kind, b.n, b.m, b.N) == (NILPOTENT, 2, 2, 4)
    c = make_datum("C")
    assert (c.kind, c.n, c.m, c.N) == (NON_NILPOTENT, 2, 2, 4)
    e = make_datum("E")
    assert (e.kind, e.n, e.m, e.N) == (NON_NILPOTENT, 3, 3, 9)
    for d in (a, b, c, e):
        # rho = chi(a) has exact order n
        assert d.rho_power(d.n).is_one()
        assert all(not d.rho_power(k).is_one() for k in range(1, d.n))
    # non-nilpotent data carry alpha = 1 (rescaling if needed)
    assert c.alpha.is_one() and not c.alpha_normalized
    assert e.alpha.is_one() and not e.alpha_normalized
    rescaled = datum_from_json({"orders": [4], "chi": [2], "a": [1], "alpha": 3})
    assert rescaled.alpha.is_one() and rescaled.alpha_normalized


def test_alpha_zero_on_a_power_is_nilpotent_even_with_alpha_set():
    # a^n = identity makes alpha*(a^n - 1) vanish regardless of alpha
    d = datum_from_json({"orders": [4], "chi": [1], "a": [1], "alpha": 1})
    assert d.kind == NILPOTENT
    assert d.n == 4


def test_invalid_datum_reports_both_witnesses():
    with pytest.raises(DatumError) as exc:
        datum_from_json(INVALID_DATUM_JSON)
    msg = str(exc.value)
    assert "a^n" in msg and "chi^n" in msg


def test_simple_counts_match_kernel_formula():
    expected = {"A": {1: 2, 2: 2}, "B": {1: 4, 2: 12}}
    for key in ("A", "B", "C", "E"):
        d = make_datum(key)
        counts = d.simple_counts()
        k = len(d.kernel_K())
        size2 = d.group.size ** 2
        assert all(counts[l] == k for l in range(1, d.n))
        assert counts[d.n] == size2 - (d.n - 1) * k
        assert sum(counts.values()) == size2 - (d.n - 1) * k + (d.n - 1) * k
        if key in expected:
            assert counts == expected[key]


def test_weight_enumeration_partitions():
    d = make_datum("B")
    weights = d.enumerate_weights()
    assert len(weights) == d.group.size ** 2
    assert len(set(weights)) == len(weights)
    tally = {}
    for w in weights:
        cls = d.classify_weight(w)
        assert 1 <= cls.l <= d.n
        tally[cls.l] = tally.get(cls.l, 0) + 1
    assert tally == d.simple_counts()
    for l in (1, 2):
        assert {w.label() for w in d.weights_in_class(l)} == {
            w.label() for w in weights if d.classify_weight(w).l == l}


def test_weight_class_branches():
    c = make_datum("C")
    branches = {c.classify_weight(w).branch for w in c.weights_in_class(c.n)}
    assert branches <= {"n_boundary", "n_generic"}
    assert "n_generic" in branches
    for w in c.weights_in_class(1):
        assert c.classify_weight(w).branch == "regular"
        assert c.classify_weight(w).d == 0


def test_twist_maps():
    for key in ("A", "B", "C", "E"):
        d = make_datum(key)
        for l in range(1, d.n):
            for lam in d.weights_in_class(l):
                s = d.sigma(lam)
                assert d.classify_weight(s).l == d.n - l
                assert d.sigma_inv(s) == lam
                assert d.sigma(d.sigma_inv(lam)) == lam
                assert d.tau(lam) == d.sigma(d.sigma(lam))
                assert d.tau(lam, d.m) == lam
                orbit = d.tau_orbit(lam)
                assert lam in orbit and len(orbit) <= d.m


def test_phi_weight_order():
    b = make_datum("B")
    assert b.phi_weight.order() == b.n * b.m
    a = make_datum("A")
    assert a.phi_weight.order() == a.n * a.m


def test_weight_serialization():
    d = make_datum("C")
    lam = d.weights_in_class(1)[2]
    assert lam.label().startswith("(")
    back = Weight.from_json(d.group, lam.to_json())
    assert back == lam
    dj = d.to_json()
    assert dj["orders"] == DATUM_JSON["C"]["orders"]
    assert dj["chi"] == DATUM_JSON["C"]["chi"]
    assert dj["a"] == DATUM_JSON["C"]["a"]
    assert datum_from_json(dj).describe() == d.describe()


def test_weight_normalizes_and_hashes_as_its_fields():
    g = FinAbGroup((9,))
    w, v = Weight(g, (10,), (-1,)), Weight(g, (1,), (8,))
    assert w == v
    assert hash(w) == hash(v) == hash((g, (1,), (8,)))
    with pytest.raises(AttributeError):
        w.gexps = (2,)


def test_kernel_definition():
    d = make_datum("B")
    for w in d.kernel_K():
        assert w.value_g(d.a) == w.value_gamma_exps(d.chi.exps)


def test_coefficient_domain_errors():
    d = make_datum("B")
    lam = d.weights_in_class(1)[0]
    with pytest.raises(DatumError):
        d.alpha_value(0, lam)
    with pytest.raises(DatumError):
        d.yz_coeff(d.n, lam)
    with pytest.raises(DatumError):
        d.alpha_coeff(1, 2, lam)  # lam is in class 1, not 2
    assert d.alpha_value(1, lam) == d.alpha_coeff(1, 1, lam)


def test_alpha_vanishing_at_class_index():
    for key in ("B", "C", "E"):
        d = make_datum(key)
        for l in range(1, d.n):
            lam = d.weights_in_class(l)[0]
            assert d.alpha_value(l, lam).is_zero()
            for i in range(1, l):
                assert not d.alpha_value(i, lam).is_zero()


def test_validate_datum_direct_call():
    g = FinAbGroup((4,))
    chi = GroupChar(g, (2,))
    d = validate_datum(g, chi, (1,), 0)
    assert d.kind == NILPOTENT and d.n == 2 and d.m == 2


def check_classes_against_reference(d):
    # n, the class of every weight, the classes I_l and K, against the
    # CycScalar search of tests/reference.py
    assert d.n == reference.rho_order(d.chi, d.a)
    weights, classes = d.enumerate_weights(), reference.weight_classes(d)
    assert [d.classify_weight(w) for w in weights] == classes
    for l in range(d.n + 2):
        assert d.weights_in_class(l) == [w for w, c in zip(weights, classes) if c.l == l]
    assert d.kernel_K() == reference.kernel(d) == d.weights_in_class(1)


@pytest.mark.parametrize("key", sorted(DATUM_JSON))
def test_classes_match_cyclotomic_search(key):
    check_classes_against_reference(make_datum(key))


@st.composite
def datum_fields(draw):
    orders = draw(st.lists(st.integers(1, 12), min_size=1, max_size=2))
    element = st.tuples(*(st.integers(0, d - 1) for d in orders))
    return orders, draw(element), draw(element), draw(st.sampled_from([0, 1, 2]))


@settings(max_examples=10, deadline=None)
@given(datum_fields())
def test_random_datum_classes_match_cyclotomic_search(fields):
    orders, chi, a, alpha = fields
    group = FinAbGroup(tuple(orders))
    try:
        d = validate_datum(group, GroupChar(group, chi), a, alpha)
    except DatumError as exc:
        # rejected only for rho = 1, or for alpha (a^n - 1) != 0 with chi^n != 1
        if reference.rho_order(GroupChar(group, chi), a) == 1:
            assert "n = 1" in str(exc)
        else:
            assert alpha and "chi^n != 1" in str(exc)
        return
    check_classes_against_reference(d)
