"""Differential tests: CycScalar against a Fraction-polynomial reference.

The reference keeps an element as its tuple of Fraction power-basis
coefficients and multiplies by schoolbook convolution followed by long
division by the cyclotomic polynomial, so it shares no arithmetic with the
integer-numerator core under test.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublerep import cli, cyclo
from doublerep.cyclo import MEMO_SIZE, CycScalar, cyclotomic_poly, euler_phi

from .conftest import DATUM_JSON
from .reference import rational_value

ORDERS = (1, 2, 3, 4, 6, 8, 9, 12, 18)

coefficient = st.one_of(st.just(Fraction(0)),
                        st.fractions(min_value=-6, max_value=6, max_denominator=12))


@st.composite
def coeff_vectors(draw, order: int, count: int = 1):
    phi = euler_phi(order)
    return [tuple(draw(st.lists(coefficient, min_size=phi, max_size=phi)))
            for _ in range(count)]


@st.composite
def order_and_coeffs(draw, count: int = 1):
    order = draw(st.sampled_from(ORDERS))
    return order, draw(coeff_vectors(order, count))


# -- reference arithmetic ------------------------------------------------------


def ref_reduce(order: int, poly: list[Fraction]) -> tuple[Fraction, ...]:
    """Remainder of poly (constant term first) modulo Phi_order."""
    cyc = cyclotomic_poly(order)
    phi = len(cyc) - 1
    p = list(poly) + [Fraction(0)] * max(0, phi - len(poly))
    for k in range(len(p) - 1, phi - 1, -1):
        c = p[k]
        if c:
            for j, t in enumerate(cyc):
                p[k - phi + j] -= c * t
    return tuple(p[:phi])


def ref_mul(order: int, a, b) -> tuple[Fraction, ...]:
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return ref_reduce(order, conv)


def ref_str(order: int, coeffs) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c:
            mono = f"z{order}" + (f"^{k}" if k > 1 else "")
            body = str(abs(c)) if k == 0 else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
            parts.append((c < 0, body))
    if not parts:
        return "0"
    s = ("-" if parts[0][0] else "") + parts[0][1]
    for neg, body in parts[1:]:
        s += (" - " if neg else " + ") + body
    return s


def assert_canonical(x: CycScalar) -> None:
    assert len(x.num) == euler_phi(x.order)
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


# -- properties -----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(order_and_coeffs(count=2))
def test_ring_operations_match_reference(case):
    order, (a, b) = case
    x, y = CycScalar(order, a), CycScalar(order, b)
    assert x.coeffs == a
    assert str(x) == ref_str(order, a)
    for got, want in ((x + y, tuple(p + q for p, q in zip(a, b))),
                      (x - y, tuple(p - q for p, q in zip(a, b))),
                      (-x, tuple(-p for p in a)),
                      (x * y, ref_mul(order, a, b))):
        assert_canonical(got)
        assert got.order == order
        assert got.coeffs == want
        assert str(got) == ref_str(order, want)
        assert got == CycScalar(order, want)
        assert got.is_zero() == (not any(want)) == (not got)


@settings(max_examples=100, deadline=None)
@given(order_and_coeffs())
def test_inverse(case):
    order, (a,) = case
    x = CycScalar(order, a)
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.inv()
        return
    xi = x.inv()
    assert_canonical(xi)
    assert x * xi == CycScalar.one(order)
    assert (x * xi).is_one()
    assert xi.inv() == x


@settings(max_examples=100, deadline=None)
@given(order_and_coeffs(count=2), st.integers(min_value=2, max_value=4))
def test_equal_scalars_hash_equal(case, k):
    order, (a, b) = case
    x, y = CycScalar(order, a), CycScalar(order, b)
    # the same value reached by construction, by arithmetic and by embedding
    for u, v in ((x, CycScalar(order, a)), (x, (x + y) - y), (x, x * CycScalar.one(order)),
                 (x.to_order(k * order), CycScalar(k * order, x.to_order(k * order).coeffs))):
        assert_canonical(v)
        assert u == v and v == u and not u != v
        assert hash(u) == hash(v)
        assert {u: "a"}.get(v) == "a"
    # another order is another field: the comparison raises
    with pytest.raises(ValueError):
        x == x.to_order(k * order)
    # an int or Fraction is no scalar, whatever its value
    r = rational_value(x)
    if r is not None:
        assert x != r and {r: "a"}.get(x) is None


@settings(max_examples=100, deadline=None)
@given(order_and_coeffs())
def test_json_round_trip(case):
    order, (a,) = case
    x = CycScalar(order, a)
    back = CycScalar.from_json(x.to_json())
    assert back == x and back.order == order
    assert (back.num, back.den) == (x.num, x.den)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 9, 12])
def test_constructors_canonical(order):
    for x in (CycScalar.zero(order), CycScalar.one(order),
              CycScalar.rational(Fraction(-6, 4), order),
              CycScalar(order, (Fraction(0),) * euler_phi(order))):
        assert_canonical(x)
    assert CycScalar.zero(order) is CycScalar.zero(order)
    assert CycScalar(order, (Fraction(0),) * euler_phi(order)) == CycScalar.zero(order)


# -- the scalar memos ----------------------------------------------------------------

MEMOS = (cyclo._product, cyclo._sum, cyclo._negate, cyclo._inverse)


def assert_memo_results(order, a, b) -> None:
    """x * y, x + y, x - y, -x and x.inv() match the reference on a call that
    misses its memo and on a repeated call that hits it; the hit returns the
    scalar the miss built."""
    x, y = CycScalar(order, a), CycScalar(order, b)
    one = (Fraction(1),) + (Fraction(0),) * (euler_phi(order) - 1)
    for memo, call, check in (
            (cyclo._product, lambda: x * y, lambda got: got.coeffs == ref_mul(order, a, b)),
            (cyclo._sum, lambda: x + y,
             lambda got: got.coeffs == tuple(p + q for p, q in zip(a, b))),
            (cyclo._sum, lambda: x - y,
             lambda got: got.coeffs == tuple(p - q for p, q in zip(a, b))),
            (cyclo._negate, lambda: -x, lambda got: got.coeffs == tuple(-p for p in a)),
            (cyclo._inverse, x.inv, lambda got: ref_mul(order, a, got.coeffs) == one)):
        results = []
        for hit in (0, 1):
            before = memo.cache_info()
            got = call()
            after = memo.cache_info()
            assert (after.hits - before.hits, after.misses - before.misses) == (hit, 1 - hit)
            assert_canonical(got)
            assert check(got)
            results.append(got)
        assert results[1] is results[0]


@settings(max_examples=100, deadline=None)
@given(order_and_coeffs(count=2))
def test_memo_miss_and_hit_match_reference(case):
    order, (a, b) = case
    if not any(a):
        return
    for memo in MEMOS:
        memo.cache_clear()
    assert_memo_results(order, a, b)


@settings(max_examples=3, deadline=None)
@given(order_and_coeffs(count=2))
def test_memo_evicts_and_stays_bounded(case):
    order, (a, b) = case
    if not any(a):
        return
    x, y = CycScalar(order, a), CycScalar(order, b)
    x * y, x + y, x - y, -x, x.inv()
    # more than MEMO_SIZE distinct entries in each memo, none of them a drawn
    # one: a drawn numerator is at most 6 * lcm(1, ..., 12) < 10**6
    z = cyclo.root_of_unity(3)
    for k in range(10**6, 10**6 + MEMO_SIZE + 1):
        u = z + CycScalar.rational(k, 3)
        u * z, -u, u - z, u.inv()
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == MEMO_SIZE and info.currsize == MEMO_SIZE
    # the entries of x are gone: the next calls miss, then hit
    assert_memo_results(order, a, b)
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == MEMO_SIZE and info.currsize <= info.maxsize


def test_memos_hit_more_than_they_miss_on_ar_check(write_json, capsys):
    # the matrices of a module are built from a few structure constants, so
    # on a real run every scalar operation mostly finds its value memoized
    path = write_json("datum_E.json", DATUM_JSON["E"])
    for memo in MEMOS:
        memo.cache_clear()
    assert cli.main(["ar", "check", path, "--lemma", "4.20", "--max-t", "1"]) == 0
    capsys.readouterr()
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.hits > info.misses > 0, (memo.__name__, info)


# -- sympy oracle for the inverse -------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((9, 12)).flatmap(
    lambda n: st.tuples(st.just(n), coeff_vectors(n))))
def test_inverse_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    order, (a,) = case
    x = CycScalar(order, a)
    if not x:
        return
    z = sympy.symbols("z")
    f = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * z**k
                       for k, c in enumerate(a)), z, domain="QQ")
    g = sympy.Poly(sympy.cyclotomic_poly(order, z), z, domain="QQ")
    inv = f.invert(g).all_coeffs()[::-1]
    want = [Fraction(int(c.p), int(c.q)) for c in inv]
    want += [Fraction(0)] * (euler_phi(order) - len(want))
    assert x.inv().coeffs == tuple(want)
