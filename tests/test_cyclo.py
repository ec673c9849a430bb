"""Exact cyclotomic scalar arithmetic."""

import operator
from fractions import Fraction

import pytest

from doublerep.cyclo import (MAX_DIGITS, MAX_EXPONENT, CycScalar, cyclotomic_poly, euler_phi,
                             parse_fraction, q_factorial, q_number, root_of_unity)

from .reference import rational_value


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert euler_phi(1) == 1
    assert euler_phi(4) == 2
    assert euler_phi(9) == 6


def test_root_of_unity_powers():
    i = root_of_unity(4)
    assert i * i == CycScalar.rational(-1, 4)
    assert i ** 4 == CycScalar.one(4)
    assert i ** -1 == i ** 3
    z3 = root_of_unity(9, 3)  # a primitive cube root inside Q(zeta_9)
    assert z3 ** 3 == CycScalar.one(9)
    assert z3 * z3 + z3 + CycScalar.one(9) == CycScalar.zero(9)


def test_rational_detection_and_descent():
    i = root_of_unity(4)
    sq = i * i
    assert rational_value(sq) == Fraction(-1)
    assert rational_value(i) is None
    # a rational keeps its value in a larger ambient order
    assert CycScalar.one(2).to_order(4) == CycScalar.one(4)
    assert CycScalar.rational(Fraction(3, 2), 4) == CycScalar.rational(Fraction(3, 2), 2).to_order(4)


def test_field_operations():
    i = root_of_unity(4)
    x = CycScalar.one(4) + i
    assert x - i == CycScalar.one(4)
    assert (-x) + x == CycScalar.zero(4)
    assert x * x == CycScalar.rational(2, 4) * i
    assert x / x == CycScalar.one(4)
    inv = x.inv()
    assert x * inv == CycScalar.one(4)
    with pytest.raises(ZeroDivisionError):
        CycScalar.zero(4).inv()
    assert bool(i) and not bool(CycScalar.zero(4))


def test_mixed_orders_raise_value_error():
    z9 = root_of_unity(9)
    m1 = root_of_unity(2)  # -1 in Q(zeta_2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq,
               operator.ne):
        for x, y in ((z9, m1), (m1, z9)):
            with pytest.raises(ValueError, match="orders (9 and 2|2 and 9) do not share a field"):
                op(x, y)
    # brought to one order first, the product is defined
    assert z9.to_order(18) * m1.to_order(18) == (-z9).to_order(18)


def test_int_operand_raises_type_error():
    i = root_of_unity(4)
    for plain in (1, Fraction(1, 2)):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for x, y in ((i, plain), (plain, i)):
                with pytest.raises(TypeError):
                    op(x, y)
        assert i != plain and plain != i and not i == plain


def test_q_numbers():
    i = root_of_unity(4)
    assert q_number(1, i) == CycScalar.one(4)
    assert q_number(2, i) == CycScalar.one(4) + i
    assert q_number(4, i) == CycScalar.zero(4)
    one = CycScalar.one(4)
    assert q_factorial(2, i) == one + i
    assert q_factorial(3, i) == (one + i) * (one + i + i * i)


def test_hash_and_json_round_trip():
    i = root_of_unity(4)
    one, three = CycScalar.one(4), CycScalar.rational(3, 4)
    x = (one + i) / three
    assert hash(x) == hash((one + i) / three)
    back = CycScalar.from_json(x.to_json())
    assert back == x
    assert str(x)  # printable


def test_parse_fraction_bounds_the_decimal_exponent():
    assert parse_fraction(" -1.5E+2 ") == Fraction(-150)
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction(f"1e-{MAX_EXPONENT}") == Fraction(1, 10 ** MAX_EXPONENT)
    # the bound is checked before Fraction computes the power of ten
    for text in (f"1e{MAX_EXPONENT + 1}", "2.5e-50000000", "1e5_000_000_000"):
        with pytest.raises(ValueError, match="decimal exponent beyond"):
            parse_fraction(text)
    with pytest.raises(ValueError):
        parse_fraction("1e")


def test_parse_fraction_bounds_the_digits():
    # what parses prints: str(int) refuses more than MAX_DIGITS digits
    for text in (f"1e{MAX_EXPONENT}", f"-1e-{MAX_EXPONENT}", "9" * MAX_DIGITS):
        value = parse_fraction(text)
        assert str(value.numerator) and str(value.denominator)
    for text in (f"99.9e{MAX_EXPONENT}", f"-0.01e-{MAX_EXPONENT}"):
        with pytest.raises(ValueError, match=f"beyond {MAX_DIGITS} digits"):
            parse_fraction(text)
