"""Exact scalars in cyclotomic fields Q(zeta_N).

An element is stored in the power basis 1, z, ..., z^(phi(N)-1) of
Q(zeta_N), z = primitive N-th root of unity, as one vector of integer
numerators over one positive denominator:

    x = (num[0] + num[1]*z + ... + num[phi-1]*z^(phi-1)) / den

The form is canonical: gcd(den, *num) == 1 and zero is 0/1.  So two scalars
of one order are equal exactly when their numerators and denominators are,
and a zero test looks at the numerators only.  This is the nf_elem layout of
ANTIC (W. Hart, "ANTIC: Algebraic Number Theory In C", 2015).

A product is an integer convolution whose terms z^k, k >= phi, are folded
back with the power-basis rows of z^k (reduction modulo the N-th cyclotomic
polynomial), followed by one gcd.  The inverse of an irrational x is the
product of its Galois conjugates sigma_k(x), z -> z^k for the units k != 1
mod N, divided by the rational norm x * prod sigma_k(x).  The matrices of a
module are built from a few structure constants, so the same values recur:
every sum, difference, negation, product and inverse is one lookup in a memo
keyed by the canonical forms of its operands, each bounded by the one size
``MEMO_SIZE``.  A hit returns the scalar built on the miss, so a recurring
value is one shared object.

Every operation works in one field: arithmetic and equality take two scalars
of one order.  A scalar of another order raises ValueError, and an operand of
another type is not a scalar (``x + 1`` raises TypeError, ``x == 1`` is
False).  Values are brought to the datum's order where they are read, with
``to_order``, so a scalar hashes as its order and canonical form.  No
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

# a scalar is printed through str(int), which the interpreter refuses beyond
# MAX_DIGITS decimal digits (its default limit), so from 10**MAX_DIGITS up
MAX_DIGITS = 4300
_UNPRINTABLE = 10 ** MAX_DIGITS
# the largest decimal exponent a scalar's text may carry, checked before
# Fraction("1e9999999") computes 10**9999999, which the digit limit does not
# bound: 10**MAX_EXPONENT is the largest power of ten that prints
MAX_EXPONENT = MAX_DIGITS - 1
# |G| <= 1000, so at most 10^6 weights; a scalar read from a file has an
# order dividing the exponent of G, so none above this either
MAX_GROUP_ORDER = 1000


def parse_fraction(text: str) -> Fraction:
    """``Fraction(text)``; ValueError for a decimal exponent beyond
    ``MAX_EXPONENT`` or a numerator or denominator beyond ``MAX_DIGITS``
    digits, which could not be printed."""
    exp = text.lower().partition("e")[2].strip().replace("_", "")
    if exp.lstrip("+-").isdecimal() and abs(int(exp)) > MAX_EXPONENT:
        raise ValueError(f"decimal exponent beyond {MAX_EXPONENT}")
    value = Fraction(text)
    if max(abs(value.numerator), value.denominator) >= _UNPRINTABLE:
        raise ValueError(f"numerator or denominator beyond {MAX_DIGITS} digits")
    return value


def _poly_divide_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic; division is exact by construction
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for j in range(dd + 1):
                num[k + j] -= c * den[j]
    assert all(v == 0 for v in num[: dd]), "non-exact cyclotomic division"
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first, monic."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divide_exact(num, cyclotomic_poly(d))
    return tuple(num)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _power_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row k = power-basis coordinates of z^k, for 0 <= k < n + phi(n)."""
    phi = euler_phi(n)
    top = cyclotomic_poly(n)  # monic
    rows: list[tuple[int, ...]] = []
    for k in range(phi):
        rows.append(tuple(1 if j == k else 0 for j in range(phi)))
    for k in range(phi, n + phi):
        prev = rows[k - 1]
        shifted = [0] + list(prev[: phi - 1])
        lead = prev[phi - 1]
        if lead:
            for j in range(phi):
                shifted[j] -= lead * top[j]
        rows.append(tuple(shifted))
    return tuple(rows)


@lru_cache(maxsize=None)
def _sparse_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """_power_rows(n) with each row kept as its nonzero (column, value) pairs."""
    return tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in _power_rows(n))


@lru_cache(maxsize=None)
def _units(n: int) -> tuple[int, ...]:
    """The units k != 1 modulo n: sigma_k, z -> z^k, are the nontrivial automorphisms."""
    return tuple(k for k in range(2, n) if gcd(k, n) == 1)


def _mul_num(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Power-basis coordinates of a*b for integer coordinate vectors a, b of Q(zeta_n)."""
    phi = len(a)
    nzb = [(j, y) for j, y in enumerate(b) if y]
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in nzb:
                conv[i + j] += x * y
    out = conv[:phi]
    rows = _sparse_rows(n)
    for k in range(phi, 2 * phi - 1):
        c = conv[k]
        if c:
            for j, v in rows[k]:
                out[j] += c * v
    return out


def _substitute(n: int, a: tuple[int, ...], k: int) -> list[int]:
    """Coordinates in Q(zeta_n) of sum a[i] z^(ik mod n), folded into the power basis."""
    rows = _sparse_rows(n)
    out = [0] * euler_phi(n)
    for i, c in enumerate(a):
        if c:
            for j, v in rows[i * k % n]:
                out[j] += c * v
    return out


def _make(order: int, num: tuple[int, ...], den: int) -> CycScalar:
    """Scalar from a numerator and denominator already in canonical form."""
    x = object.__new__(CycScalar)
    _set_order(x, order)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _canon(order: int, num: list[int], den: int) -> CycScalar:
    """Scalar num/den for den > 0, divided through by gcd(den, *num)."""
    g = gcd(den, *num)
    if g != 1:
        return _make(order, tuple([c // g for c in num]), den // g)
    return _make(order, tuple(num), den)


# Entries kept by each of the scalar memos.  Keys are canonical forms at one
# order, so equal values always hit; the bound keeps memory flat when
# coefficients grow.
MEMO_SIZE = 4096


@lru_cache(maxsize=MEMO_SIZE)
def _sum(n: int, a: tuple[int, ...], da: int, b: tuple[int, ...], db: int,
         sign: int) -> CycScalar:
    """The scalar a/da + sign * b/db of Q(zeta_n), for sign = 1 or -1."""
    if da == db:
        return _canon(n, [x + sign * y for x, y in zip(a, b)], da)
    mb = sign * da
    return _canon(n, [x * db + y * mb for x, y in zip(a, b)], da * db)


@lru_cache(maxsize=MEMO_SIZE)
def _negate(n: int, num: tuple[int, ...], den: int) -> CycScalar:
    """The scalar -num/den of Q(zeta_n); negation keeps the form canonical."""
    return _make(n, tuple([-c for c in num]), den)


@lru_cache(maxsize=MEMO_SIZE)
def _product(n: int, a: tuple[int, ...], da: int, b: tuple[int, ...], db: int) -> CycScalar:
    """The scalar (a/da) * (b/db) of Q(zeta_n), for canonical numerators and denominators."""
    return _canon(n, _mul_num(n, a, b), da * db)


@lru_cache(maxsize=MEMO_SIZE)
def _inverse(n: int, num: tuple[int, ...], den: int) -> CycScalar:
    """The scalar den/num of Q(zeta_n), for a nonzero num.  An irrational num
    times conj, the product of its Galois conjugates, is its norm: a rational
    integer r, so den/num = den * conj / r.  Such a num needs n >= 3, where
    Q(zeta_n) is totally imaginary, so r, a product of |sigma(num)|^2, is
    positive."""
    c = num[0]
    if not any(num[1:]):
        return _make(n, (den if c > 0 else -den,) + num[1:], abs(c))
    units = _units(n)
    conj = _substitute(n, num, units[0])
    for k in units[1:]:
        conj = _mul_num(n, conj, _substitute(n, num, k))
    norm = _mul_num(n, num, conj)
    assert not any(norm[1:]), "norm is not rational"
    r = norm[0]
    assert r > 0, "norm is not positive"
    return _canon(n, [den * v for v in conj], r)


class CycScalar:
    """Immutable exact element of Q(zeta_order)."""

    __slots__ = ("order", "num", "den")

    def __new__(cls, order: int, coeffs: tuple[Fraction, ...]):
        phi = euler_phi(order)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}, got {len(coeffs)}")
        coeffs = [Fraction(c) for c in coeffs]
        # coefficients in lowest terms over the lcm of their denominators: canonical
        den = lcm(*(c.denominator for c in coeffs))
        return _make(order, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors -------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(order: int = 1) -> CycScalar:
        return _make(order, (0,) * euler_phi(order), 1)

    @staticmethod
    @lru_cache(maxsize=None)
    def one(order: int = 1) -> CycScalar:
        return _make(order, (1,) + (0,) * (euler_phi(order) - 1), 1)

    @staticmethod
    def rational(value, order: int = 1) -> CycScalar:
        v = Fraction(value)
        return _make(order, (v.numerator,) + (0,) * (euler_phi(order) - 1), v.denominator)

    # -- basic predicates ---------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        num = self.num
        return self.den == 1 and num[0] == 1 and not any(num[1:])

    def __bool__(self) -> bool:
        return any(self.num)

    # -- coercion ------------------------------------------------------

    def to_order(self, n: int) -> CycScalar:
        """Rewrite in Q(zeta_n); requires order | n."""
        if n == self.order:
            return self
        if n % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into order {n}")
        return _canon(n, _substitute(n, self.num, n // self.order), self.den)

    def _foreign(self, o) -> bool:
        """True for an o that is no scalar (NotImplemented); raises for another order."""
        if type(o) is CycScalar and o.order != self.order:
            raise ValueError(f"scalars of orders {self.order} and {o.order} do not share a field")
        return type(o) is not CycScalar

    # -- arithmetic ----------------------------------------------------

    def _add(self, o, sign: int) -> CycScalar:
        """self + sign * o, for sign = 1 or -1."""
        if self._foreign(o):
            return NotImplemented
        return _sum(self.order, self.num, self.den, o.num, o.den, sign)

    def __add__(self, other) -> CycScalar:
        return self._add(other, 1)

    def __neg__(self) -> CycScalar:
        return _negate(self.order, self.num, self.den)

    def __sub__(self, other) -> CycScalar:
        return self._add(other, -1)

    def __mul__(self, o) -> CycScalar:
        if self._foreign(o):
            return NotImplemented
        return _product(self.order, self.num, self.den, o.num, o.den)

    def inv(self) -> CycScalar:
        if not any(self.num):
            raise ZeroDivisionError("division by zero scalar")
        return _inverse(self.order, self.num, self.den)

    def __truediv__(self, o) -> CycScalar:
        if self._foreign(o):
            return NotImplemented
        return self * o.inv()

    def __pow__(self, k: int) -> CycScalar:
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        result = CycScalar.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- equality, hashing ------------------------------------------------

    def __eq__(self, o) -> bool:
        if self._foreign(o):
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self) -> int:
        return hash((self.order, self.num, self.den))

    # -- presentation ---------------------------------------------------

    def __repr__(self) -> str:
        return f"CycScalar({self.order}, {self})"

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                mono = f"z{self.order}" if k == 1 else f"z{self.order}^{k}"
                if c == 1:
                    terms.append(mono)
                elif c == -1:
                    terms.append(f"-{mono}")
                else:
                    terms.append(f"{c}*{mono}")
        if not terms:
            return "0"
        s = terms[0]
        for t in terms[1:]:
            s += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return s

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [_frac_str(c) for c in self.coeffs],
        }

    @staticmethod
    def from_json(obj: dict) -> CycScalar:
        if not isinstance(obj, dict) or "order" not in obj or "coeffs" not in obj:
            raise ValueError("scalar JSON needs 'order' and 'coeffs'")
        order = obj["order"]
        if type(order) is not int or order < 1:
            raise ValueError(f"bad scalar order: {order!r}")
        if order > MAX_GROUP_ORDER:
            raise ValueError(f"scalar order {order} exceeds the group order bound "
                             f"{MAX_GROUP_ORDER}")
        if not isinstance(obj["coeffs"], list):
            raise ValueError(f"scalar coeffs must be a list, got {obj['coeffs']!r}")
        coeffs = tuple(parse_fraction(str(c)) for c in obj["coeffs"])
        return CycScalar(order, coeffs)


# slot setters: the one way to write a CycScalar's fields past __setattr__
_set_order, _set_num, _set_den = (vars(CycScalar)[f].__set__ for f in CycScalar.__slots__)


def _frac_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def root_of_unity(order: int, k: int = 1) -> CycScalar:
    """zeta_order^k as an exact scalar."""
    return _root(order, k % order)


@lru_cache(maxsize=None)
def _root(order: int, k: int) -> CycScalar:
    return _make(order, _power_rows(order)[k], 1)


def q_number(i: int, q: CycScalar) -> CycScalar:
    """(i)_q = 1 + q + ... + q^(i-1)."""
    if i < 0:
        raise ValueError(f"q-number index must be >= 0, got {i}")
    total = CycScalar.zero(q.order)
    power = CycScalar.one(q.order)
    for _ in range(i):
        total = total + power
        power = power * q
    return total


def q_factorial(i: int, q: CycScalar) -> CycScalar:
    """(i)!_q = (1)_q (2)_q ... (i)_q, with (0)!_q = 1."""
    if i < 0:
        raise ValueError(f"q-factorial index must be >= 0, got {i}")
    total = CycScalar.one(q.order)
    for j in range(1, i + 1):
        total = total * q_number(j, q)
    return total
