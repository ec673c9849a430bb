"""Group data and weight combinatorics for rank-one double modules.

A datum is (G, chi, a, alpha): a finite abelian group given by cyclic
factor orders, a character chi of G, an element a, and a scalar alpha
subject to alpha*(a^n - 1) = 0 or chi^n = 1, where n is the order of
rho = chi(a).  Weights are characters of G x G-hat; the second factor is
recorded as a group element h via double duality.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from math import gcd, prod

from .cyclo import (MAX_GROUP_ORDER, CycScalar, parse_fraction, q_factorial, q_number,
                    root_of_unity)


class DatumError(ValueError):
    """Raised when a datum or weight fails validation."""


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


class FinAbGroup(namedtuple("FinAbGroup", "orders")):
    """Finite abelian group as a product of cyclic factors."""

    __slots__ = ()

    def __new__(cls, orders: tuple[int, ...]):
        if not orders or any(d < 1 for d in orders):
            raise DatumError(f"cyclic factor orders must be positive: {orders}")
        if (size := prod(orders)) > MAX_GROUP_ORDER:
            raise DatumError(f"group order {size} exceeds the bound |G| <= {MAX_GROUP_ORDER} "
                             f"(at most {MAX_GROUP_ORDER ** 2} weights)")
        return tuple.__new__(cls, (orders,))

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def size(self) -> int:
        return prod(self.orders)

    @property
    def exponent(self) -> int:
        return reduce(_lcm, self.orders, 1)

    def identity(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.orders)

    def generators(self) -> list[tuple[int, ...]]:
        """The standard generators, one per cyclic factor."""
        return [tuple(int(k == i) for k in range(self.rank)) for i in range(self.rank)]

    def normalize(self, g) -> tuple[int, ...]:
        g = tuple(int(v) for v in g)
        if len(g) != self.rank:
            raise DatumError(f"element {g} has wrong rank for orders {self.orders}")
        return tuple(v % d for v, d in zip(g, self.orders))

    def inverse(self, g) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(self.normalize(g), self.orders))

    def power(self, g, k: int) -> tuple[int, ...]:
        return tuple((x * k) % d for x, d in zip(self.normalize(g), self.orders))

    def element_order(self, g) -> int:
        g = self.normalize(g)
        return reduce(_lcm, (d // gcd(d, x) for x, d in zip(g, self.orders)), 1)

    def elements(self):
        return itertools.product(*(range(d) for d in self.orders))


def _char_exp(group: FinAbGroup, exps: tuple[int, ...], g) -> int:
    """The k mod N, the group exponent, with zeta_N^k the value at g of the
    character of ``group`` with exponents ``exps`` against the cyclic generators."""
    n = group.exponent
    return sum(e * x * (n // d) for e, x, d in zip(exps, group.normalize(g), group.orders)) % n


def _char_value(group: FinAbGroup, exps: tuple[int, ...], g) -> CycScalar:
    return root_of_unity(group.exponent, _char_exp(group, exps, g))


class GroupChar(namedtuple("GroupChar", "group exps")):
    """Character of a FinAbGroup, by exponents against the cyclic generators."""

    __slots__ = ()

    def __new__(cls, group: FinAbGroup, exps):
        return tuple.__new__(cls, (group, group.normalize(exps)))

    def value(self, g) -> CycScalar:
        return _char_value(self.group, self.exps, g)

    def order(self) -> int:
        return self.group.element_order(self.exps)

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exps)

    def power(self, k: int) -> GroupChar:
        return GroupChar(self.group, self.group.power(self.exps, k))


class Weight(namedtuple("Weight", "group gexps hexps")):
    """Character of G x G-hat: gexps define a character of G, h is the
    group element representing the G-hat part by double duality."""

    __slots__ = ()

    def __new__(cls, group: FinAbGroup, gexps, hexps):
        return tuple.__new__(cls, (group, group.normalize(gexps), group.normalize(hexps)))

    def value_g(self, g) -> CycScalar:
        return _char_value(self.group, self.gexps, g)

    def value_gamma_gen(self, i: int) -> CycScalar:
        # value at the i-th standard character generator gamma_i
        return _char_value(self.group, self.hexps, self.group.generators()[i])

    def value_gamma_exps(self, cexps) -> CycScalar:
        # value at prod_i gamma_i^{c_i}
        return _char_value(self.group, self.hexps, cexps)

    # the exponent tuples are already reduced, so mul and power reduce the
    # sums and multiples themselves and skip __new__'s normalize

    def mul(self, other: Weight) -> Weight:
        orders = self.group.orders
        return tuple.__new__(Weight, (
            self.group, tuple((x + y) % d for x, y, d in zip(self.gexps, other.gexps, orders)),
            tuple((x + y) % d for x, y, d in zip(self.hexps, other.hexps, orders))))

    def power(self, k: int) -> Weight:
        orders = self.group.orders
        return tuple.__new__(Weight, (self.group,
                                      tuple(x * k % d for x, d in zip(self.gexps, orders)),
                                      tuple(x * k % d for x, d in zip(self.hexps, orders))))

    def order(self) -> int:
        return _lcm(self.group.element_order(self.gexps), self.group.element_order(self.hexps))

    def sort_key(self):
        return (self.gexps, self.hexps)

    def label(self) -> str:
        return f"({','.join(map(str, self.gexps))};{','.join(map(str, self.hexps))})"

    def to_json(self) -> dict:
        return {"gpart": list(self.gexps), "h": list(self.hexps)}

    @staticmethod
    def from_json(group: FinAbGroup, obj: dict) -> Weight:
        if not isinstance(obj, dict) or "gpart" not in obj or "h" not in obj:
            raise DatumError("weight JSON needs 'gpart' and 'h'")
        try:
            parts = tuple(obj["gpart"]), tuple(obj["h"])
            if any(type(x) is not int for part in parts for x in part):
                raise TypeError("exponents must be integers")
            return Weight(group, *parts)
        except (ValueError, TypeError) as exc:
            raise DatumError(f"malformed weight {obj!r}: {exc}") from exc


class WeightClass(namedtuple("WeightClass", "l d branch")):
    """Classification of a weight: l in 1..n, d = l-1 for regular weights
    (None otherwise), branch is 'regular' (l <= n-1), 'n_generic', or
    'n_boundary'."""

    __slots__ = ()

    @property
    def regular(self) -> bool:
        return self.branch == "regular"


# What the structure constants and relation checks read of a weight tag lambda:
# its values at each generator of G and of G-hat, at a and at chi, and
# x_power = alpha (lambda(a^n) - 1), the scalar by which x^n acts on it.
Characters = namedtuple("Characters", "at_g at_gamma at_a at_chi x_power")

# The constants of the generators g_i of G and gamma_i of G-hat: chi(g_i) and
# its inverse, gamma_i(a), and x_gamma = (gamma_i(a)^n - 1) / (n-1)!_rho, the
# coefficient of Xi^(n-1) in the x-gamma_i relation over a non-nilpotent datum.
GeneratorConstants = namedtuple("GeneratorConstants", "chi chi_inv gamma_at_a x_gamma")


NILPOTENT = "nilpotent"
NON_NILPOTENT = "non-nilpotent"


class Memo:
    """An object that is never changed after construction, so what is derived
    from it alone is kept on it (``cached``) and shared by every caller: a
    cached value must not be changed."""

    def cached(self, key, build):
        """The value stored under ``key``, computed by ``build()`` on first
        use.  A ``build`` that raises stores nothing."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = build()
            return value


class ValidatedDatum(Memo):
    """A validated datum with its derived constants and weight machinery.

    The datum memoizes its weight list and classes, the character values of
    each weight, the constants of each generator and 1 / (n-1)!_rho, and,
    for the constructors and the homology layer, its simple modules and its
    family members (``Family.member``), the projective covers among them.
    """

    def __init__(self, group: FinAbGroup, chi: GroupChar, a: tuple[int, ...], alpha: CycScalar,
                 kind: str, rho_exp: int, n: int, m: int, alpha_normalized: bool):
        self.group = group
        self.chi = chi
        self.a = a
        self.alpha = alpha
        self.kind = kind
        self.N = group.exponent
        # rho = chi(a) = zeta_N^rho_exp; lambda = (g; h) has lambda(a) / lambda(chi) = zeta_N^k
        # with k = sum_i g_i A_i - h_i X_i, where gamma_i(a) = zeta_N^A_i, chi(g_i) = zeta_N^X_i
        self.rho_exp = rho_exp
        self.rho = root_of_unity(self.N, rho_exp)
        self._class_exps = tuple((_char_exp(group, g, a), _char_exp(group, chi.exps, g))
                                 for g in group.generators())
        self.n = n
        self.m = m
        self.alpha_normalized = alpha_normalized
        # phi = chi^{-1} (x) a-hat as a weight
        self.phi_weight = Weight(group, group.inverse(chi.exps), a)
        self._memo: dict = {}

    # -- scalars --------------------------------------------------------

    def one(self) -> CycScalar:
        return CycScalar.one(self.N)

    def scalar(self, v) -> CycScalar:
        if not isinstance(v, CycScalar):
            return CycScalar.rational(Fraction(v), self.N)
        if self.N % v.order:
            raise DatumError(f"scalar of order {v.order} does not lie in Q(zeta_{self.N})")
        return v.to_order(self.N)

    def rho_power(self, k: int) -> CycScalar:
        return root_of_unity(self.N, self.rho_exp * k)

    # -- character values -------------------------------------------------

    def characters(self, lam: Weight) -> Characters:
        """The character values of lambda, evaluated once per datum."""
        def build() -> Characters:
            at_a = lam.value_g(self.a)
            return Characters(tuple(lam.value_g(g) for g in self.group.generators()),
                              tuple(lam.value_gamma_gen(i) for i in range(self.group.rank)),
                              at_a, lam.value_gamma_exps(self.chi.exps),
                              self.alpha * (at_a ** self.n - self.one()))

        return self.cached(("characters", lam), build)

    def generator_constants(self) -> tuple[GeneratorConstants, ...]:
        """The GeneratorConstants of g_i and gamma_i, for each i."""
        def build() -> tuple[GeneratorConstants, ...]:
            fac_inv = self.factorial_inv()
            chis = [self.chi.value(g) for g in self.group.generators()]
            gas = [self.gamma_gen_at_a(i) for i in range(self.group.rank)]
            return tuple(GeneratorConstants(c, c.inv(), ga, (ga ** self.n - self.one()) * fac_inv)
                         for c, ga in zip(chis, gas))

        return self.cached("generator constants", build)

    def factorial_inv(self) -> CycScalar:
        """1 / (n-1)!_rho, computed once per datum."""
        return self.cached("factorial inverse", lambda: q_factorial(self.n - 1, self.rho).inv())

    def gamma_gen_at_a(self, i: int) -> CycScalar:
        # gamma_i(a)
        return _char_value(self.group, self.group.generators()[i], self.a)

    # -- weights ----------------------------------------------------------

    def enumerate_weights(self) -> list[Weight]:
        # elements() yields reduced tuples, so no weight needs Weight.__new__'s normalize
        group, elements = self.group, self.group.elements
        return self.cached("weights", lambda: sorted(
            (tuple.__new__(Weight, (group, g, h)) for g in elements() for h in elements()),
            key=Weight.sort_key))

    def classify_weight(self, lam: Weight) -> WeightClass:
        # zeta_N^k = lambda(a) / lambda(chi) is a power rho^d = zeta_N^(rho_exp d) iff
        # step = N/n = gcd(N, rho_exp) divides k, and rho_exp/step is a unit mod n
        k = sum(g * A - h * X for g, h, (A, X) in zip(lam.gexps, lam.hexps, self._class_exps))
        step = self.N // self.n
        if k % step:
            return WeightClass(self.n, None, "n_generic")
        d = k // step * pow(self.rho_exp // step, -1, self.n) % self.n
        if d <= self.n - 2:
            return WeightClass(d + 1, d, "regular")
        return WeightClass(self.n, None, "n_boundary")

    def weights_in_class(self, l: int) -> list[Weight]:
        def build() -> dict[int, list[Weight]]:
            classes: dict[int, list[Weight]] = {}
            for w in self.enumerate_weights():
                classes.setdefault(self.classify_weight(w).l, []).append(w)
            return classes

        return self.cached("classes", build).get(l, [])

    def kernel_K(self) -> list[Weight]:
        # weights with lambda(a) = lambda(chi): the class d = 0
        return self.weights_in_class(1)

    def simple_counts(self) -> dict[int, int]:
        counts = {l: len(self.weights_in_class(l)) for l in range(1, self.n + 1)}
        k = len(self.kernel_K())
        for l in range(1, self.n):
            assert counts[l] == k, f"|I_{l}| = {counts[l]} != |K| = {k}"
        assert counts[self.n] == self.group.size ** 2 - (self.n - 1) * k
        return counts

    # -- translations -----------------------------------------------------

    def phi_shift(self, lam: Weight, k: int = 1) -> Weight:
        return lam.mul(self.phi_weight.power(k))

    def tau(self, lam: Weight, k: int = 1) -> Weight:
        return self.phi_shift(lam, self.n * k)

    def sigma(self, lam: Weight) -> Weight:
        cls = self.classify_weight(lam)
        if not cls.regular:
            return lam
        return self.phi_shift(lam, cls.d + 1)

    def sigma_inv(self, lam: Weight) -> Weight:
        cls = self.classify_weight(lam)
        if not cls.regular:
            return lam
        return self.phi_shift(lam, cls.l - self.n)

    def tau_orbit(self, lam: Weight) -> list[Weight]:
        out = [lam]
        cur = self.tau(lam)
        while cur != lam:
            out.append(cur)
            cur = self.tau(cur)
        return out

    # -- structure coefficients --------------------------------------------

    def _check_in_class(self, l: int, lam: Weight) -> None:
        cls = self.classify_weight(lam)
        if cls.l != l:
            raise DatumError(f"weight {lam.label()} lies in class l={cls.l}, not l={l}")

    def alpha_value(self, i: int, lam: Weight) -> CycScalar:
        """Coefficient alpha_i(lambda) = (i)_rho (lambda(chi) - rho^(1-i) lambda(a)),
        defined for every weight."""
        if not 1 <= i <= self.n:
            raise DatumError(f"alpha index {i} out of range 1..{self.n}")
        c = self.characters(lam)
        return q_number(i, self.rho) * (c.at_chi - self.rho_power(1 - i) * c.at_a)

    def alpha_coeff(self, i: int, l: int, lam: Weight) -> CycScalar:
        """alpha_i(lambda) with the membership check lambda in I_l."""
        self._check_in_class(l, lam)
        return self.alpha_value(i, lam)

    def beta_coeff(self, l: int, lam: Weight) -> CycScalar:
        """Product alpha_1 ... alpha_(l-1)."""
        self._check_in_class(l, lam)
        return prod((self.alpha_value(i, lam) for i in range(1, l)), start=self.one())

    def yz_coeff(self, l: int, lam: Weight) -> tuple[CycScalar, CycScalar]:
        """(y, z) pair for the weight lambda in class l <= n-1."""
        if not 1 <= l <= self.n - 1:
            raise DatumError(f"yz coefficients need l <= n-1, got l={l}")
        self._check_in_class(l, lam)
        c = self.characters(lam)
        la, lchi = c.at_a, c.at_chi
        denom_inv = self.factorial_inv()
        y = (self.rho_power(1 - l) * la - self.rho_power(l) * lchi) * denom_inv
        z = (self.rho * la - lchi) * denom_inv
        return y, z

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "orders": list(self.group.orders),
            "chi": list(self.chi.exps),
            "a": list(self.a),
            "alpha": self.alpha.to_json(),
        }

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "orders": list(self.group.orders),
            "exponent": self.N,
            "rho": str(self.rho),
            "n": self.n,
            "m": self.m,
            "alpha": str(self.alpha),
            "alpha_normalized": self.alpha_normalized,
            "K": len(self.kernel_K()),
            "simple_counts": {str(k): v for k, v in sorted(self.simple_counts().items())},
        }


def validate_datum(group: FinAbGroup, chi: GroupChar, a, alpha) -> ValidatedDatum:
    """Check the datum axioms and derive (kind, rho, n, m)."""
    a = group.normalize(a)
    if chi.group != group:
        raise DatumError("character belongs to a different group")
    N = group.exponent
    if isinstance(alpha, CycScalar):
        if N % alpha.order != 0:
            raise DatumError(f"alpha order {alpha.order} does not divide group exponent {N}")
        alpha = alpha.to_order(N)
    else:
        alpha = CycScalar.rational(Fraction(alpha), N)

    rho_exp = _char_exp(group, chi.exps, a)
    n = N // gcd(N, rho_exp)
    if n == 1:
        raise DatumError("invalid datum: rho = chi(a) = 1, so n = 1; a datum needs n >= 2")

    ord_a = group.element_order(a)
    ord_chi = chi.order()
    assert ord_a % n == 0 and ord_chi % n == 0, "order of rho must divide ord(a) and ord(chi)"

    # alpha (a^n - 1) vanishes iff alpha = 0 or a^n = identity
    a_pow_n = group.power(a, n)
    vanishes = alpha.is_zero() or a_pow_n == group.identity()

    alpha_normalized = False
    if vanishes:
        kind = NILPOTENT
        m = _lcm(ord_a, ord_chi) // n
    else:
        chi_n = chi.power(n)
        if not chi_n.is_trivial():
            g_wit = next(g for g in group.elements() if not chi_n.value(g).is_one())
            raise DatumError(
                f"invalid datum: alpha*(a^n - 1) != 0 (alpha = {alpha}, "
                f"a^n = {a_pow_n} is not the identity) and chi^n != 1 "
                f"(chi^n at {g_wit} equals {chi_n.value(g_wit)})")
        kind = NON_NILPOTENT
        if not alpha.is_one():
            alpha = CycScalar.one(N)
            alpha_normalized = True
        m = ord_a // n
        assert m > 1, "non-nilpotent datum forces m > 1"

    D = ValidatedDatum(group, chi, a, alpha, kind, rho_exp, n, m, alpha_normalized)
    assert D.phi_weight.order() == m * n, \
        f"phi has order {D.phi_weight.order()}, expected m*n = {m * n}"
    return D


def datum_from_json(obj: dict) -> ValidatedDatum:
    if not isinstance(obj, dict):
        raise DatumError("datum JSON must be an object")
    for key in ("orders", "chi", "a", "alpha"):
        if key not in obj:
            raise DatumError(f"datum JSON missing '{key}'")
    fields = {key: _parse_field(key, obj[key]) for key in ("orders", "chi", "a", "alpha")}
    group = FinAbGroup(fields["orders"])
    return validate_datum(group, GroupChar(group, fields["chi"]), fields["a"], fields["alpha"])


def _parse_field(key: str, v):
    """Integer tuple, or CycScalar for alpha; a malformed value is a one-line DatumError."""
    try:
        if key == "alpha":
            return CycScalar.from_json(v) if isinstance(v, dict) \
                else CycScalar.rational(parse_fraction(str(v)))
        if not isinstance(v, (list, tuple)) or any(type(x) is not int for x in v):
            raise TypeError("expected a list of integers")
        return tuple(v)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise DatumError(f"malformed datum field '{key}' = {v!r}: {reason}") from exc
