"""Slow, direct references that tests compare the package against.

The package reaches each of these results one way: ``loewy_structure`` reads
the simples of every radical layer from the Hom solves that find the radicals,
``linalg.Echelon`` is its one elimination, and ``is_isomorphic`` decides every
pair by the rank of the trace pairing.  The references below build the
intermediate modules and spans that the package skips, or scan the pairings
one by one, so that tests can check its answers against a second,
independent route.  ``projective_table`` writes P(l, lambda) entry by entry
from the action tables, where the package glues two chain segments.  The datum classes its weights in integer exponents mod N;
the references here search for the same classes over ``CycScalar`` values.
"""

from fractions import Fraction

from doublerep import homology
from doublerep.constructors import _put, require_regular
from doublerep.datum import NILPOTENT, WeightClass
from doublerep.linalg import Echelon, Mat, frobenius_pair
from doublerep.repmod import ModuleRep, quotient_module


def semisimple_factors(h):
    """Multiplicities ``[((l, weight), mult), ...]`` of the simples in a
    semisimple module, from Hom(S, h) for each candidate simple S; a module
    that is not semisimple raises ``DatumError``."""
    return homology._multiplicities(homology._simple_homs(h, True), h.dim)


def radical_series(m):
    """The successive semisimple layers M/rad M, rad M/rad^2 M, ..., each
    built as a quotient module."""
    out = []
    while m.dim:
        rad = homology.radical(m)
        out.append(quotient_module(m, rad)[0])
        m = rad.module
    return out


def echelon(vectors, order):
    """The ``Echelon`` of the span of the given ``{index: value}`` vectors."""
    e = Echelon(order)
    for v in vectors:
        e.add(v)
    return e


def span_basis(vectors, order):
    """The reduced echelon basis of the span, in pivot order; two lists of
    vectors span the same space exactly when their bases are equal."""
    e = echelon(vectors, order)
    return [e.rows[p] for p in e.pivots]


def same_span(rows_a, rows_b, order):
    return span_basis(rows_a, order) == span_basis(rows_b, order)


def in_span(vectors, v, order):
    return not echelon(vectors, order).reduce(v)


def rational_value(x):
    """The Fraction a cyclotomic scalar equals, or None when it is irrational."""
    return None if any(x.num[1:]) else Fraction(x.num[0], x.den)


def action(m):
    """What identifies a module's matrices: weight tags, x and xi."""
    return m.weights, m.act_x, m.act_xi


def local_iso_verdict(a, b):
    """The isomorphism verdict for modules a and b whose End algebras are
    local, by scanning pairs of basis maps: every endomorphism of a is then a
    scalar plus a nilpotent, so the first f in the Hom(a, b) basis with
    tr(g f) != 0 for some g in the Hom(b, a) basis is an isomorphism, and
    there is none when every pairing vanishes."""
    homs_ba = homology.hom_space(b, a)
    for f in homology.hom_space(a, b):
        if any(frobenius_pair(f, g) for g in homs_ba):
            return homology.IsoVerdict("yes", "invertible intertwiner (trace pairing)",
                                       homology.Morphism(a, b, f))
    return homology.IsoVerdict("no", "trace pairing of Hom(a,b) with Hom(b,a) vanishes; "
                               "both endomorphism algebras are local, so no map is invertible")


def rho_order(chi, a):
    """n, the order of rho = chi(a), by multiplying out its powers."""
    rho = chi.value(a)
    n, p = 1, rho
    while not p.is_one():
        n, p = n + 1, p * rho
    return n


def weight_classes(datum):
    """The class of each weight, in enumeration order, by comparing
    lambda(a) / lambda(chi) with rho^d for d < n."""
    rho, n = datum.chi.value(datum.a), rho_order(datum.chi, datum.a)

    def classify(lam):
        e = lam.value_g(datum.a) * lam.value_gamma_exps(datum.chi.exps).inv()
        p = datum.one()
        for d in range(n):
            if e == p:
                return WeightClass(d + 1, d, "regular") if d <= n - 2 \
                    else WeightClass(n, None, "n_boundary")
            p = p * rho
        return WeightClass(n, None, "n_generic")

    return [classify(w) for w in datum.enumerate_weights()]


def kernel(datum):
    """The weights with lambda(a) = lambda(chi), in enumeration order."""
    return [w for w in datum.enumerate_weights()
            if w.value_g(datum.a) == w.value_gamma_exps(datum.chi.exps)]


def projective_table(datum, l, lam):
    """The projective cover P(l, lambda) of V(l, lambda), dimension 2n, entry
    by entry from the action tables: v_0..v_(n-1), then u_0..u_(n-1)."""
    require_regular(datum, l, lam)
    n = datum.n
    one = datum.one()

    def V(i: int) -> int:
        return i

    def U(i: int) -> int:
        return n + i

    slam = datum.sigma(lam)
    silam = datum.sigma_inv(lam)
    x, xi = [{} for _ in range(2 * n)], [{} for _ in range(2 * n)]
    if datum.kind == NILPOTENT:
        weights = ([datum.phi_shift(lam, i) for i in range(n)]
                   + [datum.phi_shift(lam, i - n + l) for i in range(n)])
        for i in range(n - 1):
            _put(x, V(i + 1), V(i), one)
            _put(x, U(i + 1), U(i), one)
        _put(xi, U(n - l - 1), V(0), one)
        for i in range(1, l):
            _put(xi, V(i - 1), V(i), datum.alpha_coeff(i, l, lam))
            _put(xi, U(n - l + i - 1), V(i), one)
        _put(xi, U(n - 1), V(l), one)
        for i in range(l + 1, n):
            _put(xi, V(i - 1), V(i), datum.alpha_coeff(i - l, n - l, slam))
        for i in range(1, n - l):
            _put(xi, U(i - 1), U(i), datum.alpha_coeff(i, n - l, silam))
        for i in range(n - l + 1, n):
            _put(xi, U(i - 1), U(i), datum.alpha_coeff(i - n + l, l, lam))
    else:
        weights = ([datum.phi_shift(lam, i - n + l) for i in range(n)]
                   + [datum.phi_shift(lam, i) for i in range(n)])
        y, z = datum.yz_coeff(l, lam)
        for i in range(n - l - 1):
            _put(x, V(i + 1), V(i), datum.alpha_coeff(i + 1, n - l, silam))
        _put(x, U(0), V(n - l - 1), one)
        for i in range(n - l, n - 1):
            _put(x, V(i + 1), V(i), datum.alpha_coeff(i + 1 - n + l, l, lam))
            _put(x, U(i + 1 - n + l), V(i), one)
        _put(x, V(0), V(n - 1), y)
        _put(x, U(l), V(n - 1), one)
        for i in range(l - 1):
            _put(x, U(i + 1), U(i), datum.alpha_coeff(i + 1, l, lam))
        for i in range(l, n - 1):
            _put(x, U(i + 1), U(i), datum.alpha_coeff(i + 1 - l, n - l, slam))
        _put(x, U(0), U(n - 1), z)
        for i in range(1, n):
            _put(xi, V(i - 1), V(i), one)
            _put(xi, U(i - 1), U(i), one)
    labels = [f"v{i}" for i in range(n)] + [f"u{i}" for i in range(n)]
    return ModuleRep(datum, weights, Mat(datum.N, x, 2 * n), Mat(datum.N, xi, 2 * n), labels)
