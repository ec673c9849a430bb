"""Slow, direct references that tests compare the package against.

The package reaches each of these results one way: ``loewy_structure`` reads
the simples of every radical layer from the Hom solves that find the radicals,
``linalg.Echelon`` is its one elimination, and ``is_isomorphic`` decides every
pair by the rank of the trace pairing.  The references below build the
intermediate modules and spans that the package skips, or scan the pairings
one by one, so that tests can check its answers against a second,
independent route.  The datum classes its weights in integer exponents mod N;
the references here search for the same classes over ``CycScalar`` values.
"""

from fractions import Fraction

from doublerep import homology
from doublerep.datum import WeightClass
from doublerep.linalg import Echelon, frobenius_pair
from doublerep.repmod import quotient_module


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
