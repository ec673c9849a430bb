"""Constructors for the classified indecomposable module families.

Each function emits a ModuleRep on an explicit weight-tagged basis:

* ``verma``        -- the n-dimensional induced module at any weight;
* ``simple``       -- the simple module V(l, lambda), natural or standard basis;
* ``projective``   -- the 2n-dimensional projective cover P(l, lambda);
* ``t_chain``      -- the chain module T_t with socle V(l, lambda) copies
                      shifted down the tau-orbit and a rising linking edge;
* ``t_chain_bar``  -- the dual chain Tbar_t with rising tau-orbit and a
                      falling linking edge;
* ``band``         -- the band module M_t(l, lambda, eta) of (tm, tm)-type,
                      with a Jordan closing edge across the t copies;
* ``w_band``       -- the one-parameter family W_t(l, lambda, eta) that
                      replaces the bands when m = 1 (eta may be infinite).

The first two are one string (the Verma module is the natural string at
l = n).  The rest glue segments of the T_1 or Tbar_1 string: an open string
of t segments for a chain, a closed one with eta on the closing edge for a
band, and for P(l, lambda) a segment of n - l glued onto one of l.  Every
builder hands its segments and glue edges to ``_assemble``, the one place
that makes a ``ModuleRep``.  ``t1``, ``t1bar`` and ``w1`` check the t = 1
members against restrictions of the projective cover.

``FAMILIES`` is the one registry of the classified families (V, P, Omega,
T, Tbar, M, W): parameters, builder, dimension formula, predicted Loewy type
and tag, read by ``classify``, ``match_family`` and the almost-split
sequence tables.  ``FAMILY_TOKENS`` maps the ``module build`` tokens onto it.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import prod

from .cyclo import CycScalar, parse_fraction
from .datum import NILPOTENT, DatumError, ValidatedDatum, Weight
from .linalg import Mat, Row
from .repmod import ModuleRep, intertwines, spin_submodule


# ---------------------------------------------------------------------------
# band parameter


class EtaParam(namedtuple("EtaParam", "value")):
    """Band parameter: an exact scalar, or None for the symbol infinity."""

    __slots__ = ()

    def __new__(cls, value):
        if value is not None and not isinstance(value, CycScalar):
            value = CycScalar.rational(Fraction(value))
        return super().__new__(cls, value)

    @staticmethod
    def of(v) -> EtaParam:
        if isinstance(v, EtaParam):
            return v
        if isinstance(v, str):
            return EtaParam.parse(v)
        return EtaParam(v)

    @staticmethod
    def parse(text: str) -> EtaParam:
        t = str(text).strip().lower()
        if t in ("inf", "infinity", "oo"):
            return EtaParam(None)
        try:
            return EtaParam(CycScalar.rational(parse_fraction(t)))
        except (ValueError, ZeroDivisionError) as exc:
            raise DatumError(f"cannot parse eta value {text!r}") from exc

    @property
    def is_inf(self) -> bool:
        return self.value is None

    def scalar(self, datum: ValidatedDatum) -> CycScalar:
        if self.value is None:
            raise DatumError("eta is infinite; no scalar value")
        return datum.scalar(self.value)

    def is_unit(self, datum: ValidatedDatum) -> bool:
        return not self.is_inf and not self.scalar(datum).is_zero()

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


# ---------------------------------------------------------------------------
# shared helpers


def require_regular(datum: ValidatedDatum, l: int, lam: Weight) -> None:
    """Require l in the regular range 1..n-1, then lambda in class l."""
    if not 1 <= l <= datum.n - 1:
        raise DatumError(f"l={l} outside 1..{datum.n - 1}")
    datum._check_in_class(l, lam)


def _put(rows: list[Row], i: int, j: int, val: CycScalar) -> None:
    """Set entry (i, j) of the matrix with row dicts ``rows``; a zero is not
    stored, and an entry outside the square matrix is an error."""
    if not (0 <= i < len(rows) and 0 <= j < len(rows)):
        raise DatumError(f"entry ({i},{j}) outside dimension {len(rows)}")
    if val:
        rows[i][j] = val


def _assemble(datum: ValidatedDatum, segments: list, glue: list, labels: list[str]) -> ModuleRep:
    """The module on the bases of ``segments`` laid end to end.  A segment
    ``(base, shifts, entries)`` holds the phi-shifts of its vectors off the
    weight ``base`` and its entries ``(act, i, j, coeff)``: coeff times vector
    i in the image of vector j under act, i and j counted inside the segment.
    The ``glue`` entries have the same form, counted in the whole basis."""
    dim = sum(len(shifts) for _, shifts, _ in segments)
    acts = {act: [{} for _ in range(dim)] for act in ("x", "xi")}
    weights: list[Weight] = []
    for base, shifts, entries in segments:
        off = len(weights)
        for act, i, j, v in entries:
            _put(acts[act], off + i, off + j, v)
        weights += [datum.phi_shift(base, k) for k in shifts]
    for act, i, j, v in glue:
        _put(acts[act], i, j, v)
    return ModuleRep(datum, weights, Mat(datum.N, acts["x"], dim), Mat(datum.N, acts["xi"], dim),
                     labels)


# ---------------------------------------------------------------------------
# simple and induced modules


def _string(datum: ValidatedDatum, l: int, lam: Weight, standard: bool = False) -> ModuleRep:
    """The string of l vectors at weights phi^i(lambda), i = 0..l-1: x sends
    vector i to vector i+1 and xi sends vector i to vector i-1, one of them
    with coefficient alpha_i(lambda) and the other with one.  The natural
    basis v_i puts alpha_i on xi, the standard basis m_i on x.  At l = n, x
    also closes vector n-1 onto vector 0 with alpha * (lambda(a)^n - 1)
    (divided by alpha_1...alpha_(n-1) in the standard basis); it vanishes
    except at generic weights over a non-nilpotent datum."""
    n, one = datum.n, datum.one()
    entries = []
    for i in range(1, l):
        a = datum.alpha_value(i, lam)
        entries += [("x", i, i - 1, a if standard else one), ("xi", i - 1, i, one if standard else a)]
    if l == n:
        closing = datum.characters(lam).x_power
        entries.append(("x", 0, n - 1,
                        closing / datum.beta_coeff(n, lam) if standard else closing))
    return _assemble(datum, [(lam, range(l), entries)], [],
                     [f"{'m' if standard else 'v'}{i}" for i in range(l)])


def verma(datum: ValidatedDatum, lam: Weight) -> ModuleRep:
    """The n-dimensional induced module at an arbitrary weight: the natural
    string at l = n."""
    return _string(datum, datum.n, lam)


def simple(datum: ValidatedDatum, l: int, lam: Weight, basis: str = "natural") -> ModuleRep:
    """The simple module V(l, lambda); requires lambda in class l.

    Built once per (l, lambda, basis) and datum; the module is shared, so
    callers must not change it."""
    return datum.cached(("simple", l, lam, basis), lambda: _simple(datum, l, lam, basis))


def _simple(datum: ValidatedDatum, l: int, lam: Weight, basis: str) -> ModuleRep:
    n = datum.n
    if not 1 <= l <= n:
        raise DatumError(f"l={l} outside 1..{n}")
    datum._check_in_class(l, lam)
    if basis not in ("natural", "standard"):
        raise DatumError(f"unknown basis {basis!r}; use 'natural' or 'standard'")
    mod = _string(datum, l, lam, basis == "standard")
    if basis == "standard":
        _assert_basis_change(datum, l, lam, mod)
    return mod


def _assert_basis_change(datum: ValidatedDatum, l: int, lam: Weight,
                         std: ModuleRep) -> None:
    """The standard basis is m_i = alpha_{i+1}...alpha_{l-1} v_i; check that
    this diagonal change of basis intertwines the two constructions."""
    nat = simple(datum, l, lam, "natural")
    alphas = [datum.alpha_value(k, lam) for k in range(1, l)]
    diag = [prod(alphas[i:], start=datum.one()) for i in range(l)]
    if not intertwines(Mat.diag(datum.N, diag), std, nat):
        raise DatumError("natural/standard bases of the simple module "
                         "are not intertwined by the diagonal change")


# ---------------------------------------------------------------------------
# chain and band modules: strings of segments glued end to end


def _segment(datum: ValidatedDatum, l: int, lam: Weight, dual: bool):
    """The string of T_1(l, lambda), or of Tbar_1(l, lambda) if ``dual``, as a
    segment to glue: the phi-shifts of its n basis vectors off the segment's
    base weight, its entries ``(act, i, j, coeff)`` (coeff times vector i in
    the image of vector j under act) and its link, the entries a glue edge
    lays from this segment's vector j to another segment's vector i."""
    n = datum.n
    one = datum.one()

    def edges(p: int, q: int, mu_p: Weight, mu_q: Weight, gap=None) -> list:
        # coefficients of the edges j -- j+1: alpha_(j+1)(mu_p) before j = p-1,
        # ``gap`` at it (None: no edge), alpha_(j+1-p)(mu_q) after it
        return [datum.alpha_coeff(j + 1, p, mu_p) if j < p - 1 else gap if j == p - 1
                else datum.alpha_coeff(j + 1 - p, q, mu_q) for j in range(n - 1)]

    ones = [one] * (n - 1)
    open_mid = [None if j == n - l - 1 else one for j in range(n - 1)]  # no edge n-l-1 -- n-l
    extra: list = []
    if datum.kind == NILPOTENT and not dual:
        shifts = [j + l if j < n - l else j - n + l for j in range(n)]
        down, up = open_mid, edges(n - l, l, datum.sigma(lam), lam)
        extra = [("xi", n - 1, 0, one)]
        link = [("x", n - l, n - l - 1, one)]
    elif not dual:
        shifts = list(range(n))
        down, up = edges(l, n - l, lam, datum.sigma(lam)), ones
        extra = [("x", 0, n - 1, datum.yz_coeff(l, lam)[1])]
        link = [("x", 0, n - 1, one)]
    else:
        shifts = [j - n + l for j in range(n)]
        silam = datum.sigma_inv(lam)
        link = [("xi", n - 1, 0, one)]
        if datum.kind == NILPOTENT:
            down, up = ones, edges(n - l, l, silam, lam)
        else:
            down, up = edges(n - l, l, silam, lam, one), open_mid
            link.append(("x", n - l, n - l - 1, datum.yz_coeff(l, lam)[1]))
    entries = ([("x", j + 1, j, v) for j, v in enumerate(down) if v is not None]
               + [("xi", j, j + 1, v) for j, v in enumerate(up) if v is not None] + extra)
    return shifts, entries, link


def _glued(datum: ValidatedDatum, l: int, lam: Weight, dual: bool, bases: list[Weight],
           glue: list, labels: list[str] | None = None) -> ModuleRep:
    """Segments c = 0..len(bases)-1 of the T_1 string (Tbar_1 if ``dual``),
    segment c at base weight bases[c], glued by the edges ``(c, d, v)``: v
    times the link from segment c into segment d.  A chain link is the x-edge
    from the exit of c to the entry of d; a dual link is a xi-edge and, on a
    non-nilpotent datum, an x-edge scaled by z.  Labels default to w (z if
    ``dual``) with the position and the segment."""
    n = datum.n
    shifts, entries, link = _segment(datum, l, lam, dual)
    if labels is None:
        labels = [f"{'z' if dual else 'w'}{j}^{c}" for c in range(len(bases)) for j in range(n)]
    return _assemble(datum, [(mu, shifts, entries) for mu in bases],
                     [(act, d * n + i, c * n + j, v * w) for c, d, v in glue for act, i, j, w in link],
                     labels)


def t_chain(datum: ValidatedDatum, l: int, lam: Weight, t: int = 1) -> ModuleRep:
    """The chain module T_t(l, lambda) of (t, t)-type, dimension nt: t
    segments at base weights tau^(c-(t-1))(lambda), each linked into the next."""
    require_regular(datum, l, lam)
    if t < 1:
        raise DatumError(f"chain length t={t} must be >= 1")
    one = datum.one()
    return _glued(datum, l, lam, False, [datum.tau(lam, c - (t - 1)) for c in range(t)],
                  [(c, c + 1, one) for c in range(t - 1)])


def t_chain_bar(datum: ValidatedDatum, l: int, lam: Weight, t: int = 1) -> ModuleRep:
    """The dual chain module Tbar_t(l, lambda) of (t, t)-type, dimension nt:
    t dual segments at base weights tau^c(lambda), each linked into the one
    before."""
    require_regular(datum, l, lam)
    if t < 1:
        raise DatumError(f"chain length t={t} must be >= 1")
    one = datum.one()
    return _glued(datum, l, lam, True, [datum.tau(lam, c) for c in range(t)],
                  [(c, c - 1, one) for c in range(1, t)])


def band(datum: ValidatedDatum, l: int, lam: Weight, eta, t: int = 1) -> ModuleRep:
    """The band module M_t(l, lambda, eta) of (tm, tm)-type, dimension nmt.

    ``eta`` must be a nonzero finite scalar.  Each of the t copies is a chain
    of m segments at base weights tau^k(lambda), closed from its last segment
    onto its first with eta; that edge also links (for i >= 1) copy i into
    copy i-1, a Jordan block across the copies.
    """
    require_regular(datum, l, lam)
    if datum.m == 1:
        raise DatumError("band modules need m > 1; at m = 1 use the W family")
    if t < 1:
        raise DatumError(f"band length t={t} must be >= 1")
    eta = EtaParam.of(eta)
    if not eta.is_unit(datum):
        raise DatumError("band modules need a finite nonzero eta")
    n, m = datum.n, datum.m
    one, eta_s = datum.one(), eta.scalar(datum)
    glue = []
    for i in range(t):
        first, last = i * m, i * m + m - 1
        glue += [(k, k + 1, one) for k in range(first, last)]
        glue.append((last, first, eta_s))
        if i >= 1:
            glue.append((last, first - m, one))
    return _glued(datum, l, lam, False, [datum.tau(lam, k) for _ in range(t) for k in range(m)],
                  glue, [f"b{j}^{k}.{i}" for i in range(t) for k in range(m) for j in range(n)])


def w_band(datum: ValidatedDatum, l: int, lam: Weight, eta, t: int = 1) -> ModuleRep:
    """The family W_t(l, lambda, eta) of (t, t)-type at m = 1 (nilpotent).

    ``eta`` ranges over all scalars plus infinity.  Finite eta is the dual
    chain with each segment also linked into itself by eta; eta = infinity
    is the chain T_t.
    """
    require_regular(datum, l, lam)
    if datum.m != 1:
        raise DatumError(f"W family needs m = 1; this datum has m = {datum.m}")
    if t < 1:
        raise DatumError(f"band length t={t} must be >= 1")
    eta = EtaParam.of(eta)
    if eta.is_inf:
        return t_chain(datum, l, lam, t)
    one, eta_s = datum.one(), eta.scalar(datum)
    glue = []
    for c in range(t):
        glue.append((c, c, eta_s))
        if c >= 1:
            glue.append((c, c - 1, one))
    return _glued(datum, l, lam, True, [datum.tau(lam, c) for c in range(t)], glue)


# ---------------------------------------------------------------------------
# projective covers


def projective(datum: ValidatedDatum, l: int, lam: Weight) -> ModuleRep:
    """The projective cover P(l, lambda) of V(l, lambda), dimension 2n: the
    v-segment of n - l glued onto the u-segment of l by l + 1 edges.

    On a nilpotent datum both are dual segments, xi v_k = u_(n-l-1+k) for
    k = 0..l, and P is an extension of Tbar_1(n-l, sigma lambda) by
    Tbar_1(l, lambda), the span of the u_i.  On a non-nilpotent datum
    x v_(n-l-1+k) = u_k, and P is an extension of T_1(n-l, sigma^-1 lambda)
    by T_1(l, lambda)."""
    require_regular(datum, l, lam)
    n, one = datum.n, datum.one()
    nil = datum.kind == NILPOTENT
    mu = datum.sigma(lam) if nil else datum.sigma_inv(lam)
    segments = [(base, *_segment(datum, k, base, nil)[:2]) for k, base in ((n - l, mu), (l, lam))]
    glue = [("xi", 2 * n - l - 1 + k, k, one) if nil else ("x", n + k, n - l - 1 + k, one)
            for k in range(l + 1)]
    return _assemble(datum, segments, glue, [f"v{i}" for i in range(n)] + [f"u{i}" for i in range(n)])


# ---------------------------------------------------------------------------
# verified restrictions of the projective cover (t = 1 families)


def _restricted_copy(p: ModuleRep, seeds: list[Row], table: ModuleRep,
                     what: str) -> ModuleRep:
    """Spin the span of the vectors ``seeds`` inside ``p``, assert it was
    already invariant, and assert that the restricted action in the basis
    ``seeds`` is matrix-identical to ``table``; returns ``table``."""
    datum = p.datum
    facts = spin_submodule(p, seeds)
    if facts.module.dim != len(seeds):
        raise DatumError(f"{what}: the listed span inside the projective cover "
                         f"is not invariant (spins up to dim {facts.module.dim})")
    if not intertwines(Mat.from_cols(datum.N, seeds, p.dim), table, p):
        raise DatumError(f"{what}: restriction of the projective cover "
                         "does not reproduce the chain table")
    return table


def _assert_chain_ends(datum: ValidatedDatum, mod: ModuleRep, l: int,
                       lam: Weight, head_lam: Weight, what: str) -> None:
    from . import homology
    n = datum.n
    loewy = homology.loewy_structure(mod)
    if loewy.socle != [((l, lam), 1)]:
        raise DatumError(f"{what}: socle is not V({l},{lam.label()})")
    if loewy.head != [((n - l, head_lam), 1)]:
        raise DatumError(f"{what}: head is not V({n - l},{head_lam.label()})")


def t1(datum: ValidatedDatum, l: int, lam: Weight) -> ModuleRep:
    """T_1(l, lambda) realized as a verified restriction of P(l, lambda);
    matrix-identical to t_chain(..., t=1)."""
    p = projective(datum, l, lam)
    table = t_chain(datum, l, lam, 1)
    n = datum.n
    one = datum.one()
    if datum.kind == NILPOTENT:
        seeds = [{j + l: one} for j in range(n - l)] + [{n + j: one} for j in range(n - l, n)]
    else:
        seeds = [{n + j: one} for j in range(n)]
    mod = _restricted_copy(p, seeds, table, "t1")
    _assert_chain_ends(datum, mod, l, lam, datum.sigma(lam), "t1")
    return mod


def t1bar(datum: ValidatedDatum, l: int, lam: Weight) -> ModuleRep:
    """Tbar_1(l, lambda) realized as a verified restriction of P(l, lambda);
    matrix-identical to t_chain_bar(..., t=1)."""
    p = projective(datum, l, lam)
    table = t_chain_bar(datum, l, lam, 1)
    n = datum.n
    one = datum.one()
    if datum.kind == NILPOTENT:
        seeds = [{n + j: one} for j in range(n)]
    else:
        seeds = [{j: one} for j in range(n - l)] + [{j + l: one} for j in range(n - l, n)]
    mod = _restricted_copy(p, seeds, table, "t1bar")
    _assert_chain_ends(datum, mod, l, lam, datum.sigma_inv(lam), "t1bar")
    return mod


def w1(datum: ValidatedDatum, l: int, lam: Weight, eta) -> ModuleRep:
    """W_1(l, lambda, eta) realized as a verified restriction of P(l, lambda);
    matrix-identical to w_band(..., t=1)."""
    eta = EtaParam.of(eta)
    p = projective(datum, l, lam)
    table = w_band(datum, l, lam, eta, 1)
    n = datum.n
    one = datum.one()
    if eta.is_inf:
        seeds = [{j + l: one} for j in range(n - l)]
    else:
        ev = eta.scalar(datum)
        seeds = [{n + j: one, j + l: ev} if ev else {n + j: one} for j in range(n - l)]
    seeds += [{n + j: one} for j in range(n - l, n)]
    return _restricted_copy(p, seeds, table, "w1")


# ---------------------------------------------------------------------------
# family registry


class Family(namedtuple("Family", "letter params build dim loewy tag regular on_m unit_eta "
                                   "per_orbit", defaults=(True, lambda m: True, False, False))):
    """One classified family, keyed in ``FAMILIES`` by its manifest letter.

    ``params`` names the parameters beyond (l, lambda), in tag order.
    ``build(datum, l, lam, **params)`` constructs a member; ``dim`` and
    ``loewy``, called as ``(datum, l, **params)``, predict its dimension and
    Loewy type (s, t, rl); ``tag`` formats the name ``match_family`` prints.
    Members exist for l in 1..n-1 (1..n unless ``regular``) and for the m
    that ``on_m`` accepts; ``unit_eta`` asks for a finite nonzero eta, and a
    ``per_orbit`` member depends on lambda only through its tau-orbit.
    """

    __slots__ = ()

    def member(self, datum: ValidatedDatum, l: int, lam: Weight, **params) -> ModuleRep:
        """``build``, once per datum and argument list; the module is shared,
        so callers must not change it."""
        return datum.cached((self.letter, l, lam, *params.items()),
                            lambda: self.build(datum, l, lam, **params))

    def l_range(self, datum: ValidatedDatum) -> range:
        return range(1, datum.n if self.regular else datum.n + 1)

    def weights(self, datum: ValidatedDatum, l: int) -> list[Weight]:
        """The weights of class l, one per tau-orbit if ``per_orbit``."""
        reps: list[Weight] = []
        for w in datum.weights_in_class(l):
            if not (self.per_orbit and any(v in reps for v in datum.tau_orbit(w))):
                reps.append(w)
        return reps

    def grid(self, datum: ValidatedDatum, max_t: int, max_s: int, etas):
        """Parameter values within the bounds, in manifest order, one dict at
        a time: t runs 1..max_t, s runs 1..max_s then -1..-max_s, eta (as
        text) follows ``etas``.  Empty when the family has no members at this m."""
        return (dict(zip(self.params, vals))
                for vals in _walk(self._axes(datum, max_t, max_s, etas)))

    def grid_size(self, datum: ValidatedDatum, max_t: int, max_s: int, etas) -> int:
        """The number of dicts ``grid`` yields."""
        return prod(sum(map(len, axis)) for axis in self._axes(datum, max_t, max_s, etas))

    def _axes(self, datum: ValidatedDatum, max_t: int, max_s: int, etas) -> list[tuple]:
        # the values of each parameter, as a tuple of ranges and lists
        if not self.on_m(datum.m):
            return [()]
        axes = {"t": (range(1, max_t + 1),),
                "s": (range(1, max_s + 1), range(-1, -max_s - 1, -1)),
                "eta": ([str(ep) for ep in map(EtaParam.of, etas)
                         if ep.is_unit(datum) or not self.unit_eta],)}
        return [axes[p] for p in self.params]


def _walk(axes: list[tuple]):
    """``itertools.product`` over the concatenated parts of each axis,
    without building any axis out."""
    return [()] if not axes else ((v, *rest) for part in axes[0] for v in part
                                  for rest in _walk(axes[1:]))


def _omega(datum: ValidatedDatum, l: int, lam: Weight, s: int) -> ModuleRep:
    from . import homology
    return homology.omega_power(datum, l, lam, s)


# Builders look their constructor up at call time, so a wrapper installed on
# a module attribute sees every build.  The dimension of Omega^s V(l, lambda)
# follows from its (s+1, s) type: dim Omega^s = 2n * (head length of
# Omega^(s-1)) - dim Omega^(s-1), and likewise for s < 0.
FAMILIES = {f.letter: f for f in (
    Family("V", (), lambda d, l, lam: simple(d, l, lam), lambda d, l: l,
           lambda d, l: (1, 1, 1), "V({l},{lam})", regular=False),
    Family("P", (), lambda d, l, lam: projective(d, l, lam), lambda d, l: 2 * d.n,
           lambda d, l: (1, 1, 3), "P({l},{lam})"),
    Family("T", ("t",), lambda d, l, lam, t: t_chain(d, l, lam, t),
           lambda d, l, t: d.n * t, lambda d, l, t: (t, t, 2), "T_{t}({l},{lam})"),
    Family("Tbar", ("t",), lambda d, l, lam, t: t_chain_bar(d, l, lam, t),
           lambda d, l, t: d.n * t, lambda d, l, t: (t, t, 2), "Tbar_{t}({l},{lam})"),
    Family("W", ("t", "eta"), lambda d, l, lam, t, eta: w_band(d, l, lam, eta, t),
           lambda d, l, t, eta: d.n * t, lambda d, l, t, eta: (t, t, 2),
           "W_{t}({l},{lam},eta={eta})", on_m=lambda m: m == 1),
    Family("M", ("t", "eta"), lambda d, l, lam, t, eta: band(d, l, lam, eta, t),
           lambda d, l, t, eta: d.n * d.m * t,
           lambda d, l, t, eta: (t * d.m, t * d.m, 2), "M_{t}({l},{lam},eta={eta})",
           on_m=lambda m: m > 1, unit_eta=True, per_orbit=True),
    Family("Omega", ("s",), _omega,
           lambda d, l, s: abs(s) * d.n + (l if s % 2 == 0 else d.n - l),
           lambda d, l, s: (s + 1, s, 2) if s > 0 else (-s, -s + 1, 2),
           "Omega^{s}V({l},{lam})"),
)}


# A ``module build`` token built otherwise than by a registry family.
Token = namedtuple("Token", "params build")


def _verma(datum: ValidatedDatum, l: int | None, lam: Weight) -> ModuleRep:
    if l is not None:
        datum._check_in_class(l, lam)
    return verma(datum, lam)


# The command-line tokens of ``module build``: registry families, and the
# variants built another way (verified t = 1 restrictions, the basis choice).
FAMILY_TOKENS = {
    "verma": Token((), _verma),
    "simple": Token(("basis",), lambda d, l, lam, basis: simple(d, l, lam, basis)),
    "projective": FAMILIES["P"],
    "t1": Token((), lambda d, l, lam: t1(d, l, lam)),
    "t1bar": Token((), lambda d, l, lam: t1bar(d, l, lam)),
    "string_tt": FAMILIES["T"],
    "string_ttbar": FAMILIES["Tbar"],
    "band_m1": Token(("eta",), lambda d, l, lam, eta: band(d, l, lam, eta, 1)),
    "band_mt": FAMILIES["M"],
    "w1": Token(("eta",), lambda d, l, lam, eta: w1(d, l, lam, eta)),
    "w_t": FAMILIES["W"],
    "omega_power": FAMILIES["Omega"],
}


def build_family(datum: ValidatedDatum, family: str, l: int | None = None,
                 lam: Weight | None = None, t: int | None = None, eta=None,
                 basis: str | None = None, s: int | None = None) -> ModuleRep:
    """Build a module by command-line token.  A parameter the token does not
    take is rejected, not dropped; t and s default to 1, basis to natural."""
    tok = FAMILY_TOKENS.get(family)
    if tok is None:
        raise DatumError(f"unknown family {family!r}; expected one of {', '.join(FAMILY_TOKENS)}")
    if lam is None:
        raise DatumError("family construction needs a weight")
    if l is None and family != "verma":
        raise DatumError(f"family {family!r} needs l")
    given = {"t": t, "eta": eta, "basis": basis, "s": s}
    for name, value in given.items():
        if value is not None and name not in tok.params:
            raise DatumError(f"family {family!r} takes no {name}")
    if eta is None and "eta" in tok.params:
        raise DatumError(f"family {family!r} needs eta")
    defaults = {"t": 1, "basis": "natural", "s": 1}
    return tok.build(datum, l, lam, **{p: defaults[p] if given[p] is None else given[p]
                                       for p in tok.params})
