"""Finite-dimensional matrix modules over the rank-one double algebra.

The group-likes of G x G-hat act semisimply, so a module is its datum, the
weight (joint character of G x G-hat) of each basis vector, and the
matrices of the skew primitive generators x and xi.  The group and dual
generators act by the diagonal matrices the weight tags determine; those
matrices appear only in the JSON format, where ``to_json`` writes them and
``from_json`` reads the tags back, changing to a weight basis when the file
is written in another one.  Keeping every basis a weight basis keeps
submodule and homomorphism computations block-local.
"""

from __future__ import annotations

from collections import namedtuple

from .cyclo import CycScalar, root_of_unity
from .datum import NILPOTENT, DatumError, Memo, ValidatedDatum, Weight, datum_from_json
from .linalg import Echelon, Mat, Row, block_diag, inv, nullspace


# ---------------------------------------------------------------------------
# relation checking results


# One named relation check; ``detail`` locates the first failing entry.
CheckResult = namedtuple("CheckResult", "name ok detail", defaults=(None,))


class RelationReport(namedtuple("RelationReport", "checks")):
    """The list of CheckResults of ``ModuleRep.verify_relations``."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]


def _mat_pow(m: Mat, k: int) -> Mat:
    """m**k for k >= 1, by repeated squaring: m**16 takes 4 products.  The
    higher power goes on the left, so k <= 3 forms (m m) m as a loop would."""
    out = None
    while True:
        if k & 1:
            out = m if out is None else m * out
        k >>= 1
        if not k:
            return out
        m = m * m


def _relation_products(m: ModuleRep) -> tuple[Mat, Mat, Mat, Mat]:
    """The products of x and xi the relation checks compare: x^n, xi^(n-1),
    xi^n and the commutator x xi - xi x."""
    X, Xi, n = m.act_x, m.act_xi, m.datum.n
    xi_top = _mat_pow(Xi, n - 1)
    return _mat_pow(X, n), xi_top, xi_top * Xi, X * Xi - Xi * X


# Each row test below yields the failing rows of one matrix identity as
# (i, lhs, rhs): the row index and the two sides of row i as row dicts.


def _check(name: str, rows) -> CheckResult:
    """The check ``name`` from its failing rows: it holds when there is none;
    otherwise the detail names the first column where the sides of the
    first failing row differ (a missing entry is zero, printed 0)."""
    for i, lhs, rhs in rows:
        j = min(k for k in lhs.keys() | rhs.keys() if lhs.get(k) != rhs.get(k))
        return CheckResult(name, False, f"entry ({i},{j}): {lhs.get(j, 0)} != {rhs.get(j, 0)}")
    return CheckResult(name, True)


def _diag_rows(m: Mat, entries: list):
    """m == diag(entries); an entry that is zero or None is a zero."""
    for i, (r, e) in enumerate(zip(m.nz_rows(), entries)):
        if not ((len(r) == 1 and r.get(i) == e) if e else not r):
            yield i, r, {i: e} if e else {}


def _past_rows(m: Mat, v: list, s: CycScalar):
    """m diag(v) == s diag(v) m for nonzero entries v: row j holds when each
    entry m[j, k] != 0 has v[k] == s v[j]."""
    for j, r in enumerate(m.nz_rows()):
        if r:
            t = s * v[j]
            if any(v[k] != t for k in r):
                yield j, {k: x * v[k] for k, x in r.items()}, {k: t * x for k, x in r.items()}


def _x_gamma_rows(X: Mat, xi_top: Mat, gam: list, ga: CycScalar, top: list | None):
    """ga X diag(gam) == diag(gam) X + diag(top) xi_top (without the last
    term when ``top`` is None): row j holds when each entry X[j, k] != 0 has
    ga gam[k] == gam[j] where that term is zero on the row, and when
    (ga gam[k] - gam[j]) X[j, k] == top[j] xi_top[j, k] for every k where
    it is not."""
    ga_inv = ga.inv()
    for j, (r, t) in enumerate(zip(X.nz_rows(), xi_top.nz_rows())):
        g = gam[j]
        c = top[j] if top is not None and t else None
        if c:
            moved = {k: y for k, x in r.items() if (y := x * (ga * gam[k] - g))}
            holds = moved == {k: c * y for k, y in t.items()}
        elif r:
            s = ga_inv * g
            holds = all(gam[k] == s for k in r)
        else:
            continue
        if not holds:
            rhs = {k: g * x for k, x in r.items()}
            if c:
                for k, y in t.items():
                    v = rhs[k] + c * y if k in rhs else c * y
                    if v:
                        rhs[k] = v
                    else:
                        del rhs[k]
            yield j, {k: x * (ga * gam[k]) for k, x in r.items()}, rhs


class _Content:
    """x and xi of a module as one value that is hashed once: the column and
    value of each entry, row by row in increasing column order, each row
    ended by None.  Equal exactly for modules whose x and xi are equal."""

    __slots__ = ("entries", "_hash")

    def __init__(self, m: ModuleRep):
        entries = []
        for op in (m.act_x, m.act_xi):
            for r in op.nz_rows():
                for j in sorted(r):
                    entries += (j, r[j])
                entries.append(None)
        self.entries = tuple(entries)
        self._hash = hash(self.entries)

    def __eq__(self, other) -> bool:
        return self.entries == other.entries

    def __hash__(self) -> int:
        return self._hash


# ---------------------------------------------------------------------------
# the module class


class ModuleRep(Memo):
    """A module over a fixed validated datum: weight tags plus x and xi.

    Matrices act on column vectors; the matrix of a product st of algebra
    elements is S*T.  The group-likes act on basis vector k through the
    joint character ``weights[k]``.  A fact that depends only on the
    module's ``content()`` or ``shape()`` is memoized on the datum under that
    key; what refers to the module's own basis and weights is memoized on
    it, so a datum-cached module shares it with every caller.
    """

    def __init__(self, datum: ValidatedDatum, weights, act_x: Mat, act_xi: Mat,
                 labels=None):
        self.datum = datum
        self.weights = tuple(weights)
        self.act_x = act_x
        self.act_xi = act_xi
        dim = self.dim = len(self.weights)
        for m in (act_x, act_xi):
            if m.nrows != dim or m.ncols != dim:
                raise DatumError(f"generator matrix is {m.nrows}x{m.ncols}, expected {dim}x{dim}")
        self.labels = tuple(labels) if labels is not None else tuple(f"e{i}" for i in range(dim))
        if len(self.labels) != dim:
            raise DatumError(f"{len(self.labels)} labels for dimension {dim}")
        self._memo = {}

    # -- group-likes, from the weight tags -----------------------------------

    def group_element_matrix(self, g) -> Mat:
        return Mat.diag(self.datum.N, [w.value_g(g) for w in self.weights])

    def char_matrix(self, cexps) -> Mat:
        return Mat.diag(self.datum.N, [w.value_gamma_exps(cexps) for w in self.weights])

    # -- relation verification ----------------------------------------------

    def verify_relations(self) -> RelationReport:
        """Check every defining relation of the double algebra on this module.

        The group-likes act through the weight tags, so their order and
        commutation relations hold by construction; ``from_json`` certifies
        them for a file.  The remaining relations are matrix identities whose
        diagonal factors are the character values the datum keeps for each
        tag, and the products of x and xi in them are taken once per datum
        for each content.  Each identity is decided once, row by row, by an
        exact test on that row; the first row that fails it gives the
        check's detail, the first entry where the row's two sides differ.
        """
        d = self.datum
        rank = d.group.rank
        names = [f"{k}_order[{i}]" for i in range(rank) for k in ("group", "gamma")]
        names += [f"{k}_commute[{i},{j}]" for i in range(rank) for j in range(i + 1, rank)
                  for k in ("group", "gamma")]
        names += [f"group_gamma_commute[{i},{j}]" for i in range(rank) for j in range(rank)]
        checks = [CheckResult(name, True) for name in names]

        X, Xi = self.act_x, self.act_xi
        chars = [d.characters(w) for w in self.weights]
        x_pow, xi_top, xi_pow, comm = d.cached(("relation products", self.content()),
                                               lambda: _relation_products(self))
        checks.append(_check("x_power", _diag_rows(x_pow, [c.x_power for c in chars])))
        # xi^n == 0, the diagonal with no entries
        checks.append(_check("xi_power", _diag_rows(xi_pow, [None] * self.dim)))
        gens = [(k, [c.at_g[i] for c in chars], [c.at_gamma[i] for c in chars])
                for i, k in enumerate(d.generator_constants())]
        for i, (k, gv, gam) in enumerate(gens):
            # moving x or xi past a group-like g: m diag(g) == s diag(g) m
            checks += (_check(f"x_group[{i}]", _past_rows(X, gv, k.chi)),
                       _check(f"xi_group[{i}]", _past_rows(Xi, gv, k.chi_inv)),
                       _check(f"xi_gamma[{i}]", _past_rows(Xi, gam, k.gamma_at_a)))
        checks.append(_check("x_xi_commutator",
                             _diag_rows(comm, [c.at_a - c.at_chi for c in chars])))
        for i, (k, _, gam) in enumerate(gens):
            # ga X diag(gam) == diag(gam) X, plus ci diag(gam) (rho A - C) Xi^(n-1)
            # over a non-nilpotent datum
            top = None if d.kind == NILPOTENT else [
                k.x_gamma * g * (d.rho * c.at_a - c.at_chi) for g, c in zip(gam, chars)]
            checks.append(_check(f"x_gamma[{i}]",
                                 _x_gamma_rows(X, xi_top, gam, k.gamma_at_a, top)))
        return RelationReport(checks)

    # -- content and shape -----------------------------------------------

    def content(self) -> _Content:
        """x and xi as one hashable value, built once per module."""
        return self.cached("content", lambda: _Content(self))

    def shape(self) -> tuple:
        """The content and the partition of the basis into weight spaces (the
        index of the first basis vector of each vector's weight): what the
        submodules and the endomorphisms of the module depend on.  A
        submodule is an x- and xi-stable sum of weight-space parts, and an
        endomorphism commutes with x and xi and keeps each weight space."""
        def build() -> tuple:
            first: dict[Weight, int] = {}
            return self.content(), tuple(first.setdefault(w, k)
                                         for k, w in enumerate(self.weights))
        return self.cached("shape", build)

    # -- weight structure ----------------------------------------------------

    def weight_spaces(self) -> dict[Weight, list[int]]:
        """Basis indices grouped by weight tag, sorted by weight; shared, so
        callers must not change it."""
        def build() -> dict[Weight, list[int]]:
            out: dict[Weight, list[int]] = {}
            for idx, w in enumerate(self.weights):
                out.setdefault(w, []).append(idx)
            return dict(sorted(out.items(), key=lambda kv: kv[0].sort_key()))

        return self.cached("weight spaces", build)

    def weight_multiset(self) -> tuple:
        return tuple(sorted(w.sort_key() for w in self.weights))

    # -- kernels ---------------------------------------------------------

    def x_kernel(self) -> list[Row]:
        return nullspace(self.act_x)

    def xi_kernel(self) -> list[Row]:
        return nullspace(self.act_xi)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        gens = self.datum.group.generators()
        return {
            "datum": self.datum.to_json(),
            "dim": self.dim,
            "labels": list(self.labels),
            "matrices": {
                "group": [_mat_to_json(self.group_element_matrix(g)) for g in gens],
                "gamma": [_mat_to_json(self.char_matrix(g)) for g in gens],
                "x": _mat_to_json(self.act_x),
                "xi": _mat_to_json(self.act_xi),
            },
        }

    @staticmethod
    def from_json(obj: dict) -> ModuleRep:
        """Read a module file; its group and dual matrices become weight tags.

        Diagonal group and dual matrices give the tags in the file's basis
        order.  Otherwise the basis changes to a simultaneous eigenbasis,
        sorted by weight, and x and xi are conjugated into it.  A group part
        that is not a diagonalizable action by roots of unity of the factor
        orders, or whose matrices do not commute, so that some group-like
        relation fails, is rejected here.
        """
        if not isinstance(obj, dict):
            raise DatumError("module JSON must be an object")
        for key in ("datum", "dim", "matrices"):
            if key not in obj:
                raise DatumError(f"module JSON missing '{key}'")
        datum = datum_from_json(obj["datum"])
        dim = obj["dim"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise DatumError(f"malformed module field 'dim': expected a non-negative "
                             f"integer, got {dim!r}")
        mats = obj["matrices"]
        if not isinstance(mats, dict):
            raise DatumError("module JSON 'matrices' must be an object")
        for key in ("group", "gamma", "x", "xi"):
            if key not in mats:
                raise DatumError(f"module JSON missing matrix '{key}'")

        parsed: dict[str, CycScalar] = {}

        def read(key: str, rows) -> Mat:
            return _parse(f"matrices.{key}", _mat_from_json, datum, dim, rows, parsed)

        group, gamma = ([read(key, m) for m in _parse(f"matrices.{key}", list, mats[key])]
                        for key in ("group", "gamma"))
        rank = datum.group.rank
        if len(group) != rank or len(gamma) != rank:
            raise DatumError(f"need {rank} group and dual matrices")
        x, xi = read("x", mats["x"]), read("xi", mats["xi"])
        labels = obj.get("labels")
        if labels is not None and not (isinstance(labels, list) and len(labels) == dim
                                       and all(isinstance(s, str) for s in labels)):
            raise DatumError(f"malformed module field 'labels': expected a list of {dim} "
                             f"strings, got {labels!r}")
        weights, basis = _weight_basis(datum, dim, group, gamma)
        if basis is None:
            return ModuleRep(datum, weights, x, xi, labels)
        back = inv(basis)
        # the file's labels name its own basis vectors, not the weight basis
        return ModuleRep(datum, weights, back * x * basis, back * xi * basis)


def _weight_basis(datum: ValidatedDatum, dim: int, group: list[Mat],
                  gamma: list[Mat]) -> tuple[list[Weight], Mat | None]:
    """Weight tags of a simultaneous eigenbasis of the group and dual
    generator matrices, and that basis as columns (None when the given basis
    already is one)."""
    N, G = datum.N, datum.group
    roots = [{root_of_unity(N, e * (N // d)): e for e in range(d)} for d in G.orders]
    bad = DatumError("group action is not diagonalizable with the expected eigenvalues")
    if all(r.keys() <= {i} for m in group + gamma for i, r in enumerate(m.nz_rows())):
        exps = [[roots[i].get(m[j, j]) for j in range(dim)] for mats in (group, gamma)
                for i, m in enumerate(mats)]
        if any(None in col for col in exps):
            raise bad
        rank = G.rank
        return [Weight(G, e[:rank], e[rank:]) for e in zip(*exps)], None
    one = CycScalar.one(N)
    blocks: list[tuple[tuple[int, ...], list[Row]]] = [((), [{i: one} for i in range(dim)])]
    mats = group + gamma
    for i, m in enumerate(mats):
        refined = []
        for exps, rows in blocks:
            span = Mat.from_cols(N, rows, dim)
            image = m * span
            found = 0
            for ev, e in roots[i % G.rank].items():
                eig = [span.matvec(t) for t in nullspace(image - span.scale(ev))]
                if eig:
                    found += len(eig)
                    refined.append((exps + (e,), eig))
            if found != len(rows):
                raise _commute_error(mats, i) or bad
        blocks = refined
    tagged = sorted(((Weight(G, exps[:G.rank], exps[G.rank:]), r) for exps, rows in blocks
                     for r in rows), key=lambda p: p[0].sort_key())
    return [w for w, _ in tagged], Mat.from_cols(N, [r for _, r in tagged], dim)


def _commute_error(mats: list[Mat], i: int) -> DatumError | None:
    """The error naming an earlier group or dual generator matrix that
    ``mats[i]`` does not commute with, if there is one.  When ``mats[i]``
    fails to diagonalize on the joint eigenspaces of the matrices before it,
    either it does not commute with one of them or it is not diagonalizable."""
    rank = len(mats) // 2

    def name(k: int) -> str:
        return f"{'group' if k < rank else 'gamma'}[{k % rank}]"

    for j in range(i):
        if mats[j] * mats[i] != mats[i] * mats[j]:
            return DatumError(f"group action matrices {name(j)} and {name(i)} do not commute")
    return None


def _parse(field: str, fn, *args):
    """``fn(*args)``; a malformed value is a one-line DatumError naming the field."""
    try:
        return fn(*args)
    except DatumError:
        raise
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise DatumError(f"malformed module field '{field}': {exc}") from exc


def _mat_to_json(m: Mat) -> list:
    return [[x.to_json() for x in r] for r in m.rows]


def _mat_from_json(datum: ValidatedDatum, dim: int, rows: list,
                   parsed: dict[str, CycScalar]) -> Mat:
    """The matrix of JSON scalars ``rows``.  ``parsed`` maps the repr of each
    entry read so far to its scalar: a module file repeats a few structure
    constants, so each distinct entry is parsed once."""
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise DatumError(f"matrix JSON is not {dim}x{dim}")
    N = datum.N

    def scalar(e) -> CycScalar:
        key = repr(e)
        x = parsed.get(key)
        if x is None:
            s = CycScalar.from_json(e)
            if N % s.order != 0:
                raise DatumError(f"scalar order {s.order} does not divide group exponent {N}")
            x = parsed[key] = s.to_order(N)
        return x

    return Mat.from_rows(N, [[scalar(e) for e in r] for r in rows], ncols=dim)


def intertwines(f: Mat, source: ModuleRep, target: ModuleRep) -> bool:
    """True when f (dim target x dim source) is a module map: it commutes
    with x and xi and joins only basis vectors of equal weight, which is the
    same as commuting with every group-like."""
    ws, wt = source.weights, target.weights
    return (all(wt[i] == ws[j] for i, row in enumerate(f.nz_rows()) for j in row)
            and f * source.act_x == target.act_x * f
            and f * source.act_xi == target.act_xi * f)


# ---------------------------------------------------------------------------
# submodules and quotients


class SubmoduleFacts(namedtuple("SubmoduleFacts", "ambient rows pivots module")):
    """A submodule in echelonized form together with its induced module.

    ``rows`` hold the basis of the submodule in ambient coordinates, one
    weight-pure vector per row, with unit leading entry at ``pivots[k]`` and
    no entry at any other row's pivot.  ``module`` is the induced module on
    that basis.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.rows)


def spin_submodule(mod: ModuleRep, seeds: list[Row]) -> SubmoduleFacts:
    """Smallest submodule containing the seed vectors.

    Seeds are split into weight-pure components (legitimate because every
    submodule is graded by the weight projectors in the group part of the
    algebra) and kept in one sparse reduced echelon basis (``Echelon``) per
    weight block.  The x and xi images of the basis rows are taken as one
    product each, the operator times the basis rows set as columns, and
    reduced against the blocks: when every image lies in the span, the span
    is closed and the images give the restricted action; otherwise the
    images that leave it extend the span, and the images of the new basis
    are taken again.  The basis depends only on the submodule, not on the
    seeds or their order.
    """
    datum = mod.datum
    blocks: dict[Weight, Echelon] = {}

    def add(v: Row) -> bool:
        """Extend the span by the weight components of v; True when it grew."""
        comps: dict[Weight, Row] = {}
        for k, x in v.items():
            comps.setdefault(mod.weights[k], {})[k] = x
        grew = False
        for w, comp in comps.items():
            if w not in blocks:
                blocks[w] = Echelon(datum.N)
            if blocks[w].add(comp) is not None:
                grew = True
        return grew

    for seed in seeds:
        add(seed)
    while True:
        basis = [(w, p) for w in sorted(blocks, key=Weight.sort_key) for p in blocks[w].pivots]
        rows = [blocks[w].rows[p] for w, p in basis]
        # column k of each product is op rows[k]
        span = Mat.from_cols(datum.N, rows, mod.dim)
        images = [op * span for op in (mod.act_x, mod.act_xi)]
        grew = [add(v) for image in images for v in image.cols()]
        if not any(grew):
            break

    pivots = [p for _, p in basis]
    # in a reduced echelon basis, the coefficient of a row in a vector of the
    # span is the vector's value at the row's pivot, so the restricted action
    # is the images' rows at the pivots
    labels = [mod.labels[p] for p in pivots]
    module = ModuleRep(datum, [w for w, _ in basis],
                       *(Mat(datum.N, (image.nz_rows()[p] for p in pivots), len(rows))
                         for image in images), labels)
    return SubmoduleFacts(mod, rows, pivots, module)


def quotient_module(mod: ModuleRep, sub: SubmoduleFacts) -> tuple[ModuleRep, Mat]:
    """Quotient of ``mod`` by a spun submodule, with the projection matrix.

    The quotient basis is the set of ambient basis vectors away from the
    submodule pivots; the projection eliminates pivot coordinates using the
    echelon rows and then restricts to those positions.
    """
    if sub.ambient is not mod:
        raise DatumError("submodule was computed in a different ambient module")
    datum = mod.datum
    pivots = set(sub.pivots)
    comp = [i for i in range(mod.dim) if i not in pivots]
    one = datum.one()
    proj_rows = []
    for c in comp:
        row = {c: one}
        row.update((p, -x) for p, r in zip(sub.pivots, sub.rows)
                   if (x := r.get(c)) is not None)
        proj_rows.append(row)
    projection = Mat(datum.N, proj_rows, mod.dim)
    at = {j: jq for jq, j in enumerate(comp)}

    def restrict(op: Mat) -> Mat:
        return Mat(datum.N, ({at[j]: x for j, x in row.items() if j in at}
                             for row in (projection * op).nz_rows()), len(comp))

    weights = [mod.weights[i] for i in comp]
    labels = [mod.labels[i] for i in comp]
    quot = ModuleRep(datum, weights, restrict(mod.act_x), restrict(mod.act_xi), labels)
    return quot, projection


def require_same_datum(*mods: ModuleRep) -> None:
    """Raise unless every module lives over the same datum as the first."""
    datum = mods[0].datum
    if any(m.datum is not datum and m.datum.to_json() != datum.to_json() for m in mods[1:]):
        raise DatumError("modules live over different group data")


def direct_sum(mods: list[ModuleRep]) -> ModuleRep:
    """External direct sum, with summand-prefixed labels."""
    if not mods:
        raise DatumError("direct sum needs at least one summand")
    require_same_datum(*mods)
    datum = mods[0].datum
    N = datum.N
    weights = [w for m in mods for w in m.weights]
    labels = [f"s{k}.{lab}" for k, m in enumerate(mods) for lab in m.labels]
    return ModuleRep(datum, weights, block_diag(N, [m.act_x for m in mods]),
                     block_diag(N, [m.act_xi for m in mods]), labels)
