"""Finite-dimensional matrix modules over the rank-one double algebra.

A module is stored as explicit matrices for the distinguished generators:
one matrix per cyclic factor of the group G (the action of that factor's
standard generator), one per factor of the dual group, and the two skew
primitive generators x and xi.  Bases are tagged with the weight (joint
character of G x G-hat) of each basis vector whenever the group part acts
diagonally; every construction in this package preserves such tags, which
keeps submodule and homomorphism computations block-local.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .cyclo import CycScalar, q_factorial, root_of_unity
from .datum import NILPOTENT, DatumError, ValidatedDatum, Weight, datum_from_json
from .linalg import Echelon, Mat, Vec, block_diag, nullspace


# ---------------------------------------------------------------------------
# relation checking results


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str | None = None


@dataclass
class RelationReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        bad = self.failures()
        if not bad:
            return f"ok ({len(self.checks)} relation checks)"
        lines = [f"FAILED {len(bad)}/{len(self.checks)} relation checks"]
        for c in bad:
            lines.append(f"  {c.name}: {c.detail}")
        return "\n".join(lines)


def _mat_pow(m: Mat, k: int) -> Mat:
    out = Mat.identity(m.order, m.nrows)
    for _ in range(k):
        out = out * m
    return out


def _is_diagonal(m: Mat) -> bool:
    return all(r.keys() <= {i} for i, r in enumerate(m.nz_rows()))


# ---------------------------------------------------------------------------
# the module class


class ModuleRep:
    """A module given by generator matrices over a fixed validated datum.

    Matrices act on column vectors; the matrix of a product st of algebra
    elements is S*T.  ``weights`` tags each basis vector with its joint
    character when the basis diagonalizes the group actions.
    """

    def __init__(self, datum: ValidatedDatum, act_group, act_gamma, act_x: Mat,
                 act_xi: Mat, labels=None, weights=None):
        self.datum = datum
        self.act_group = tuple(act_group)
        self.act_gamma = tuple(act_gamma)
        self.act_x = act_x
        self.act_xi = act_xi
        dim = act_x.nrows
        self.dim = dim
        rank = datum.group.rank
        if len(self.act_group) != rank or len(self.act_gamma) != rank:
            raise DatumError(
                f"need one matrix per cyclic factor: got {len(self.act_group)} group"
                f" and {len(self.act_gamma)} dual matrices for rank {rank}")
        for m in (*self.act_group, *self.act_gamma, act_x, act_xi):
            if m.nrows != dim or m.ncols != dim:
                raise DatumError(f"generator matrix is {m.nrows}x{m.ncols}, expected {dim}x{dim}")
        self.labels = tuple(labels) if labels is not None else tuple(f"e{i}" for i in range(dim))
        if len(self.labels) != dim:
            raise DatumError(f"{len(self.labels)} labels for dimension {dim}")
        self.weights = tuple(weights) if weights is not None else None
        if self.weights is not None and len(self.weights) != dim:
            raise DatumError(f"{len(self.weights)} weight tags for dimension {dim}")

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_weight_action(datum: ValidatedDatum, weights, x_entries: dict,
                           xi_entries: dict, labels=None) -> ModuleRep:
        """Build a module from weight tags and sparse x / xi actions.

        ``x_entries[(i, j)]`` is the coefficient of basis vector i in the
        image of basis vector j; group and dual generators act diagonally
        through the weight tags.
        """
        weights = tuple(weights)
        dim = len(weights)
        N = datum.N
        rank = datum.group.rank
        act_group = []
        act_gamma = []
        for i in range(rank):
            gen = tuple(1 if k == i else 0 for k in range(rank))
            act_group.append(Mat.diag(N, [w.value_g(gen) for w in weights]) if dim
                             else Mat.zeros(N, 0, 0))
            act_gamma.append(Mat.diag(N, [w.value_gamma_gen(i) for w in weights]) if dim
                             else Mat.zeros(N, 0, 0))
        act_x = _mat_from_entries(datum, dim, x_entries)
        act_xi = _mat_from_entries(datum, dim, xi_entries)
        return ModuleRep(datum, act_group, act_gamma, act_x, act_xi, labels, weights)

    # -- generator words ----------------------------------------------------

    def group_element_matrix(self, g) -> Mat:
        g = self.datum.group.normalize(g)
        out = Mat.identity(self.datum.N, self.dim)
        for m, e in zip(self.act_group, g):
            out = out * _mat_pow(m, e)
        return out

    def char_matrix(self, cexps) -> Mat:
        cexps = self.datum.group.normalize(cexps)
        out = Mat.identity(self.datum.N, self.dim)
        for m, e in zip(self.act_gamma, cexps):
            out = out * _mat_pow(m, e)
        return out

    # -- relation verification ----------------------------------------------

    def verify_relations(self) -> RelationReport:
        """Check every defining relation of the double algebra on this module."""
        d = self.datum
        N, dim, rank = d.N, self.dim, d.group.rank
        I = Mat.identity(N, dim)
        checks: list[CheckResult] = []

        def add(name: str, lhs: Mat, rhs: Mat) -> None:
            diff = lhs - rhs
            bad = [(i, min(r)) for i, r in enumerate(diff.nz_rows()) if r]
            detail = None
            if bad:
                i, j = bad[0]
                detail = f"entry ({i},{j}): {lhs[i, j]} != {rhs[i, j]}"
            checks.append(CheckResult(name, not bad, detail))

        X, Xi = self.act_x, self.act_xi
        gens, gams = self.act_group, self.act_gamma
        for i in range(rank):
            add(f"group_order[{i}]", _mat_pow(gens[i], d.group.orders[i]), I)
            add(f"gamma_order[{i}]", _mat_pow(gams[i], d.group.orders[i]), I)
        for i in range(rank):
            for j in range(i + 1, rank):
                add(f"group_commute[{i},{j}]", gens[i] * gens[j], gens[j] * gens[i])
                add(f"gamma_commute[{i},{j}]", gams[i] * gams[j], gams[j] * gams[i])
        for i in range(rank):
            for j in range(rank):
                add(f"group_gamma_commute[{i},{j}]", gens[i] * gams[j], gams[j] * gens[i])

        a_pow_n = self.group_element_matrix(d.group.power(d.a, d.n))
        add("x_power", _mat_pow(X, d.n), (a_pow_n - I).scale(d.alpha))
        add("xi_power", _mat_pow(Xi, d.n), Mat.zeros(N, dim, dim))

        for i in range(rank):
            gen = tuple(1 if k == i else 0 for k in range(rank))
            chi_gi = d.chi.value(gen)
            add(f"x_group[{i}]", X * gens[i], (gens[i] * X).scale(chi_gi))
            add(f"xi_group[{i}]", Xi * gens[i], (gens[i] * Xi).scale(chi_gi.inv()))
            add(f"xi_gamma[{i}]", Xi * gams[i], (gams[i] * Xi).scale(d.gamma_gen_at_a(i)))

        A = self.group_element_matrix(d.a)
        C = self.char_matrix(d.chi.exps)
        add("x_xi_commutator", X * Xi - Xi * X, A - C)

        if d.kind == NILPOTENT:
            for i in range(rank):
                lhs = (X * gams[i]).scale(d.gamma_gen_at_a(i))
                add(f"x_gamma[{i}]", lhs, gams[i] * X)
        else:
            xi_top = _mat_pow(Xi, d.n - 1)
            fac = q_factorial(d.n - 1, d.rho)
            for i in range(rank):
                ga = d.gamma_gen_at_a(i)
                lhs = (X * gams[i]).scale(ga)
                ci = (ga ** d.n - d.one()) / fac
                rhs = gams[i] * X + (gams[i] * (A.scale(d.rho) - C) * xi_top).scale(ci)
                add(f"x_gamma[{i}]", lhs, rhs)
        return RelationReport(checks)

    # -- weight structure ----------------------------------------------------

    def weight_spaces(self) -> dict[Weight, list[int]]:
        """Basis indices grouped by weight tag, sorted by weight."""
        if self.weights is None:
            raise DatumError("basis is not weight-tagged; use as_weight_diagonal() first")
        out: dict[Weight, list[int]] = {}
        for idx, w in enumerate(self.weights):
            out.setdefault(w, []).append(idx)
        return dict(sorted(out.items(), key=lambda kv: kv[0].sort_key()))

    def weight_multiset(self) -> tuple:
        if self.weights is None:
            raise DatumError("basis is not weight-tagged; use as_weight_diagonal() first")
        return tuple(sorted(w.sort_key() for w in self.weights))

    def as_weight_diagonal(self) -> tuple[ModuleRep, Mat]:
        """Return a weight-tagged isomorphic copy plus the change of basis.

        The returned matrix has the new basis vectors as columns (written in
        the old coordinates).  Requires the group and dual actions to be
        simultaneously diagonalizable, which holds whenever the relations are
        satisfied.
        """
        N, dim = self.datum.N, self.dim
        if self.weights is not None:
            return self, Mat.identity(N, dim)
        group = self.datum.group
        one = CycScalar.one(N)
        zero = CycScalar.zero(N)
        unit_rows = [tuple(one if k == i else zero for k in range(dim)) for i in range(dim)]
        blocks: list[tuple[list[Vec], list[int], list[int]]] = [(unit_rows, [], [])]
        for mats, which in ((self.act_group, 0), (self.act_gamma, 1)):
            for i, M in enumerate(mats):
                d_i = group.orders[i]
                refined: list[tuple[list[Vec], list[int], list[int]]] = []
                for rows, gex, hex_ in blocks:
                    found = 0
                    for e in range(d_i):
                        ev = root_of_unity(N, (e * (N // d_i)) % N)
                        cols = []
                        for r in rows:
                            img = M.matvec(r)
                            cols.append(tuple(img[k] - ev * r[k] for k in range(dim)))
                        ker = nullspace(Mat.from_cols(N, cols, nrows=dim))
                        if not ker:
                            continue
                        span = Mat.from_cols(N, rows, nrows=dim)
                        newrows = [span.matvec(t) for t in ker]
                        found += len(newrows)
                        if which == 0:
                            refined.append((newrows, gex + [e], hex_))
                        else:
                            refined.append((newrows, gex, hex_ + [e]))
                    if found != len(rows):
                        raise DatumError("group action is not diagonalizable with the expected eigenvalues")
                blocks = refined
        tagged: list[tuple[Weight, Vec]] = []
        for rows, gex, hex_ in blocks:
            w = Weight(group, tuple(gex), tuple(hex_))
            for r in rows:
                tagged.append((w, r))
        tagged.sort(key=lambda p: p[0].sort_key())
        weights = [w for w, _ in tagged]
        basis = [r for _, r in tagged]
        from .linalg import inv as _inv
        P = Mat.from_cols(N, basis, nrows=dim)
        Pinv = _inv(P)
        new = ModuleRep(
            self.datum,
            [Pinv * m * P for m in self.act_group],
            [Pinv * m * P for m in self.act_gamma],
            Pinv * self.act_x * P,
            Pinv * self.act_xi * P,
            None,
            weights,
        )
        return new, P

    # -- kernels ---------------------------------------------------------

    def x_kernel(self) -> list[Vec]:
        return nullspace(self.act_x)

    def xi_kernel(self) -> list[Vec]:
        return nullspace(self.act_xi)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "datum": self.datum.to_json(),
            "dim": self.dim,
            "labels": list(self.labels),
            "matrices": {
                "group": [_mat_to_json(m) for m in self.act_group],
                "gamma": [_mat_to_json(m) for m in self.act_gamma],
                "x": _mat_to_json(self.act_x),
                "xi": _mat_to_json(self.act_xi),
            },
        }

    @staticmethod
    def from_json(obj: dict) -> ModuleRep:
        if not isinstance(obj, dict):
            raise DatumError("module JSON must be an object")
        for key in ("datum", "dim", "matrices"):
            if key not in obj:
                raise DatumError(f"module JSON missing '{key}'")
        datum = datum_from_json(obj["datum"])
        dim = int(obj["dim"])
        mats = obj["matrices"]
        for key in ("group", "gamma", "x", "xi"):
            if key not in mats:
                raise DatumError(f"module JSON missing matrix '{key}'")
        rank = datum.group.rank
        if len(mats["group"]) != rank or len(mats["gamma"]) != rank:
            raise DatumError(f"need {rank} group and dual matrices")
        act_group = [_mat_from_json(datum, dim, m) for m in mats["group"]]
        act_gamma = [_mat_from_json(datum, dim, m) for m in mats["gamma"]]
        act_x = _mat_from_json(datum, dim, mats["x"])
        act_xi = _mat_from_json(datum, dim, mats["xi"])
        labels = obj.get("labels")
        mod = ModuleRep(datum, act_group, act_gamma, act_x, act_xi, labels, None)
        mod._infer_weights()
        return mod

    def _infer_weights(self) -> None:
        """Tag the basis with weights when the group actions are diagonal."""
        for m in (*self.act_group, *self.act_gamma):
            if not _is_diagonal(m):
                return
        group = self.datum.group
        N = self.datum.N
        weights = []
        for j in range(self.dim):
            gexps = []
            hexps = []
            for i in range(group.rank):
                d_i = group.orders[i]
                for mats, exps in ((self.act_group, gexps), (self.act_gamma, hexps)):
                    v = mats[i][j, j]
                    for e in range(d_i):
                        if v == root_of_unity(N, (e * (N // d_i)) % N):
                            exps.append(e)
                            break
                    else:
                        return
            weights.append(Weight(group, tuple(gexps), tuple(hexps)))
        self.weights = tuple(weights)


def _mat_from_entries(datum: ValidatedDatum, dim: int, entries: dict) -> Mat:
    rows = [[datum.zero() for _ in range(dim)] for _ in range(dim)]
    for (i, j), val in entries.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise DatumError(f"entry ({i},{j}) outside dimension {dim}")
        rows[i][j] = datum.scalar(val)
    return Mat.from_rows(datum.N, rows, ncols=dim)


def _mat_to_json(m: Mat) -> list:
    return [[m[i, j].to_json() for j in range(m.ncols)] for i in range(m.nrows)]


def _mat_from_json(datum: ValidatedDatum, dim: int, rows: list) -> Mat:
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise DatumError(f"matrix JSON is not {dim}x{dim}")
    out = []
    for r in rows:
        row = []
        for e in r:
            s = CycScalar.from_json(e)
            if datum.N % s.order != 0:
                raise DatumError(f"scalar order {s.order} does not divide group exponent {datum.N}")
            row.append(s.to_order(datum.N))
        out.append(row)
    return Mat.from_rows(datum.N, out, ncols=dim)


def matrices_equal(a: ModuleRep, b: ModuleRep) -> bool:
    """True when the two modules have identical generator matrices."""
    if a.dim != b.dim or len(a.act_group) != len(b.act_group):
        return False
    return (all(x == y for x, y in zip(a.act_group, b.act_group))
            and all(x == y for x, y in zip(a.act_gamma, b.act_gamma))
            and a.act_x == b.act_x and a.act_xi == b.act_xi)


# ---------------------------------------------------------------------------
# submodules and quotients


class SubmoduleFacts:
    """A submodule in echelonized form together with its induced module.

    ``rows`` hold the basis of the submodule in ambient coordinates, one
    weight-pure vector per row, with unit leading entry at ``pivots[k]`` and
    zeros at every other row's pivot.  ``module`` is the induced module on
    that basis and ``inclusion`` the ambient-by-sub matrix of the embedding.
    """

    def __init__(self, ambient: ModuleRep, rows: list[Vec], pivots: list[int],
                 module: ModuleRep, inclusion: Mat):
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self.module = module
        self.inclusion = inclusion

    @property
    def dim(self) -> int:
        return len(self.rows)


def spin_submodule(mod: ModuleRep, seeds: list[Vec]) -> SubmoduleFacts:
    """Smallest submodule containing the seed vectors.

    Seeds are split into weight-pure components (legitimate because every
    submodule is graded by the weight projectors in the group part of the
    algebra), then closed under the x and xi actions with one sparse
    reduced echelon basis (``Echelon``) per weight block.  The basis depends
    only on the submodule, not on the seeds or their order.
    """
    if mod.weights is None:
        raise DatumError("ambient basis is not weight-tagged; use as_weight_diagonal() first")
    datum = mod.datum
    dim = mod.dim
    blocks: dict[Weight, Echelon] = {}

    def split(v: Vec) -> list[tuple[Weight, dict[int, CycScalar]]]:
        comps: dict[Weight, dict[int, CycScalar]] = {}
        for k, x in enumerate(v):
            if x:
                comps.setdefault(mod.weights[k], {})[k] = x
        return list(comps.items())

    queue: deque[Vec] = deque()

    def add(v: Vec) -> None:
        for w, comp in split(v):
            if w not in blocks:
                blocks[w] = Echelon(datum.N, dim)
            p = blocks[w].add(comp)
            if p is not None:
                queue.append(blocks[w].dense(p))

    for seed in seeds:
        add(tuple(seed))
    while queue:
        v = queue.popleft()
        add(mod.act_x.matvec(v))
        add(mod.act_xi.matvec(v))

    basis: list[Vec] = []
    pivots: list[int] = []
    sub_weights: list[Weight] = []
    for w in sorted(blocks, key=Weight.sort_key):
        for p in blocks[w].pivots:
            basis.append(blocks[w].dense(p))
            pivots.append(p)
            sub_weights.append(w)
    at = {p: idx for idx, p in enumerate(pivots)}

    def express(v: Vec) -> dict[int, CycScalar]:
        """Coordinates of v in the basis: in a reduced echelon basis, the
        coefficient of a row is the value of v at its pivot."""
        coeffs = {}
        for w, comp in split(v):
            if w not in blocks or blocks[w].reduce(comp):
                raise DatumError("vector leaves the submodule span")
            coeffs.update((at[k], c) for k, c in comp.items() if k in at)
        return coeffs

    x_entries = {}
    xi_entries = {}
    for j, b in enumerate(basis):
        for op, entries in ((mod.act_x, x_entries), (mod.act_xi, xi_entries)):
            for i, c in express(op.matvec(b)).items():
                entries[(i, j)] = c
    labels = [mod.labels[p] for p in pivots]
    module = ModuleRep.from_weight_action(datum, sub_weights, x_entries, xi_entries, labels)
    inclusion = Mat.from_cols(datum.N, list(basis), nrows=dim)
    return SubmoduleFacts(mod, basis, pivots, module, inclusion)


def quotient_module(mod: ModuleRep, sub: SubmoduleFacts) -> tuple[ModuleRep, Mat]:
    """Quotient of ``mod`` by a spun submodule, with the projection matrix.

    The quotient basis is the set of ambient basis vectors away from the
    submodule pivots; the projection eliminates pivot coordinates using the
    echelon rows and then restricts to those positions.
    """
    if sub.ambient is not mod:
        raise DatumError("submodule was computed in a different ambient module")
    datum = mod.datum
    dim = mod.dim
    zero = datum.zero()
    pivset = {p: idx for idx, p in enumerate(sub.pivots)}
    comp = [i for i in range(dim) if i not in pivset]
    proj_rows = []
    for c in comp:
        row = [zero] * dim
        row[c] = datum.one()
        for p, idx in pivset.items():
            coeff = sub.rows[idx][c]
            if not coeff.is_zero():
                row[p] = row[p] - coeff
        proj_rows.append(row)
    projection = Mat.from_rows(datum.N, proj_rows, ncols=dim)
    q = len(comp)
    x_entries = {}
    xi_entries = {}
    for jq, j in enumerate(comp):
        for op, entries in ((mod.act_x, x_entries), (mod.act_xi, xi_entries)):
            col = op.col(j)
            img = projection.matvec(col)
            for i in range(q):
                if not img[i].is_zero():
                    entries[(i, jq)] = img[i]
    weights = [mod.weights[i] for i in comp] if mod.weights is not None else None
    if weights is None:
        raise DatumError("ambient basis is not weight-tagged; use as_weight_diagonal() first")
    labels = [mod.labels[i] for i in comp]
    quot = ModuleRep.from_weight_action(datum, weights, x_entries, xi_entries, labels)
    return quot, projection


def direct_sum(mods: list[ModuleRep]) -> ModuleRep:
    """External direct sum, with summand-prefixed labels."""
    if not mods:
        raise DatumError("direct sum needs at least one summand")
    datum = mods[0].datum
    ref = datum.to_json()
    for m in mods[1:]:
        if m.datum.to_json() != ref:
            raise DatumError("direct sum of modules over different data")
    N = datum.N
    rank = datum.group.rank
    act_group = [block_diag(N, [m.act_group[i] for m in mods]) for i in range(rank)]
    act_gamma = [block_diag(N, [m.act_gamma[i] for m in mods]) for i in range(rank)]
    act_x = block_diag(N, [m.act_x for m in mods])
    act_xi = block_diag(N, [m.act_xi for m in mods])
    labels = [f"s{k}.{lab}" for k, m in enumerate(mods) for lab in m.labels]
    weights = None
    if all(m.weights is not None for m in mods):
        weights = [w for m in mods for w in m.weights]
    return ModuleRep(datum, act_group, act_gamma, act_x, act_xi, labels, weights)
