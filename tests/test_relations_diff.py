"""The relation checks on weight tags against the dense reference.

``dense_verify_relations`` is the check as it was written on dense group and
dual matrices: every relation a matrix identity, group-likes raised to their
orders by repeated products.  It is kept here as the reference.
``ModuleRep.verify_relations`` must give the same (name, ok, detail) list on
every registry member and on perturbations of one to three entries of x or
xi, both on the weight pairs x and xi may join (on-weight) and off them, over
the standing datums A to F and the rank-two datum R2.  The perturbations
hypothesis draws change from run to run, so a fixed sweep of single-entry
perturbations also makes every relation kind fail, over a nilpotent and over
a non-nilpotent datum.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublerep.cyclo import q_factorial, root_of_unity
from doublerep.datum import NILPOTENT
from doublerep.linalg import Mat
from doublerep.repmod import ModuleRep

from .test_registry import members


def _mat_pow(m: Mat, k: int) -> Mat:
    out = Mat.identity(m.order, m.nrows)
    for _ in range(k):
        out = out * m
    return out


def dense_verify_relations(mod: ModuleRep) -> list[tuple]:
    d = mod.datum
    N, dim, rank = d.N, mod.dim, d.group.rank
    gens_exps = d.group.generators()
    gens = [Mat.diag(N, [w.value_g(g) for w in mod.weights]) for g in gens_exps]
    gams = [Mat.diag(N, [w.value_gamma_gen(i) for w in mod.weights]) for i in range(rank)]

    def word(mats, exps):
        out = Mat.identity(N, dim)
        for m, e in zip(mats, d.group.normalize(exps)):
            out = out * _mat_pow(m, e)
        return out

    I = Mat.identity(N, dim)
    checks = []

    def add(name, lhs, rhs):
        diff = lhs - rhs
        bad = [(i, min(r)) for i, r in enumerate(diff.nz_rows()) if r]
        detail = None
        if bad:
            i, j = bad[0]
            detail = f"entry ({i},{j}): {lhs[i, j]} != {rhs[i, j]}"
        checks.append((name, not bad, detail))

    X, Xi = mod.act_x, mod.act_xi
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

    a_pow_n = word(gens, d.group.power(d.a, d.n))
    add("x_power", _mat_pow(X, d.n), (a_pow_n - I).scale(d.alpha))
    add("xi_power", _mat_pow(Xi, d.n), Mat.zeros(N, dim, dim))

    for i in range(rank):
        chi_gi = d.chi.value(gens_exps[i])
        add(f"x_group[{i}]", X * gens[i], (gens[i] * X).scale(chi_gi))
        add(f"xi_group[{i}]", Xi * gens[i], (gens[i] * Xi).scale(chi_gi.inv()))
        add(f"xi_gamma[{i}]", Xi * gams[i], (gams[i] * Xi).scale(d.gamma_gen_at_a(i)))

    A = word(gens, d.a)
    C = word(gams, d.chi.exps)
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
    return checks


def tag_checks(mod: ModuleRep) -> list[tuple]:
    return [(c.name, c.ok, c.detail) for c in mod.verify_relations().checks]


@lru_cache(maxsize=None)
def registry_modules(key: str) -> tuple[ModuleRep, ...]:
    return tuple(fam.build(datum, l, lam, **params)
                 for datum, fam, l, lam, params in members(key))


KEYS = ["A", "B", "C", "E", "D", "F", "R2"]


@pytest.mark.parametrize("key", KEYS)
def test_tag_checks_match_dense_checks_on_registry(key):
    mods = registry_modules(key)
    assert mods
    for mod in mods:
        assert tag_checks(mod) == dense_verify_relations(mod)
        assert all(ok for _, ok, _ in tag_checks(mod))


def perturbed(mod: ModuleRep, op: str, cells, delta) -> ModuleRep:
    m = getattr(mod, f"act_{op}")
    rows = [list(row) for row in m.rows]
    for r, c in cells:
        rows[r][c] = rows[r][c] + delta
    new = Mat.from_rows(m.order, rows, ncols=mod.dim)
    x, xi = (new, mod.act_xi) if op == "x" else (mod.act_x, new)
    return ModuleRep(mod.datum, mod.weights, x, xi, mod.labels)


def entries(mod: ModuleRep, op: str, on_weight: bool) -> list[tuple[int, int]]:
    """Index pairs (r, c) where op may (on_weight) or may not map basis
    vector c into basis vector r: x multiplies weights by phi, xi by phi^-1."""
    shift = mod.datum.phi_weight.power(1 if op == "x" else -1)
    ws = mod.weights
    return [(r, c) for r in range(mod.dim) for c in range(mod.dim)
            if (ws[r] == ws[c].mul(shift)) == on_weight]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tag_checks_match_dense_checks_on_perturbations(data):
    small = [mod for key in KEYS for mod in registry_modules(key) if mod.dim <= 12]
    mod = data.draw(st.sampled_from(small))
    op = data.draw(st.sampled_from(["x", "xi"]))
    on_weight = data.draw(st.booleans())
    cells = entries(mod, op, on_weight)
    if not cells:
        on_weight = not on_weight
        cells = entries(mod, op, on_weight)
    # mostly one entry; a few entries at once also make several failures in
    # one row, whose first in row-major order the detail must name
    chosen = data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3, unique=True))
    N = mod.datum.N
    delta = root_of_unity(N, data.draw(st.integers(0, N - 1))) * mod.datum.scalar(
        data.draw(st.sampled_from([1, -1, 2, -3])))
    bad = perturbed(mod, op, chosen, delta)
    assert tag_checks(bad) == dense_verify_relations(bad)


def sweep_cases():
    """Each of the first two on-weight and off-weight cells of x and of xi,
    raised by 1, in up to 8 registry members of dimension at most 6 per
    datum: a fixed set of inputs on which every relation kind fails."""
    for key in KEYS:
        small = [mod for mod in registry_modules(key) if mod.dim <= 6][:8]
        for mod in small:
            one = mod.datum.one()
            for op in ("x", "xi"):
                for on_weight in (True, False):
                    for cell in entries(mod, op, on_weight)[:2]:
                        yield perturbed(mod, op, [cell], one)


def test_tag_checks_match_dense_checks_on_a_fixed_sweep():
    failed = {NILPOTENT: set(), "non-nilpotent": set()}
    cases = 0
    for bad in sweep_cases():
        checks = tag_checks(bad)
        assert checks == dense_verify_relations(bad)
        kind = NILPOTENT if bad.datum.kind == NILPOTENT else "non-nilpotent"
        failed[kind] |= {name.partition("[")[0] for name, ok, _ in checks if not ok}
        cases += 1
    assert cases == 386
    kinds = {"x_power", "xi_power", "x_group", "xi_group", "xi_gamma", "x_xi_commutator",
             "x_gamma"}
    assert failed == {NILPOTENT: kinds, "non-nilpotent": kinds}
