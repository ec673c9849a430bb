"""Acceptance suite: ten exact end-to-end checks, one pass/fail line each.

Every check is exact (tolerance zero).  Standing data: datum A (Z_2, m = 1),
datum B (Z_4, nilpotent, m = 2), datum C (Z_4, non-nilpotent, m = 2); datum E
(Z_9, n = 3) enters only as the negative control for criterion 2, where n = 2
cannot expose a mis-normalized closing-edge subscript.
"""

import json
import time

from doublerep import cli, homology
from doublerep.constructors import (band, projective, simple, t1, t1bar,
                                    t_chain, t_chain_bar, verma, w1, w_band)
from doublerep.linalg import Mat, solve_right
from doublerep.repmod import direct_sum, quotient_module, spin_submodule

from .conftest import make_datum
from .reference import same_span
from .test_constructors import literal_closing_misread

M_ETAS = (1, -1, 2)
W_ETAS = (1, -1, 2, 0, "inf")
MAX_T = 3
MAX_S = 3


def record(num: int, name: str, failures: list, started: float, count: int):
    elapsed = time.monotonic() - started
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status} [{count} checks, {elapsed:.1f}s]"
    if failures:
        line += " :: " + "; ".join(str(f) for f in failures[:5])
    print(line)
    assert not failures, f"{name}: {failures[:5]}"


# ---------------------------------------------------------------------------


def test_criterion_01_simple_counts():
    t0 = time.monotonic()
    failures, count = [], 0
    expected_literal = {"A": {1: 2, 2: 2}, "B": {1: 4, 2: 12}}
    for key in ("A", "B", "C"):
        d = make_datum(key)
        tally: dict = {}
        for w in d.enumerate_weights():
            l = d.classify_weight(w).l
            tally[l] = tally.get(l, 0) + 1
        k = len(d.kernel_K())
        size2 = d.group.size ** 2
        formula = {l: k for l in range(1, d.n)}
        formula[d.n] = size2 - (d.n - 1) * k
        count += 1
        if tally != formula:
            failures.append(f"{key}: counted {tally}, formula {formula}")
        if key in expected_literal and tally != expected_literal[key]:
            failures.append(f"{key}: counted {tally}, expected {expected_literal[key]}")
        if d.simple_counts() != tally:
            failures.append(f"{key}: simple_counts() disagrees with enumeration")
    record(1, "simple module counts", failures, t0, count)


def test_criterion_02_relation_soundness():
    t0 = time.monotonic()
    failures, count = [], 0

    def check(mod, what):
        nonlocal count
        count += 1
        rep = mod.verify_relations()
        if not rep.ok:
            failures.append(f"{what}: {[c.name for c in rep.failures()][:3]}")

    for key in ("A", "B", "C"):
        d = make_datum(key)
        n = d.n
        for lam in d.enumerate_weights():
            check(verma(d, lam), f"{key} Z({lam.label()})")
            l = d.classify_weight(lam).l
            check(simple(d, l, lam), f"{key} V({l},{lam.label()})")
            check(simple(d, l, lam, "standard"), f"{key} V({l},{lam.label()}) std")
        for l in range(1, n):
            for lam in d.weights_in_class(l):
                name = f"{key} (l={l},{lam.label()})"
                check(projective(d, l, lam), f"P {name}")
                check(t1(d, l, lam), f"t1 {name}")
                check(t1bar(d, l, lam), f"t1bar {name}")
                for t in range(1, MAX_T + 1):
                    check(t_chain(d, l, lam, t), f"T_{t} {name}")
                    check(t_chain_bar(d, l, lam, t), f"Tbar_{t} {name}")
                    if d.m > 1:
                        for eta in M_ETAS:
                            check(band(d, l, lam, eta, t), f"M_{t}(eta={eta}) {name}")
                    else:
                        for eta in W_ETAS:
                            check(w_band(d, l, lam, eta, t), f"W_{t}(eta={eta}) {name}")
                if d.m == 1:
                    for eta in W_ETAS:
                        check(w1(d, l, lam, eta), f"w1(eta={eta}) {name}")
                for s in range(-MAX_S, MAX_S + 1):
                    check(homology.omega_power(d, l, lam, s), f"Omega^{s}V {name}")

    # negative control: the closing-edge coefficient with its subscript read
    # literally (basis index instead of class index) must fail verification
    e = make_datum("E")
    lam = e.weights_in_class(1)[0]
    bad, y_lit = literal_closing_misread(e, 1, lam)
    y, _ = e.yz_coeff(1, lam)
    count += 1
    if y_lit == y:
        failures.append("negative control: literal coefficient coincides at l=1,n=3")
    if bad.verify_relations().ok:
        failures.append("negative control: mis-normalized table passed verification")
    # where the literal and normalized subscripts coincide, the table is fine
    lam2 = e.weights_in_class(2)[0]
    good, _ = literal_closing_misread(e, 2, lam2)
    count += 1
    if not good.verify_relations().ok:
        failures.append("control: normalized table failed at l = n-1")
    record(2, "relation soundness with negative control", failures, t0, count)


def test_criterion_03_projective_structure():
    t0 = time.monotonic()
    failures, count = [], 0
    for key in ("A", "B", "C"):
        d = make_datum(key)
        n = d.n
        for l in range(1, n):
            for lam in d.weights_in_class(l):
                count += 1
                name = f"{key} P({l},{lam.label()})"
                p = projective(d, l, lam)
                if p.dim != 2 * n:
                    failures.append(f"{name}: dim {p.dim}")
                    continue
                factors = homology.composition_factors(p)
                if sum(f["mult"] for f in factors) != 4:
                    failures.append(f"{name}: length != 4")
                lt = homology.loewy_type(p)
                if lt.rl != 3:
                    failures.append(f"{name}: rl {lt.rl}")
                soc = homology.socle(p)
                if homology.is_isomorphic(soc.module, simple(d, l, lam)).verdict != "yes":
                    failures.append(f"{name}: soc is not V({l})")
                # soc^2/soc multiset
                q, proj = quotient_module(p, soc)
                mid = homology.loewy_structure(q).socle
                slam = d.sigma(lam).label()
                silam = d.sigma_inv(lam).label()
                want: dict = {}
                for w in (slam, silam):
                    want[(n - l, w)] = want.get((n - l, w), 0) + 1
                got = {(l, w.label()): mult for (l, w), mult in mid}
                if got != want:
                    failures.append(f"{name}: soc^2/soc {got} != {want}")
                # rad = soc^2 and rad^2 = soc as subspaces
                rad = homology.radical(p)
                soc2_rows = list(soc.rows)
                ok_lift = True
                for wrow in homology.socle(q).rows:
                    lift = solve_right(proj, Mat.from_cols(d.N, [wrow], nrows=q.dim))
                    if lift is None:
                        ok_lift = False
                        break
                    soc2_rows.append(lift.cols()[0])
                if not ok_lift or not same_span(soc2_rows, rad.rows, d.N):
                    failures.append(f"{name}: rad != soc^2")
                rad2 = homology.radical(rad.module)
                inclusion = Mat.from_cols(d.N, rad.rows, p.dim)
                rad2_rows = [inclusion.matvec(r) for r in rad2.rows]
                if not same_span(rad2_rows, soc.rows, d.N):
                    failures.append(f"{name}: rad^2 != soc")
    record(3, "projective cover structure", failures, t0, count)


def test_criterion_04_verma_dichotomy():
    t0 = time.monotonic()
    failures, count = [], 0
    for key in ("A", "B", "C"):
        d = make_datum(key)
        for lam in d.enumerate_weights():
            count += 1
            name = f"{key} Z({lam.label()})"
            cls = d.classify_weight(lam)
            z = verma(d, lam)
            soc = homology.socle(z)
            simple_now = soc.dim == z.dim
            expect_simple = cls.l == d.n  # ratio outside {1, rho, .., rho^{n-2}}
            if simple_now != expect_simple:
                failures.append(f"{name}: simple={simple_now}, expected {expect_simple}")
                continue
            if expect_simple:
                continue
            s = cls.d  # lambda(a chi^{-1}) = rho^s
            facts = spin_submodule(z, [{s + 1: d.one()}])
            if facts.dim != d.n - cls.l:
                failures.append(f"{name}: spin dim {facts.dim} != {d.n - cls.l}")
            # uniqueness: socle is exactly this submodule and the length is 2,
            # so every proper nonzero submodule contains and equals it
            if soc.rows != facts.rows:
                failures.append(f"{name}: socle differs from spin(x^{s + 1})")
            if len(homology.composition_factors(z)) != 2:
                failures.append(f"{name}: length != 2")
    record(4, "verma dichotomy", failures, t0, count)


def test_criterion_05_syzygy_identities():
    t0 = time.monotonic()
    failures, count = [], 0

    def certify(a, b, what):
        nonlocal count
        count += 1
        v = homology.is_isomorphic(a, b)
        if v.verdict != "yes":
            failures.append(f"{what}: {v.verdict} ({v.reason})")

    for key in ("B", "C"):
        d = make_datum(key)
        n, m = d.n, d.m
        for l in range(1, n):
            for lam in d.weights_in_class(l):
                lab = f"{key}(l={l},{lam.label()})"
                certify(homology.omega(t1(d, l, lam), 2),
                        t1(d, l, d.tau(lam)), f"Omega^2 T_1 {lab}")
                certify(homology.omega(t1bar(d, l, lam), 2),
                        t1bar(d, l, d.tau(lam, -1)), f"Omega^2 Tbar_1 {lab}")
                for eta in (1, 2):
                    m1 = band(d, l, lam, eta, 1)
                    sign_eta = eta if m % 2 == 0 else -eta
                    certify(homology.omega(m1, -1),
                            band(d, n - l, d.sigma_inv(lam), sign_eta, 1),
                            f"Omega^-1 M_1(eta={eta}) {lab}")
                    certify(homology.omega(m1, 2), m1, f"Omega^2 M_1(eta={eta}) {lab}")
    a = make_datum("A")
    for l in range(1, a.n):
        for lam in a.weights_in_class(l):
            lab = f"A(l={l},{lam.label()})"
            for eta in W_ETAS:
                wmod = w_band(a, l, lam, eta, 1)
                certify(homology.omega(wmod, 2), wmod, f"Omega^2 W_1(eta={eta}) {lab}")
                if eta == "inf":
                    neg = "inf"
                else:
                    neg = -eta
                certify(homology.omega(wmod, 1),
                        w_band(a, a.n - l, a.sigma(lam), neg, 1),
                        f"Omega W_1(eta={eta}) {lab}")
    record(5, "syzygy identities", failures, t0, count)


def test_criterion_06_isomorphism_grid():
    t0 = time.monotonic()
    failures, count = [], 0

    def tau_orbit_labels(d, lam):
        return {w.label() for w in d.tau_orbit(lam)}

    for key in ("B", "C", "A"):
        d = make_datum(key)
        n = d.n
        entries = []  # (family, l, t, eta, lam, tauorbit, module)
        for l in range(1, n):
            for lam in d.weights_in_class(l):
                for t in (1, 2):
                    if d.m > 1:
                        entries.append(("T", l, t, None, lam.label(), None,
                                        t_chain(d, l, lam, t)))
                        entries.append(("Tbar", l, t, None, lam.label(), None,
                                        t_chain_bar(d, l, lam, t)))
                        for eta in M_ETAS:
                            entries.append(("M", l, t, str(eta), lam.label(),
                                            frozenset(tau_orbit_labels(d, lam)),
                                            band(d, l, lam, eta, t)))
                    else:
                        # at m = 1 the chain families coincide with the
                        # degenerate band parameters, so only W enters the grid
                        for eta in W_ETAS:
                            entries.append(("W", l, t, str(eta), lam.label(), None,
                                            w_band(d, l, lam, eta, t)))
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                fa, la_, ta, ea, wa, oa, ma = entries[i]
                fb, lb, tb, eb, wb, ob, mb = entries[j]
                if fa == "M" and fb == "M":
                    same_weight = wb in oa
                else:
                    same_weight = wa == wb
                expect = (fa == fb and la_ == lb and ta == tb and ea == eb
                          and same_weight)
                v = homology.is_isomorphic(ma, mb)
                count += 1
                want = "yes" if expect else "no"
                if v.verdict != want:
                    failures.append(f"{key} {entries[i][:5]} vs {entries[j][:5]}: "
                                    f"{v.verdict}, expected {want}")
    record(6, "isomorphism grid", failures, t0, count)


def test_criterion_07_ar_sequences():
    t0 = time.monotonic()
    failures, count = [], 0
    plan = [("4.5", ("B", "C"), 1), ("4.9", ("B", "C"), 2), ("4.10", ("B", "C"), 2),
            ("4.20", ("B", "C"), 2), ("4.28", ("A",), 2)]
    for lemma, keys, max_t in plan:
        for key in keys:
            d = make_datum(key)
            seqs = homology.ar_sequences_for_lemma(d, lemma, max_t=max_t)
            if not seqs:
                failures.append(f"{key} {lemma}: no sequences generated")
            for name, a, mids, c in seqs:
                count += 1
                found = homology.ses_candidate(a, mids, c)
                if found is None:
                    failures.append(f"{key} {lemma} {name}: no exact sequence")
                    continue
                f, g = found
                rep = homology.ar_candidate_check(f, g)
                if not rep.exact:
                    failures.append(f"{key} {lemma} {name}: not exact")
                if rep.split:
                    failures.append(f"{key} {lemma} {name}: splits")
                if rep.left_end_local != 1 or rep.right_end_local != 1:
                    failures.append(f"{key} {lemma} {name}: ends not local")
                if rep.translate_verdict != "yes":
                    failures.append(f"{key} {lemma} {name}: left != Omega^2(right)")
                if rep.radical_factors is not True:
                    failures.append(f"{key} {lemma} {name}: rad End(C) does not factor through g")
    record(7, "almost-split sequences", failures, t0, count)


def test_criterion_08_omega_types():
    t0 = time.monotonic()
    failures, count = [], 0
    d = make_datum("B")
    for lam in d.weights_in_class(1):
        for sign in (1, -1):
            mod = simple(d, 1, lam)
            for s in range(1, MAX_S + 1):
                mod = homology.omega(mod, sign)
                count += 1
                lt = homology.loewy_type(mod)
                got = (lt.s, lt.t)
                want = (s + 1, s) if sign == 1 else (s, s + 1)
                if got != want:
                    failures.append(
                        f"Omega^{sign * s}V(1,{lam.label()}): type {got} != {want}")
    record(8, "types of syzygy powers", failures, t0, count)


def test_criterion_09_classification_sweep(capsys, tmp_path):
    t0 = time.monotonic()
    failures, count = [], 0
    for key in ("A", "B"):
        path = tmp_path / f"datum_{key}.json"
        path.write_text(json.dumps(make_datum(key).to_json()))
        code = cli.main(["classify", str(path), "--max-t", str(MAX_T),
                         "--max-s", str(MAX_S), "--etas", "1,-1,2,0,inf",
                         "--format", "json"])
        out = capsys.readouterr().out
        if code != 0:
            failures.append(f"{key}: classify exited {code}")
            continue
        payload = json.loads(out)
        count += payload["summary"]["modules"] + payload["pairwise"]["pairs"]
        if payload["truncated"]:
            failures.append(f"{key}: truncated under default budget")
        if not payload["summary"]["all_end_local_one"]:
            bad = [e["tag"] for e in payload["entries"] if e["end_local_dim"] != 1]
            failures.append(f"{key}: decomposable entries {bad[:3]}")
        if not payload["summary"]["all_relations_ok"]:
            failures.append(f"{key}: relation failures in manifest")
        if not payload["summary"]["all_types_ok"]:
            failures.append(f"{key}: type mismatches in manifest")
        if payload["pairwise"]["isomorphic_pairs"]:
            failures.append(f"{key}: iso pairs {payload['pairwise']['isomorphic_pairs'][:3]}")
        if payload["pairwise"]["min_sum_end_local"] < 2:
            failures.append(f"{key}: a direct sum with end_local_dim < 2")
    # direct spot check that 2-element sums are decomposable by the measure
    d = make_datum("B")
    lam = d.weights_in_class(1)[0]
    v = simple(d, 1, lam)
    s = direct_sum([v, t1(d, 1, lam)])
    count += 1
    if homology.end_local_dim(s) < 2:
        failures.append("direct sum V + T_1 reported end_local_dim < 2")
    record(9, "indecomposability sweep", failures, t0, count)


def test_criterion_10_band_family_at_fixed_dimension():
    t0 = time.monotonic()
    failures, count = [], 0
    d = make_datum("B")
    lam = d.weights_in_class(1)[0]
    mods = {eta: band(d, 1, lam, eta, 1) for eta in (1, 2, 3, 4, 5)}
    for eta, mod in mods.items():
        count += 1
        lt = homology.loewy_type(mod)
        if (lt.s, lt.t) != (d.m, d.m):
            failures.append(f"M_1(eta={eta}) is not ({d.m},{d.m})-type")
        if mod.dim != d.m * d.n:
            failures.append(f"M_1(eta={eta}) has dim {mod.dim}")
    etas = sorted(mods)
    for i, ei in enumerate(etas):
        for ej in etas[i + 1:]:
            count += 1
            v = homology.is_isomorphic(mods[ei], mods[ej])
            if v.verdict != "no":
                failures.append(f"M_1(eta={ei}) vs M_1(eta={ej}): {v.verdict}")
    record(10, "one-parameter band family", failures, t0, count)
