"""Command-line interface: datum validation, module construction and
serialization, structural analysis, almost-split-sequence checks, and the
classification-enumeration harness.

Determinism contract: with a fixed --seed, stdout is byte-identical across
runs for identical inputs.  Timing statistics go to stderr only.  Exit codes:
0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from collections import Counter
from collections.abc import Iterator
from typing import NoReturn

from .datum import DatumError, ValidatedDatum, Weight, datum_from_json
from .linalg import rank  # noqa: F401  (perfbench's tracer test patches cli.rank)
from .repmod import ModuleRep
from . import constructors, homology


EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INVALID = 2

OUTSIDE = "outside classified grid or bounds"


# ---------------------------------------------------------------------------
# input parsing helpers


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DatumError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: a decode error, or an integer beyond the interpreter's
        # digit limit; RecursionError: nesting deeper than the parser recurses
        raise DatumError(f"{path} is not valid JSON: {exc}") from exc


def _load_datum(path: str) -> ValidatedDatum:
    return datum_from_json(_load_json(path))


def _load_module(path: str) -> ModuleRep:
    return ModuleRep.from_json(_load_json(path))


def parse_weight(datum: ValidatedDatum, text: str) -> Weight:
    """Accept either weight JSON ({"gpart": [...], "h": [...]}) or the
    compact form 'g1,g2;h1,h2'."""
    text = text.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise DatumError(f"bad weight JSON: {exc}") from exc
        return Weight.from_json(datum.group, obj)
    body = text.strip("()")
    if ";" not in body:
        raise DatumError("compact weight form is 'g1,g2,...;h1,h2,...'")
    gtxt, htxt = body.split(";", 1)

    def ints(part: str) -> tuple[int, ...]:
        part = part.strip()
        if not part:
            return ()
        try:
            return tuple(int(v) for v in part.split(","))
        except ValueError as exc:
            raise DatumError(f"bad weight component {part!r}") from exc

    g, h = ints(gtxt), ints(htxt)
    if len(g) != datum.group.rank or len(h) != datum.group.rank:
        raise DatumError(f"weight needs {datum.group.rank} exponent(s) per part")
    return Weight(datum.group, g, h)


def parse_etas(text: str) -> list[constructors.EtaParam]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            out.append(constructors.EtaParam.parse(tok))
    if not out:
        raise DatumError("empty eta list")
    return out


# ---------------------------------------------------------------------------
# output helpers


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _factor_str(factors: list[dict]) -> str:
    return " + ".join(f"{f['mult']}*V({f['l']},{f['lambda']})" for f in factors) or "0"


# ---------------------------------------------------------------------------
# datum / weights commands


def cmd_datum_check(args) -> int:
    payload = _load_datum(args.file).describe()
    lines = [
        f"kind: {payload['kind']}",
        f"group orders: {payload['orders']} (exponent {payload['exponent']})",
        f"rho = {payload['rho']}, n = {payload['n']}, m = {payload['m']}",
        f"alpha = {payload['alpha']}" + (" (normalized)" if payload["alpha_normalized"] else ""),
        f"|K| = {payload['K']}",
        "simple counts by dimension: "
        + ", ".join(f"{l}: {c}" for l, c in payload["simple_counts"].items()),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_weights_list(args) -> int:
    datum = _load_datum(args.file)
    classes: dict[str, list[dict]] = {}
    lines = []
    for l in range(1, datum.n + 1):
        ws = datum.weights_in_class(l)
        rows = []
        for w in ws:
            cls = datum.classify_weight(w)
            rows.append({"label": w.label(), "gpart": list(w.gexps),
                         "h": list(w.hexps), "branch": cls.branch})
        classes[str(l)] = rows
        lines.append(f"I_{l} ({len(ws)}): " + " ".join(w.label() for w in ws))
    payload = {"n": datum.n, "total": datum.group.size ** 2, "classes": classes}
    lines.append(f"total weights: {datum.group.size ** 2}")
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# module commands


def cmd_module_build(args) -> int:
    datum = _load_datum(args.file)
    lam = parse_weight(datum, args.lam) if args.lam is not None else None
    mod = constructors.build_family(datum, args.family, l=args.l, lam=lam, t=args.t,
                                    eta=args.eta, basis=args.basis, s=args.s)
    doc = json.dumps(mod.to_json(), indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        except OSError as exc:
            raise DatumError(f"cannot write {args.out}: {exc}") from exc
        print(f"wrote {args.out} (dim {mod.dim})")
    else:
        print(doc)
    return EXIT_OK


def cmd_module_verify(args) -> int:
    mod = _load_module(args.file)
    report = mod.verify_relations()
    payload = {
        "ok": report.ok,
        "dim": mod.dim,
        "checks": [{"name": c.name, "ok": c.ok,
                    **({"detail": c.detail} if c.detail else {})}
                   for c in report.checks],
    }
    lines = [f"dim: {mod.dim}",
             f"relations: {'all hold' if report.ok else 'FAILED'} "
             f"({sum(1 for c in report.checks if c.ok)}/{len(report.checks)} checks)"]
    for c in report.failures():
        lines.append(f"  FAIL {c.name}" + (f": {c.detail}" if c.detail else ""))
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_VERIFY


def cmd_module_analyze(args) -> int:
    mod = _load_module(args.file)
    report = mod.verify_relations()
    if not report.ok:
        payload = {"relations_ok": False,
                   "failures": [{"name": c.name, "detail": c.detail}
                                for c in report.failures()]}
        lines = ["relations: FAILED — analysis skipped"]
        lines += [f"  FAIL {c.name}" for c in report.failures()]
        _emit(args, payload, lines)
        return EXIT_VERIFY
    el = homology.end_local_dim(mod)
    loewy = homology.loewy_structure(mod)
    lt = loewy.type
    soc = homology._factors_as_json(loewy.socle)
    hd = homology._factors_as_json(loewy.head)
    layers = [homology._factors_as_json(factors) for factors in loewy.layers]
    comp = homology.composition_factors(mod)
    fam = homology.match_family(mod, max_t=args.max_t, max_s=args.max_s,
                                etas=parse_etas(args.etas))
    payload = {
        "relations_ok": True,
        "dim": mod.dim,
        "end_local_dim": el,
        "absolutely_indecomposable": el == 1,
        "type": lt.to_json(),
        "socle": soc,
        "head": hd,
        "radical_series": layers,
        "composition_factors": comp,
        "family": fam if fam is not None else OUTSIDE,
    }
    lines = [
        f"dim: {mod.dim}",
        "relations: all hold",
        f"end_local_dim: {el}"
        + (" (absolutely indecomposable)" if el == 1 else ""),
        f"type: (s, t) = ({lt.s}, {lt.t}), radical length {lt.rl}",
        f"socle: {_factor_str(soc)}",
        f"head: {_factor_str(hd)}",
        "radical series: " + " | ".join(_factor_str(f) for f in layers),
        f"composition factors: {_factor_str(comp)}",
        f"family: {fam if fam is not None else OUTSIDE}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_module_compare(args) -> int:
    a = _load_module(args.file_a)
    b = _load_module(args.file_b)
    verdict = homology.is_isomorphic(a, b, seed=args.seed)
    payload = verdict.to_json()
    lines = [f"verdict: {verdict.verdict}", f"reason: {verdict.reason}"]
    if verdict.trials:
        lines.append(f"witness trials: {verdict.trials}")
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# ar check


def cmd_ar_check(args) -> int:
    datum = _load_datum(args.file)
    etas = parse_etas(args.etas)
    weights = None
    if args.lam is not None:
        if args.l is None:
            raise DatumError("--lambda needs --l")
        weights = [(args.l, parse_weight(datum, args.lam))]
    elif args.l is not None:
        ws = datum.weights_in_class(args.l)
        if not ws:
            raise DatumError(f"no weights in class l={args.l}; l runs 1..{datum.n}")
        weights = [(args.l, ws[0])]
    seqs = homology.ar_sequences_for_lemma(datum, args.lemma, max_t=args.max_t,
                                           etas=etas, weights=weights)
    entries = []
    all_ok = True
    t0 = time.monotonic()
    for name, a, mids, c in seqs:
        found = homology.ses_candidate(a, mids, c, seed=args.seed)
        if found is None:
            entries.append({"sequence": name, "built": False})
            all_ok = False
            continue
        f, g = found
        rep = homology.ar_candidate_check(f, g, seed=args.seed)
        entry = {"sequence": name, "built": True,
                 "dims": [a.dim, f.target.dim, c.dim], **rep.to_json()}
        entries.append(entry)
        all_ok = all_ok and rep.ar_ok
    payload = {"lemma": args.lemma, "max_t": args.max_t,
               "sequences": entries,
               "total": len(entries),
               "ok": sum(1 for e in entries if e.get("ar_ok"))}
    lines = []
    for e in entries:
        if not e["built"]:
            lines.append(f"{e['sequence']}: FAILED to realize maps")
        else:
            status = "ok" if e.get("ar_ok") else "FAILED"
            factors = " radical_factors=no" if e.get("radical_factors_through_g") is False else ""
            lines.append(f"{e['sequence']}: dims {e['dims']} "
                         f"exact={e['exact']} split={e.get('split')} "
                         f"ends_local=({e.get('left_end_local')},{e.get('right_end_local')}) "
                         f"translate={e.get('translate_left_is_omega2_right')}{factors}"
                         f" -> {status}")
    lines.append(f"sequences: {payload['ok']}/{payload['total']} satisfy all "
                 "almost-split conditions")
    print(f"ar check wall time: {time.monotonic() - t0:.2f}s", file=sys.stderr)
    _emit(args, payload, lines)
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# classify


def _classify_specs(datum: ValidatedDatum, max_t: int, max_s: int,
                    etas: list[constructors.EtaParam]) -> tuple[int, Iterator[tuple]]:
    """Deterministic enumeration plan for the classification manifest: the
    number of members, and an iterator that yields one ``(family, l, weight,
    params)`` per member without listing them.

    Each round lists its families at every l, weight and parameter value in
    turn, so T and Tbar interleave.  At m = 1 the W family stands in for the
    chains (eta = inf and 0 give T and Tbar).
    """
    rounds = []  # (families, lead family, the (l, weight) sites the lead runs over)
    for letters in [("V",), ("P",), ("Omega",), ("W",) if datum.m == 1 else ("T", "Tbar"),
                    ("M",)]:
        lead = constructors.FAMILIES[letters[0]]
        sites = [(l, w) for l in lead.l_range(datum) for w in lead.weights(datum, l)]
        rounds.append(([constructors.FAMILIES[c] for c in letters], lead, sites))
    total = sum(len(fams) * len(sites) * lead.grid_size(datum, max_t, max_s, etas)
                for fams, lead, sites in rounds)
    specs = ((fam, l, w, params) for fams, lead, sites in rounds for l, w in sites
             for params in lead.grid(datum, max_t, max_s, etas) for fam in fams)
    return total, specs


def _classify_entry(datum: ValidatedDatum, fam: constructors.Family, l: int, w: Weight,
                    params: dict, mod: ModuleRep) -> dict:
    rel = mod.verify_relations()
    el = homology.end_local_dim(mod)
    # the Loewy walk assumes the relations, so a member that fails them has
    # no type
    lt = homology.loewy_type(mod) if rel.ok else None
    return {
        "tag": f"{fam.letter}(l={l}, lam={w.label()}"
               + "".join(f", {p}={v}" for p, v in params.items()) + ")",
        "family": fam.letter, "l": l, "lambda": w.label(), **params,
        "dim": mod.dim,
        "relations_ok": rel.ok,
        "end_local_dim": el,
        "type": lt.to_json() if lt else None,
        "type_ok": lt is not None and (lt.s, lt.t, lt.rl) == fam.loewy(datum, l, **params),
    }


def cmd_classify(args) -> int:
    datum = _load_datum(args.file)
    etas = parse_etas(args.etas)
    t0 = time.monotonic()
    total, specs = _classify_specs(datum, args.max_t, args.max_s, etas)
    entries: list[dict] = []
    modules: list[ModuleRep] = []
    groups: dict[tuple, list[int]] = {}  # module indices by invariant key
    total_dim = 0
    for fam, l, w, params in specs:
        mod = fam.member(datum, l, w, **params)
        if total_dim + mod.dim > args.budget:
            break
        total_dim += mod.dim
        entries.append(_classify_entry(datum, fam, l, w, params, mod))
        groups.setdefault(homology.invariant_key(mod), []).append(len(modules))
        modules.append(mod)
    truncated = len(entries) < total
    # pairwise distinctness across the manifest: a pair with different
    # invariant keys is not isomorphic and has r(a, b) = 0, so only the pairs
    # inside a key group need a Hom solve
    els = [e["end_local_dim"] for e in entries]
    iso_pairs = []
    pairs = sorted((i, j) for g in groups.values() for k, i in enumerate(g) for j in g[k + 1:])
    # the trace Gram matrix of End(a (+) b) is block-diagonal, and the pairing
    # block of Hom(a, b) with Hom(b, a) counts twice; across groups r = 0, so
    # the smallest such sum there adds the two smallest group minima
    lows = sorted(min(els[i] for i in g) for g in groups.values())[:2]
    pair_els = [sum(lows)] if len(lows) == 2 else []
    for i, j in pairs:
        a, b = modules[i], modules[j]
        r = homology.pairing_rank(homology.hom_space(a, b), homology.hom_space(b, a))
        # r(a, a) + r(b, b) = 2 r(a, b) exactly when a and b are isomorphic
        if 2 * r == els[i] + els[j]:
            iso_pairs.append([entries[i]["tag"], entries[j]["tag"]])
        pair_els.append(els[i] + els[j] + 2 * r)
    hom_pairs = len(pairs)
    min_sum_el = min(pair_els, default=None)
    counts = Counter(e["family"] for e in entries)
    n_pairs = len(modules) * (len(modules) - 1) // 2
    payload = {
        "bounds": {"max_t": args.max_t, "max_s": args.max_s,
                   "etas": [str(e) for e in etas], "budget": args.budget},
        "entries": entries,
        "pairwise": {
            "pairs": n_pairs,
            "distinct": n_pairs - len(iso_pairs),
            "isomorphic_pairs": iso_pairs,
            "hom_solved_pairs": hom_pairs,
            "min_sum_end_local": min_sum_el,
        },
        "summary": {
            "modules": len(entries),
            "counts": counts,
            "max_dim": max((e["dim"] for e in entries), default=0),
            "total_dim": total_dim,
            "all_end_local_one": all(e["end_local_dim"] == 1 for e in entries),
            "all_relations_ok": all(e["relations_ok"] for e in entries),
            "all_types_ok": all(e["type_ok"] for e in entries),
        },
        "truncated": truncated,
    }
    ok = (payload["summary"]["all_end_local_one"]
          and payload["summary"]["all_relations_ok"]
          and payload["summary"]["all_types_ok"]
          and not iso_pairs)
    payload["ok"] = ok
    lines = []
    for e in entries:
        lt = e["type"]
        lines.append(f"{e['tag']}: dim {e['dim']}, el {e['end_local_dim']}, "
                     + (f"type ({lt['s']},{lt['t']}) rl {lt['rl']}" if lt else "type -")
                     + ("" if e["relations_ok"] and e["type_ok"] else " [CHECK FAILED]"))
    lines.append(f"modules: {len(entries)} "
                 + " ".join(f"{k}:{v}" for k, v in sorted(counts.items())))
    lines.append(f"pairwise: {n_pairs} pairs, {n_pairs - len(iso_pairs)} distinct, "
                 f"{hom_pairs} needed Hom solves, "
                 f"min end_local_dim of a pair sum: {min_sum_el}")
    for p in iso_pairs:
        lines.append(f"  ISOMORPHIC: {p[0]} == {p[1]}")
    if truncated:
        lines.append(f"TRUNCATED: dimension budget {args.budget} exhausted "
                     f"after {len(entries)} of {total} modules")
    lines.append(f"manifest {'ok' if ok else 'FAILED'}")
    print(f"classify wall time: {time.monotonic() - t0:.2f}s", file=sys.stderr)
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for witness searches (default 0)")
    common.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility and ignored; every command "
                             "runs in one process")

    top = argparse.ArgumentParser(
        prog="doublerep",
        description="Exact module constructions over the double of a "
                    "pointed rank-one Hopf algebra")
    sub = top.add_subparsers(dest="command", required=True)

    p_datum = sub.add_parser("datum", help="datum operations")
    sub_datum = p_datum.add_subparsers(dest="subcommand", required=True)
    p = sub_datum.add_parser("check", parents=[common],
                             help="validate a datum file and report constants")
    p.add_argument("file")
    p.set_defaults(func=cmd_datum_check)

    p_weights = sub.add_parser("weights", help="weight enumeration")
    sub_weights = p_weights.add_subparsers(dest="subcommand", required=True)
    p = sub_weights.add_parser("list", parents=[common],
                               help="list weights grouped by class")
    p.add_argument("file")
    p.set_defaults(func=cmd_weights_list)

    p_module = sub.add_parser("module", help="module operations")
    sub_module = p_module.add_subparsers(dest="subcommand", required=True)

    p = sub_module.add_parser("build", parents=[common],
                              help="construct a family member and emit its JSON")
    p.add_argument("file")
    p.add_argument("--family", required=True, choices=tuple(constructors.FAMILY_TOKENS))
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--lambda", dest="lam", default=None,
                   help="weight: JSON or 'g1,..;h1,..'")
    p.add_argument("--t", type=int, default=None, help="chain/band length")
    p.add_argument("--s", type=int, default=None, help="syzygy exponent (signed, default 1)")
    p.add_argument("--eta", default=None, help="band parameter: scalar or 'inf'")
    p.add_argument("--basis", choices=("natural", "standard"), help="default natural")
    p.add_argument("--out", default=None, help="write module JSON here instead of stdout")
    p.set_defaults(func=cmd_module_build)

    p = sub_module.add_parser("verify", parents=[common],
                              help="check every defining relation on a module file")
    p.add_argument("file")
    p.set_defaults(func=cmd_module_verify)

    p = sub_module.add_parser("analyze", parents=[common],
                              help="structural report: socle/radical, type, "
                                   "indecomposability, family match")
    p.add_argument("file")
    p.add_argument("--max-t", type=int, default=4)
    p.add_argument("--max-s", type=int, default=4)
    p.add_argument("--etas", default="0,1,-1,2,inf")
    p.set_defaults(func=cmd_module_analyze)

    p = sub_module.add_parser("compare", parents=[common],
                              help="certified isomorphism test of two module files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_module_compare)

    p_ar = sub.add_parser("ar", help="almost-split sequence checks")
    sub_ar = p_ar.add_subparsers(dest="subcommand", required=True)
    p = sub_ar.add_parser("check", parents=[common],
                          help="build and verify the named sequences")
    p.add_argument("file")
    p.add_argument("--lemma", required=True,
                   choices=("4.5", "4.9", "4.10", "4.20", "4.28"))
    p.add_argument("--max-t", type=int, default=1)
    p.add_argument("--etas", default="1")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--lambda", dest="lam", default=None)
    p.set_defaults(func=cmd_ar_check)

    p = sub.add_parser("classify", parents=[common],
                       help="enumerate the classified families within bounds, "
                            "verify each entry, and check pairwise distinctness")
    p.add_argument("file")
    p.add_argument("--max-t", type=int, default=2)
    p.add_argument("--max-s", type=int, default=2)
    p.add_argument("--etas", default="1,-1")
    p.add_argument("--budget", type=int, default=4096,
                   help="total matrix dimension budget (default 4096)")
    p.set_defaults(func=cmd_classify)

    return top


def _check_bounds(args) -> None:
    """Reject a numeric bound below its smallest meaningful value."""
    lows = {"jobs": 1, "budget": 1, "max_s": 0,
            "max_t": 1 if args.command == "ar" else 0}
    for name, low in lows.items():
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise DatumError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")


def _stdout_closed() -> int:
    """The reader closed stdout: send what is still buffered to devnull, so a
    later flush does not fail a second time, and give the one-line error."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    print("error: stdout was closed before the output was complete", file=sys.stderr)
    return EXIT_INVALID


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except DatumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        return _stdout_closed()


def run() -> NoReturn:
    """Process entry of `python -m doublerep.cli` and of the `doublerep` script.

    The memos a run builds are never garbage, so the cyclic GC is off for the
    run, and the process ends with `os._exit` once stdout and stderr are
    flushed: the interpreter's teardown would only collect and free them.
    Every file the commands open is closed by its `with`.  An exception out of
    `main` (argparse's usage exit among them) takes the normal exit."""
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _stdout_closed()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
