"""Golden CLI output: a fixed command list whose stdout and exit code are
compared byte for byte with ``tests/golden/<case>.txt``.

Each case runs ``cli.main`` in-process.  A file records the exit code, the
one-line stderr error when the exit code is 2, and the stdout verbatim.  An
argument ``{X}`` is the path of standing datum X; ``{mod:case}`` is a file
holding the stdout of the named ``module build`` case, and
``{sum:case1+case2}`` a file holding the direct sum of the modules those
build cases print, in that order.  To re-record every file after an
intended change of output:

    PYTHONPATH=src python -m tests.test_golden_cli
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from doublerep import cli
from doublerep.repmod import ModuleRep, direct_sum

from .conftest import DATUM_JSON

GOLDEN = pathlib.Path(__file__).parent / "golden"

L1 = ("--l", "1", "--lambda", "0;0")
TOKEN_ARGS = {
    "verma": ("--lambda", "0;1"),
    "simple": L1,
    "projective": L1,
    "t1": L1,
    "t1bar": L1,
    "string_tt": L1 + ("--t", "2"),
    "string_ttbar": L1 + ("--t", "2"),
    "band_m1": L1 + ("--eta", "2"),
    "band_mt": L1 + ("--t", "2", "--eta", "-1"),
    "w1": L1 + ("--eta", "0"),
    "w_t": L1 + ("--t", "2", "--eta", "inf"),
    "omega_power": L1 + ("--s", "2"),
}

CASES: dict[str, tuple[str, ...]] = {}
for _key in "ABC":
    for _tok, _args in TOKEN_ARGS.items():
        CASES[f"build-{_key}-{_tok}"] = ("module", "build", f"{{{_key}}}",
                                          "--family", _tok, *_args)
    CASES[f"build-{_key}-simple-standard"] = (
        "module", "build", f"{{{_key}}}", "--family", "simple",
        "--l", "2", "--lambda", "0;1", "--basis", "standard")
    CASES[f"build-{_key}-omega_power-s-2"] = (
        "module", "build", f"{{{_key}}}", "--family", "omega_power", *L1, "--s", "-2")
CASES.update({
    "build-A-w1-inf": ("module", "build", "{A}", "--family", "w1", *L1, "--eta", "inf"),
    "analyze-B-T2": ("module", "analyze", "{mod:build-B-string_tt}"),
    "analyze-C-Omega2": ("module", "analyze", "{mod:build-C-omega_power}",
                         "--format", "json"),
    "analyze-A-W1inf": ("module", "analyze", "{mod:build-A-w1-inf}"),
    "ar-C-4.5": ("ar", "check", "{C}", "--lemma", "4.5", "--l", "1", "--lambda", "0;0"),
    "ar-B-4.9": ("ar", "check", "{B}", "--lemma", "4.9", "--max-t", "2"),
    "ar-C-4.10": ("ar", "check", "{C}", "--lemma", "4.10", "--max-t", "2",
                  "--format", "json"),
    "ar-B-4.20": ("ar", "check", "{B}", "--lemma", "4.20", "--etas", "1,-1"),
    "ar-A-4.28": ("ar", "check", "{A}", "--lemma", "4.28", "--max-t", "2",
                  "--etas", "0,inf"),
    "ar-A-4.20-guard": ("ar", "check", "{A}", "--lemma", "4.20"),
    "ar-B-4.28-guard": ("ar", "check", "{B}", "--lemma", "4.28"),
    "classify-A": ("classify", "{A}", "--etas", "1,-1,2,0,inf"),
    "classify-B": ("classify", "{B}"),
    "classify-C": ("classify", "{C}"),
    "classify-A-json": ("classify", "{A}", "--max-t", "1", "--max-s", "1",
                        "--format", "json"),
    "classify-B-json": ("classify", "{B}", "--max-t", "1", "--max-s", "1",
                        "--format", "json"),
    "classify-C-json": ("classify", "{C}", "--max-t", "1", "--max-s", "1",
                        "--format", "json"),
    "classify-B-budget": ("classify", "{B}", "--budget", "24"),
    # eta listed twice: each M_1 member is listed twice (one shared module),
    # so the pairwise screen reports the isomorphic pairs and the manifest fails
    "classify-C-dup-eta": ("classify", "{C}", "--max-t", "1", "--max-s", "0",
                           "--etas", "1,1"),
    "compare-A-t1-w1inf": ("module", "compare", "{mod:build-A-t1}",
                           "{mod:build-A-w1-inf}"),
})
# n = 3 at l = 2, where l differs from n - l: the chain and band builders'
# l-dependent indices show here and not over A, B or C (n = 2)
L2 = ("--l", "2", "--lambda", "0;2")
for _key, _tok, _sfx, _args in (("D", "string_tt", "", ("--t", "2")),
                                ("D", "string_ttbar", "", ("--t", "2")),
                                ("D", "band_mt", "", ("--t", "1", "--eta", "-1")),
                                ("F", "w_t", "", ("--t", "2", "--eta", "2")),
                                ("F", "w_t", "-inf", ("--t", "2", "--eta", "inf")),
                                ("E", "string_tt", "", ("--t", "2")),
                                ("E", "string_ttbar", "", ("--t", "2")),
                                ("E", "band_mt", "", ("--t", "2", "--eta", "2")),
                                ("E", "band_mt", "-eta3", ("--t", "1", "--eta", "3"))):
    CASES[f"build-{_key}-{_tok}{_sfx}-l2"] = ("module", "build", f"{{{_key}}}",
                                              "--family", _tok, *L2, *_args)
# projective covers, injective hulls and radical layers at n = 3: the
# syzygy and cosyzygy chains of lemma 4.5, and the layers of P and T_2 at l = 2
CASES.update({
    "build-D-projective-l2": ("module", "build", "{D}", "--family", "projective", *L2),
    # non-nilpotent covers at n = 3, where the u-string closes with y and z
    "build-E-projective": ("module", "build", "{E}", "--family", "projective", *L1),
    "build-E-projective-l2": ("module", "build", "{E}", "--family", "projective", *L2),
    "analyze-D-projective-l2": ("module", "analyze", "{mod:build-D-projective-l2}"),
    "analyze-D-string_tt-l2": ("module", "analyze", "{mod:build-D-string_tt-l2}",
                               "--format", "json"),
    "ar-D-4.5": ("ar", "check", "{D}", "--lemma", "4.5", "--max-t", "1"),
    "ar-F-4.5": ("ar", "check", "{F}", "--lemma", "4.5", "--max-t", "1"),
    # the (2) and (3) rows at t = 2, where Omega^4 and Omega^-4 appear
    "ar-E-4.5-t2": ("ar", "check", "{E}", "--lemma", "4.5", "--max-t", "2"),
    # m = 1: on every row the all-ones f fails, so a seeded draw decides
    "ar-A-4.5": ("ar", "check", "{A}", "--lemma", "4.5", "--max-t", "2"),
    # n = 8 at l = 3, where l differs from n - l
    "ar-H-4.5-l3": ("ar", "check", "{H}", "--lemma", "4.5", "--l", "3", "--max-t", "1"),
    # n = 8: the budget stops the run among the simples at l = n, whose
    # closing edge x v_(n-1) = (const) v_0 the Loewy walk and the Hom solves meet
    "classify-H-budget": ("classify", "{H}", "--max-t", "1", "--max-s", "1", "--etas", "1",
                          "--budget", "600"),
    # n = 8 up to the default budget (416 of 872 members): most candidate
    # simples of its Hom passes get no map, and the weight-block certificate
    # decides them without a solve
    "classify-H": ("classify", "{H}", "--max-t", "1", "--max-s", "1", "--etas", "1"),
    # rank two, m = 1: 640 members through the W family, most of them repeating
    # the x and xi matrices of a member at another weight
    "classify-R2": ("classify", "{R2}", "--max-t", "1", "--max-s", "0", "--etas", "1",
                    "--budget", "100000"),
    # rank two: Omega^-2 V(1,(0,0;0,0)) has dimension 9 and socle
    # 3*V(1,(0,0;0,0)), so its hull takes three summands at one simple
    "build-R2-omega_power-s-2": ("module", "build", "{R2}", "--family", "omega_power",
                                 "--l", "1", "--lambda", "0,0;0,0", "--s", "-2"),
    "analyze-R2-omega_power-s-2": ("module", "analyze", "{mod:build-R2-omega_power-s-2}"),
})
# analyze over E: M_2 at eta = 2 is matched in the registry; M_1 at eta = 3
# lies outside the default eta grid
for _sfx in ("", "-eta3"):
    CASES[f"analyze-E-band_mt{_sfx}-l2"] = ("module", "analyze",
                                            f"{{mod:build-E-band_mt{_sfx}-l2}}")
# V(1,(0;0)) (+) P(1,(0;0)) over A: End is not local, so compare reaches the
# witness search and analyze reports layers of a decomposable module
_VP = "{sum:build-A-simple+build-A-projective}"
_PV = "{sum:build-A-projective+build-A-simple}"
for _fmt in ((), ("--format", "json")):
    _sfx = "-json" if _fmt else ""
    CASES[f"analyze-A-V+P{_sfx}"] = ("module", "analyze", _VP, *_fmt)
    CASES[f"compare-A-V+P-P+V{_sfx}"] = ("module", "compare", _VP, _PV, *_fmt)
# two sums whose Loewy structure the weight graph reads at no depth: V (+) V
# over A is semisimple, and no radical power of P(1,(0;0)) (+) P(1,(0;0))
# over E is multiplicity-free
CASES["analyze-A-V+V"] = ("module", "analyze", "{sum:build-A-simple+build-A-simple}")
CASES["analyze-E-P+P"] = ("module", "analyze", "{sum:build-E-projective+build-E-projective}")
for _key, _band in (("A", "w_t"), ("B", "band_mt"), ("C", "band_mt")):
    for _tok in ("projective", "string_tt", _band, "omega_power"):
        CASES[f"verify-{_key}-{_tok}"] = ("module", "verify", f"{{mod:build-{_key}-{_tok}}}")
        CASES[f"verify-{_key}-{_tok}-json"] = ("module", "verify",
                                               f"{{mod:build-{_key}-{_tok}}}",
                                               "--format", "json")


def run_case(name: str, tmp: pathlib.Path) -> str:
    """Run one case and render what the golden file records."""
    argv = []
    for arg in CASES[name]:
        if arg.startswith(("{mod:", "{sum:")):
            refs = arg[5:-1].split("+")
            if arg.startswith("{mod:"):
                text = _build_out(refs[0], tmp)
            else:
                mods = [ModuleRep.from_json(json.loads(_build_out(ref, tmp))) for ref in refs]
                text = json.dumps(direct_sum(mods).to_json(), indent=2) + "\n"
            path = tmp / f"{arg[1:4]}-{arg[5:-1]}.json"
            path.write_text(text)
            argv.append(str(path))
        else:
            argv.append(arg)
    code, out, err = _invoke(_resolve(argv, tmp))
    head = f"exit: {code}\n"
    if code == 2:
        head += f"stderr: {err}"
    return head + "stdout:\n" + out


def _build_out(ref: str, tmp: pathlib.Path) -> str:
    code, out, _ = _invoke(_resolve(CASES[ref], tmp))
    assert code == 0, ref
    return out


def _resolve(argv, tmp: pathlib.Path) -> list[str]:
    out = []
    for arg in argv:
        if arg[:1] == "{" and arg[-1:] == "}" and arg[1:-1] in DATUM_JSON:
            path = tmp / f"datum_{arg[1:-1]}.json"
            if not path.exists():
                path.write_text(json.dumps(DATUM_JSON[arg[1:-1]]))
            arg = str(path)
        out.append(arg)
    return out


def _invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(CASES))
def test_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert run_case(name, tmp_path) == expected


def test_no_stale_golden_files():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as d:
        for case in CASES:
            (GOLDEN / f"{case}.txt").write_text(run_case(case, pathlib.Path(d)),
                                                encoding="utf-8")
