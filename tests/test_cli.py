"""Command-line interface: exit codes, output formats, determinism."""

import gc
import json
import os
import pathlib
import re
import resource
import subprocess
import sys
import time
from collections import Counter
from math import prod

import pytest

import doublerep
from doublerep import cli, homology, linalg, repmod
from doublerep.constructors import FAMILIES, Family, band, projective, simple
from doublerep.datum import Weight
from doublerep.linalg import Mat
from doublerep.repmod import ModuleRep, direct_sum

from .conftest import (DATUM_JSON, INVALID_DATUM_JSON, conjugated_json,
                       first_weight, make_datum, upper_ones)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def datum_file(write_json):
    def _make(key):
        return write_json(f"datum_{key}.json", DATUM_JSON[key])
    return _make


# ---------------------------------------------------------------------------
# datum / weights


def test_datum_check_text(capsys, datum_file):
    code, out, _ = run(capsys, "datum", "check", datum_file("B"))
    assert code == 0
    assert "nilpotent" in out
    assert "n = 2" in out.replace(":", " =") or "2" in out


def test_datum_check_json(capsys, datum_file):
    code, out, _ = run(capsys, "datum", "check", datum_file("C"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "non-nilpotent"
    assert payload["simple_counts"] == {"1": 4, "2": 12}


def test_datum_check_invalid_exits_2(capsys, write_json):
    path = write_json("bad.json", INVALID_DATUM_JSON)
    code, _, err = run(capsys, "datum", "check", path)
    assert code == 2
    assert "invalid datum" in err


def test_malformed_json_exits_2(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "datum", "check", str(p))
    assert code == 2


@pytest.mark.parametrize("command", [("datum", "check"), ("module", "verify")])
@pytest.mark.parametrize("content", [
    b"\xff\xfe{", b"[" * 100_000,
    b'{"orders": [4], "chi": [2], "a": [1], "alpha": 1' + b"0" * 5000 + b"}",
], ids=["not_utf8", "too_deep", "long_int"])
def test_unreadable_json_exits_2(capsys, tmp_path, command, content):
    # bytes that are not UTF-8, nesting deeper than the parser recurses, and
    # an integer beyond the interpreter's digit limit
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    code, out, err = run(capsys, *command, str(p))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {p} is not valid JSON")
    assert err.count("\n") == 1


def test_datum_check_rejects_n_equal_1(capsys, write_json):
    # rho = chi(a) = 1, so n = 1: outside the theory, rejected at validation
    path = write_json("n1.json", {"orders": [2, 4], "chi": [1, 2], "a": [1, 1], "alpha": 0})
    code, out, err = run(capsys, "datum", "check", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid datum") and "n = 1" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("field, value", [
    ("alpha", "abc"),
    ("alpha", "1/0"),
    ("chi", "x"),
    ("orders", 4),
    ("orders", [9.5]),
    ("chi", [True]),
    ("a", [1.5]),
    # coeffs a string or dict, once iterated by characters or keys: "01" read as i
    ("alpha", {"order": 4, "coeffs": "01"}),
    ("alpha", {"order": 4, "coeffs": {"1": 1}}),
])
def test_malformed_datum_field_exits_2(capsys, write_json, field, value):
    path = write_json("malformed.json", {**DATUM_JSON["B"], field: value})
    code, out, err = run(capsys, "datum", "check", path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: malformed datum field '{field}'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("case", ["alpha", "coefficient", "etas", "eta"])
def test_huge_decimal_exponent_exits_2_at_once(capsys, tmp_path, datum_file, case):
    # Fraction("1e50000000") would compute 10**50000000, which no digit limit bounds
    if case == "alpha":
        path = tmp_path / "datum.json"
        path.write_text(json.dumps({**DATUM_JSON["B"], "alpha": "1e100000000"}))
        argv, want = ("datum", "check", str(path)), "malformed datum field 'alpha'"
    elif case == "coefficient":
        datum = make_datum("B")
        doc = projective(datum, 1, first_weight(datum, 1)).to_json()
        doc["matrices"]["x"][0][0] = {"order": 4, "coeffs": ["1e50000000", "0"]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        argv, want = ("module", "verify", str(path)), "malformed module field 'matrices.x'"
    elif case == "etas":
        argv, want = ("classify", datum_file("E"), "--etas", "1e50000000"), "cannot parse eta"
    else:
        argv, want = ("module", "build", datum_file("B"), "--family", "band_m1", "--l", "1",
                      "--lambda", "0;0", "--eta", "1e-50000000"), "cannot parse eta"
    t0 = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith(f"error: {want}") and err.count("\n") == 1


@pytest.mark.parametrize("order", [720720, 10 ** 21])
@pytest.mark.parametrize("command", ["datum check", "module verify"])
def test_scalar_order_beyond_the_group_bound_exits_2_at_once(capsys, tmp_path, command, order):
    # a scalar's order divides the group exponent, so none exceeds |G| <= 1000;
    # the cyclotomic polynomial of order 720720 takes minutes, and one of
    # order 10**21 cannot be built at all
    scalar = {"order": order, "coeffs": ["1"]}
    if command == "datum check":
        doc, want = {**DATUM_JSON["B"], "alpha": scalar}, "malformed datum field 'alpha'"
    else:
        datum = make_datum("B")
        doc = projective(datum, 1, first_weight(datum, 1)).to_json()
        doc["matrices"]["x"][0][0] = scalar
        want = "malformed module field 'matrices.x'"
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    t0 = time.monotonic()
    code, out, err = run(capsys, *command.split(), str(path))
    assert time.monotonic() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith(f"error: {want}") and err.count("\n") == 1
    assert f"scalar order {order} exceeds the group order bound 1000" in err


@pytest.mark.parametrize("eta", ["1e4300", "99.9e4299", "-0.01e-4299"])
def test_unprintable_eta_exits_2(capsys, datum_file, eta):
    # each value has a numerator or denominator beyond the interpreter's
    # 4300-digit limit for str(int), so no member with that eta could be printed
    code, out, err = run(capsys, "classify", datum_file("B"), f"--etas={eta}",
                         "--max-t", "1", "--max-s", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot parse eta") and err.count("\n") == 1


@pytest.mark.parametrize("orders", [[], [0], [-3]])
def test_nonpositive_orders_exit_2(capsys, write_json, orders):
    path = write_json("orders.json", {**DATUM_JSON["B"], "orders": orders})
    code, out, err = run(capsys, "datum", "check", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cyclic factor orders must be positive")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", [("datum", "check"), ("weights", "list")])
@pytest.mark.parametrize("orders", [[1000000], [1001], [2] * 10])
def test_group_order_bound_exits_2(capsys, write_json, command, orders):
    # rejected before any scalar is built: at [1000000] that would not finish
    path = write_json("big.json", {"orders": orders, "chi": [1] * len(orders),
                                   "a": [1] * len(orders), "alpha": 0})
    code, out, err = run(capsys, *command, path)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: group order {prod(orders)} exceeds the bound |G| <= 1000")
    assert err.count("\n") == 1


def test_closed_stdout_prints_one_error_line(write_json):
    # the reader stops after 300 bytes of a 350 kB listing, well past what the
    # pipe buffers, so the command writes into a closed pipe
    path = write_json("n200.json", {"orders": [200], "chi": [1], "a": [1], "alpha": 0})
    src = str(pathlib.Path(doublerep.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import doublerep.cli; "
            f"sys.exit(doublerep.cli.main(['weights', 'list', {str(path)!r}]))")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert len(proc.stdout.read(300)) == 300
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err == "error: stdout was closed before the output was complete\n"


# The process entry, `cli.run`, turns the cyclic GC off and ends with
# `os._exit` once stdout and stderr are flushed; these tests run it through
# `python -m doublerep.cli` in a fresh process.

SRC = str(pathlib.Path(doublerep.__file__).resolve().parents[1])
ENTRY = [sys.executable, "-m", "doublerep.cli"]
# stdout block-buffered, as it is by default, so output that is not flushed
# before `os._exit` is lost
ENTRY_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
             "PYTHONPATH": SRC}


def run_entry(*argv):
    return subprocess.run(ENTRY + list(argv), capture_output=True, text=True, timeout=120,
                          env=ENTRY_ENV)


def test_process_entry_exit_codes(capsys, tmp_path, datum_file):
    ok = run_entry("datum", "check", datum_file("B"))
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout == run(capsys, "datum", "check", datum_file("B"))[1]

    path = build_module(capsys, tmp_path, datum_file("B"),
                        "--family", "t1", "--l", "1", "--lambda", "0;0")
    obj = json.loads(pathlib.Path(path).read_text())
    obj["matrices"]["x"][0][1] = {"order": 1, "coeffs": ["7"]}
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    failed = run_entry("module", "verify", str(bad))
    assert failed.returncode == 1
    assert "  FAIL " in failed.stdout and failed.stdout.endswith("\n")

    invalid = run_entry("datum", "check", str(tmp_path / "missing.json"))
    assert (invalid.returncode, invalid.stdout) == (2, "")
    assert invalid.stderr.startswith("error: cannot read") and invalid.stderr.count("\n") == 1

    usage = run_entry("classify")
    assert (usage.returncode, usage.stdout) == (2, "")
    assert "Traceback" not in usage.stderr and "usage:" in usage.stderr


def test_process_entry_flushes_json_before_exit(capsys, datum_file):
    argv = ("classify", datum_file("E"), "--max-t", "1", "--max-s", "1", "--etas", "1",
            "--format", "json")
    proc = run_entry(*argv)
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["entries"]) == 177
    assert proc.stdout == run(capsys, *argv)[1]


def test_process_entry_writes_the_whole_out_file(capsys, tmp_path, datum_file):
    spec = ("module", "build", datum_file("E"), "--family", "projective", "--l", "2",
            "--lambda", "0;2")
    target = tmp_path / "p.json"
    proc = run_entry(*spec, "--out", str(target))
    assert (proc.returncode, proc.stdout) == (0, f"wrote {target} (dim 6)\n")
    assert target.read_text() == run(capsys, *spec)[1]


def test_process_entry_closed_stdout_prints_one_error_line(write_json):
    # 79 kB of listing, more than the pipe buffers, so the command writes into
    # the pipe after its reader has closed it
    path = write_json("n100.json", {"orders": [100], "chi": [1], "a": [1], "alpha": 0})
    proc = subprocess.Popen(ENTRY + ["weights", "list", path], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=ENTRY_ENV)
    assert len(proc.stdout.read(300)) == 300
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "error: stdout was closed before the output was complete\n"


def test_process_entry_runs_without_gc_and_skips_teardown(datum_file):
    # run() calls main with the cyclic GC off and ends before the atexit
    # handlers (and the finaliser's collection) run
    code = ("import atexit, gc, sys; import doublerep.cli as c; "
            "atexit.register(print, 'teardown', file=sys.stderr); main = c.main; "
            "c.main = lambda: print('gc', gc.isenabled(), file=sys.stderr) or main(); "
            f"sys.argv = ['doublerep', 'datum', 'check', {datum_file('B')!r}]; c.run()")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=ENTRY_ENV)
    assert (proc.returncode, proc.stderr) == (0, "gc False\n")
    assert proc.stdout.startswith("kind: nilpotent\n")


def test_main_in_process_keeps_the_cyclic_gc(capsys, datum_file):
    assert gc.isenabled()
    assert run(capsys, "datum", "check", datum_file("B"))[0] == 0
    assert gc.isenabled()


def test_installed_script_is_the_process_entry():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'doublerep = "doublerep.cli:run"' in pyproject.read_text().splitlines()


@pytest.mark.parametrize("key", ["E", "R2"])
def test_weights_list_builds_no_scalar_per_weight(capsys, datum_file, monkeypatch, key):
    # weights are classed by integer exponents mod N, so listing them builds rho
    # and no root of unity per weight: the count is bounded whatever |G| is
    rank = make_datum(key).group.rank
    calls = []
    build = doublerep.datum.root_of_unity

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(doublerep.datum, "root_of_unity", counted)
    code, _, _ = run(capsys, "weights", "list", datum_file(key))
    assert code == 0
    assert len(calls) <= 2 * rank + 1


def test_weights_list(capsys, datum_file):
    code, out, _ = run(capsys, "weights", "list", datum_file("B"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 16
    assert len(payload["classes"]["1"]) == 4
    assert len(payload["classes"]["2"]) == 12


# ---------------------------------------------------------------------------
# module build / verify / analyze / compare


def build_module(capsys, tmp_path, datum_path, *spec):
    out_path = str(tmp_path / f"mod_{abs(hash(spec)) % 10 ** 8}.json")
    code, _, _ = run(capsys, "module", "build", datum_path, *spec, "--out", out_path)
    assert code == 0
    return out_path


@pytest.mark.parametrize("text", ['{"gpart": [0], "h": ', '{"gpart": ' + "[" * 100_000,
                                  pytest.param('{"gpart": [1' + "0" * 5000 + '], "h": [0]}',
                                               id="long_int")])
def test_malformed_weight_json_exits_2(capsys, datum_file, text):
    code, out, err = run(capsys, "module", "build", datum_file("B"),
                         "--family", "verma", "--lambda", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad weight JSON")
    assert err.count("\n") == 1


def test_module_build_unwritable_out_exits_2(capsys, datum_file, tmp_path):
    target = tmp_path / "missing" / "m.json"
    code, out, err = run(capsys, "module", "build", datum_file("B"),
                         "--family", "verma", "--lambda", "0;0", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert err.count("\n") == 1


def test_module_build_stdout_json(capsys, datum_file):
    code, out, _ = run(capsys, "module", "build", datum_file("B"),
                       "--family", "verma", "--lambda", "0;0")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2


def test_module_build_verify_round_trip(capsys, tmp_path, datum_file):
    datum_path = datum_file("B")
    path = build_module(capsys, tmp_path, datum_path,
                        "--family", "projective", "--l", "1", "--lambda", "0;0")
    code, out, _ = run(capsys, "module", "verify", path)
    assert code == 0
    assert "relations: all hold" in out


def test_module_verify_rejects_tampering(capsys, tmp_path, datum_file):
    datum_path = datum_file("B")
    path = build_module(capsys, tmp_path, datum_path,
                        "--family", "t1", "--l", "1", "--lambda", "0;0")
    obj = json.loads(open(path).read())
    obj["matrices"]["x"][0][1] = {"order": 1, "coeffs": ["7"]}
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "module", "verify", str(bad))
    assert code == 1
    assert "FAIL" in out or "fail" in out


def test_module_build_weight_class_mismatch_exits_2(capsys, datum_file):
    code, _, err = run(capsys, "module", "build", datum_file("C"),
                       "--family", "t1", "--l", "1", "--lambda", "0;1")
    assert code == 2
    assert "class" in err


@pytest.mark.parametrize("flag, value", [("--t", "5"), ("--eta", "1"), ("--s", "2"),
                                         ("--basis", "standard")])
def test_module_build_rejects_parameter_the_token_does_not_take(capsys, datum_file,
                                                                 flag, value):
    # t1 is T_1 in its natural basis: any other parameter is an error, not dropped
    code, out, err = run(capsys, "module", "build", datum_file("B"),
                         "--family", "t1", "--l", "1", "--lambda", "0;0", flag, value)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"takes no {flag[2:]}" in err


@pytest.mark.parametrize("gpart", ['["a"]', "[0.9]", "[true]"], ids=["str", "float", "bool"])
def test_module_build_malformed_weight_json_exits_2(capsys, datum_file, gpart):
    code, _, err = run(capsys, "module", "build", datum_file("B"), "--family", "simple",
                       "--l", "1", "--lambda", f'{{"gpart":{gpart},"h":[0]}}')
    assert code == 2
    assert err.count("\n") == 1 and "malformed weight" in err


def test_module_build_omega_power(capsys, tmp_path, datum_file):
    datum_path = datum_file("B")
    path = build_module(capsys, tmp_path, datum_path,
                        "--family", "omega_power", "--l", "1",
                        "--lambda", "0;0", "--s", "1")
    obj = json.loads(open(path).read())
    assert obj["dim"] == 3  # 2n - l


def test_module_analyze(capsys, tmp_path, datum_file):
    datum_path = datum_file("B")
    path = build_module(capsys, tmp_path, datum_path,
                        "--family", "string_tt", "--l", "1",
                        "--lambda", "0;0", "--t", "2")
    code, out, _ = run(capsys, "module", "analyze", path)
    assert code == 0
    assert "family: T_2(" in out
    assert "end_local_dim: 1" in out
    code, out, _ = run(capsys, "module", "analyze", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["end_local_dim"] == 1
    assert payload["family"].startswith("T_2(")


def test_module_analyze_skips_a_module_whose_relations_fail(capsys, tmp_path, datum_file):
    path = build_module(capsys, tmp_path, datum_file("B"),
                        "--family", "t1", "--l", "1", "--lambda", "0;0")
    obj = json.loads(open(path).read())
    obj["matrices"]["x"][0][1] = {"order": 1, "coeffs": ["7"]}
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(obj))
    failures = ModuleRep.from_json(obj).verify_relations().failures()
    assert failures
    code, out, _ = run(capsys, "module", "analyze", str(bad))
    assert code == 1
    assert out.splitlines() == (["relations: FAILED — analysis skipped"]
                                + [f"  FAIL {c.name}" for c in failures])
    code, out, _ = run(capsys, "module", "analyze", str(bad), "--format", "json")
    assert code == 1
    assert json.loads(out) == {"relations_ok": False,
                               "failures": [{"name": c.name, "detail": c.detail}
                                            for c in failures]}


def test_module_analyze_outside_grid(capsys, tmp_path, datum_file):
    datum_path = datum_file("B")
    path = build_module(capsys, tmp_path, datum_path,
                        "--family", "string_tt", "--l", "1",
                        "--lambda", "0;0", "--t", "4")
    code, out, _ = run(capsys, "module", "analyze", path, "--max-t", "2")
    assert code == 0
    assert cli.OUTSIDE in out


def test_module_compare(capsys, tmp_path, datum_file):
    datum_path = datum_file("B")
    a = build_module(capsys, tmp_path, datum_path,
                     "--family", "band_m1", "--l", "1", "--lambda", "0;0",
                     "--eta", "2")
    b = build_module(capsys, tmp_path, datum_path,
                     "--family", "band_mt", "--l", "1", "--lambda", "0;0",
                     "--eta", "2", "--t", "1")
    c = build_module(capsys, tmp_path, datum_path,
                     "--family", "band_m1", "--l", "1", "--lambda", "0;0",
                     "--eta", "3")
    code, out, _ = run(capsys, "module", "compare", a, b)
    assert code == 0 and "yes" in out
    code, out, _ = run(capsys, "module", "compare", a, c)
    assert code == 0 and "no" in out


def test_zero_modules_compare_and_analyze(capsys, write_json):
    path = write_json("zero.json", homology.zero_module(make_datum("B")).to_json())
    code, out, _ = run(capsys, "module", "compare", path, path)
    assert code == 0
    assert out.splitlines() == ["verdict: yes", "reason: both modules are zero"]
    code, out, _ = run(capsys, "module", "analyze", path)
    assert code == 0
    assert out.splitlines()[0] == "dim: 0"
    assert out.splitlines()[-1] == "family: zero"


@pytest.mark.parametrize("command, files", [("analyze", 1), ("compare", 2)])
def test_radical_and_socle_solved_once_per_module(capsys, write_json, monkeypatch,
                                                  command, files):
    # V(1,(0;0)) (+) P(1,(0;0)) over A: End is not local, so compare reaches
    # the trace-pairing identity and the witness search, and solves neither
    # the radical nor the socle; analyze builds each side's Hom pass once
    # (``_schur_zero`` runs once per build) and spins the radical once, while
    # the socle is read as the rank of its Hom(S, m) maps and never spun
    solves = 1 if command == "analyze" else 0
    datum = make_datum("A")
    lam = first_weight(datum, 1)
    v, p = simple(datum, 1, lam), projective(datum, 1, lam)
    paths = [write_json(f"{name}.json", direct_sum(mods).to_json())
             for name, mods in (("vp", [v, p]), ("pv", [p, v]))]
    calls = Counter()
    schur_zero, spin = homology._schur_zero, homology.spin_submodule

    def counted_pass(m, into):
        calls[into, m.dim] += 1
        return schur_zero(m, into)

    def counted_spin(m, seeds):
        calls["spin", m.dim] += 1
        return spin(m, seeds)
    monkeypatch.setattr(homology, "_schur_zero", counted_pass)
    monkeypatch.setattr(homology, "spin_submodule", counted_spin)
    code, out, _ = run(capsys, "module", command, *paths[:files])
    assert code == 0
    assert "seeded combination" in out if command == "compare" else cli.OUTSIDE in out
    assert (calls[False, 5], calls[True, 5], calls["spin", 5]) == (solves, solves, solves)


def test_analyze_solves_end_of_its_input_at_most_twice(capsys, tmp_path, datum_file,
                                                       monkeypatch):
    # the E band M_2(2,(0;2),eta=2): End(m) is local, so each candidate of
    # its dimension is decided by the trace pairing, without End(candidate).
    # Of the 12 candidates with its invariants, Hom(m, N) has dimension 12
    # for nine, 0 for two and dim End(m) = 2 only for the match, so Hom(N, m)
    # is asked for once.  The Hom bases asked for are counted, and End(m) by
    # its eliminations, not the Hom memo's hits; no End(N) is asked for
    path = build_module(capsys, tmp_path, datum_file("E"),
                        "--family", "band_mt", "--l", "2", "--lambda", "0;2",
                        "--t", "2", "--eta", "2")
    loaded, ends, asked, eliminated = [], [], Counter(), []
    load, hom_space, solve = cli._load_module, homology.hom_space, homology._eliminate_homs
    monkeypatch.setattr(cli, "_load_module", lambda p: loaded.append(load(p)) or loaded[-1])

    def counted(a, b):
        if a is b:
            ends.append(a)
        elif (a is loaded[0] or b is loaded[0]) and a.dim == b.dim:
            asked["into" if a is loaded[0] else "from"] += 1
        return hom_space(a, b)

    def counted_solve(a, b, unknowns):
        eliminated.append((a, b))
        return solve(a, b, unknowns)

    monkeypatch.setattr(homology, "hom_space", counted)
    monkeypatch.setattr(homology, "_eliminate_homs", counted_solve)
    code, out, _ = run(capsys, "module", "analyze", path)
    assert code == 0
    assert out.splitlines()[-1] == "family: M_2(2,(0;2),eta=2)"
    (mod,) = loaded
    assert sum(a is b is mod for a, b in eliminated) <= 1
    assert [e for e in ends if e is not mod and e.dim == mod.dim] == []
    assert asked == {"into": 12, "from": 1}


def test_analyze_and_compare_accept_any_basis(capsys, tmp_path, datum_e):
    # P(1, lambda) conjugated by an upper-triangular change of basis: a valid
    # module whose basis vectors are not weight vectors
    p = projective(datum_e, 1, first_weight(datum_e, 1))
    docs = {"p": p.to_json(), "q": conjugated_json(p, upper_ones(datum_e, p.dim))}
    assert docs["q"]["matrices"]["group"] != docs["p"]["matrices"]["group"]
    paths = []
    for name, doc in docs.items():
        paths.append(str(tmp_path / f"{name}.json"))
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    code, out_p, _ = run(capsys, "module", "analyze", paths[0])
    assert code == 0 and "family: P(1,(0;0))" in out_p
    code, out_q, _ = run(capsys, "module", "analyze", paths[1])
    assert code == 0 and out_q == out_p
    code, out, _ = run(capsys, "module", "compare", *paths)
    assert code == 0 and "verdict: yes" in out
    code, out, _ = run(capsys, "module", "verify", paths[1])
    assert code == 0 and "relations: all hold" in out


def test_relation_failure_detail_is_in_the_weight_basis(capsys, tmp_path, datum_e):
    # V(n, lambda) has distinct weights, so its weight basis is unique up to
    # scale; with one off-weight entry added to x, the failing entry is named
    # at the same weight-basis position whichever basis the file is in
    v = simple(datum_e, datum_e.n, first_weight(datum_e, datum_e.n))
    rows = [list(r) for r in v.act_x.rows]
    rows[0][1] = rows[0][1] + datum_e.one()
    bad = ModuleRep(datum_e, v.weights, Mat.from_rows(datum_e.N, rows), v.act_xi)
    docs = {"tags": bad.to_json(), "mixed": conjugated_json(bad, upper_ones(datum_e, v.dim))}
    where = {}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "module", "verify", str(path))
        assert code == 1
        where[name] = re.search(r"FAIL x_group\[0\]: entry \((\d+),(\d+)\)", out).groups()
    pos = sorted(range(v.dim), key=lambda k: v.weights[k].sort_key())
    assert where["tags"] == ("0", "1")
    assert where["mixed"] == (str(pos.index(0)), str(pos.index(1)))


MALFORMED_MODULE = {
    "dim": (("dim",), "abc", "dim"),
    "dim_float": (("dim",), 4.7, "dim"),
    "dim_bool": (("dim",), True, "dim"),
    "group": (("matrices", "group"), 5, "matrices.group"),
    "row": (("matrices", "x", 0), 7, "matrices.x"),
    "coeff": (("matrices", "x", 0, 0), {"order": 9, "coeffs": ["x"]}, "matrices.x"),
    "scalar": (("matrices", "xi", 0, 0), "zz", "matrices.xi"),
    "order": (("matrices", "x", 0, 0), {"order": 0, "coeffs": []}, "matrices.x"),
    "order_bool": (("matrices", "x", 0, 0), {"order": True, "coeffs": ["1"]}, "matrices.x"),
    # coeffs a string or dict, once iterated by characters or keys: "10" read as 1
    "coeffs_str": (("matrices", "x", 0, 0), {"order": 4, "coeffs": "10"}, "matrices.x"),
    "coeffs_dict": (("matrices", "x", 0, 0), {"order": 4, "coeffs": {"0": 1}}, "matrices.x"),
    # last entry of the file, after every other entry has been parsed once
    "coeff_last": (("matrices", "xi", -1, -1), {"order": 4, "coeffs": ["x", "0"]},
                   "matrices.xi"),
    # equal to a zero read before, but its order is not an integer
    "order_last": (("matrices", "xi", -1, -1), {"order": 4.0, "coeffs": ["0", "0"]},
                   "matrices.xi"),
    "labels": (("labels",), 5, "labels"),
}


def _module_files(tmp_path, datum, edit):
    """A good module file and a copy changed by ``edit(doc)``."""
    doc = projective(datum, 1, first_weight(datum, 1)).to_json()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    return str(good), str(bad)


@pytest.mark.parametrize("command", ["verify", "analyze", "compare"])
@pytest.mark.parametrize("case", list(MALFORMED_MODULE))
def test_malformed_module_field_exits_2(capsys, tmp_path, datum_b, command, case):
    keys, value, field = MALFORMED_MODULE[case]

    def edit(doc):
        for k in keys[:-1]:
            doc = doc[k]
        doc[keys[-1]] = value

    good, bad = _module_files(tmp_path, datum_b, edit)
    code, out, err = run(capsys, "module", command, bad, *([good] if command == "compare" else []))
    assert code == 2 and out == ""
    assert err.startswith(f"error: malformed module field '{field}': ") and err.count("\n") == 1


def _edited(path, value=None):
    """An edit of a JSON document: delete the key at ``path``, or set it to
    ``value`` (a function: to its result on the old value); returns the
    document."""
    def edit(doc):
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
        return doc
    return edit


# (input kind, edit or --lambda text, the error): a module file of P(1, lambda)
# over B (dim 4, N = 4), a datum file of B, or a --lambda of ``module build``
EXIT_2_INPUTS = {
    "module_not_object": ("module", lambda doc: [doc], "module JSON must be an object"),
    "module_no_datum": ("module", _edited(("datum",)), "module JSON missing 'datum'"),
    "module_no_dim": ("module", _edited(("dim",)), "module JSON missing 'dim'"),
    "module_no_matrices": ("module", _edited(("matrices",)), "module JSON missing 'matrices'"),
    "matrices_not_object": ("module", _edited(("matrices",), []),
                            "module JSON 'matrices' must be an object"),
    "matrices_no_gamma": ("module", _edited(("matrices", "gamma")),
                          "module JSON missing matrix 'gamma'"),
    "matrices_no_xi": ("module", _edited(("matrices", "xi")), "module JSON missing matrix 'xi'"),
    "two_group_matrices": ("module", _edited(("matrices", "group"), lambda g: 2 * g),
                           "need 1 group and dual matrices"),
    "x_not_square": ("module", _edited(("matrices", "x"), lambda rows: rows[1:]),
                     "matrix JSON is not 4x4"),
    "scalar_order": ("module", _edited(("matrices", "x", 0, 0),
                                       {"order": 3, "coeffs": ["1", "0"]}),
                     "scalar order 3 does not divide group exponent 4"),
    "datum_not_object": ("datum", lambda obj: [obj], "datum JSON must be an object"),
    "datum_no_alpha": ("datum", _edited(("alpha",)), "datum JSON missing 'alpha'"),
    "weight_json_keys": ("lambda", '{"gpart": [0]}', "weight JSON needs 'gpart' and 'h'"),
    "weight_empty_part": ("lambda", "0;", "weight needs 1 exponent(s) per part"),
}


@pytest.mark.parametrize("case", list(EXIT_2_INPUTS))
def test_malformed_input_exits_2_with_one_error_line(capsys, tmp_path, datum_b, write_json,
                                                     case):
    kind, edit, message = EXIT_2_INPUTS[case]
    if kind == "module":
        doc = projective(datum_b, 1, first_weight(datum_b, 1)).to_json()
        argv = ("module", "verify", write_json("bad.json", edit(doc)))
    elif kind == "datum":
        argv = ("datum", "check", write_json("bad.json", edit(dict(DATUM_JSON["B"]))))
    else:
        argv = ("module", "build", write_json("datum.json", DATUM_JSON["B"]),
                "--family", "simple", "--l", "1", "--lambda", edit)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("labels,weight_basis", [
    ("ab", True), ([1, 2], True), ({"a": 1, "b": 2}, True), (["a", "b", "c"], False)])
def test_labels_must_be_a_list_of_dim_strings(capsys, tmp_path, datum_b, labels, weight_basis):
    # a string or a dict is not split into labels or read for its keys, and
    # a file written in another basis has its labels checked before the change
    v = simple(datum_b, 2, cli.parse_weight(datum_b, "0;1"))
    doc = v.to_json() if weight_basis else conjugated_json(v, upper_ones(datum_b, v.dim))
    doc["labels"] = labels
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "module", "verify", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: malformed module field 'labels': ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "analyze", "compare"])
@pytest.mark.parametrize("case", ["not_a_root", "jordan_block", "not_commuting"])
def test_group_part_not_acting_by_roots_of_unity_exits_2(capsys, tmp_path, datum_b,
                                                         command, case):
    one, two, zero = (datum_b.scalar(v).to_json() for v in (1, 2, 0))

    def edit(doc):
        group = doc["matrices"]["group"][0]
        if case == "not_a_root":
            group[0][0] = two
        elif case == "jordan_block":
            dim = len(group)
            doc["matrices"]["group"][0] = [[one if j in (i, i + 1) else zero for j in range(dim)]
                                           for i in range(dim)]
        else:
            # basis vectors 0 and 1 differ in both their group and their dual
            # eigenvalue: the group matrix stays diagonalizable, but no longer
            # commutes with the dual one
            group[0][1] = one

    good, bad = _module_files(tmp_path, datum_b, edit)
    code, out, err = run(capsys, "module", command, bad, *([good] if command == "compare" else []))
    assert code == 2 and out == ""
    if case == "not_commuting":
        assert err == "error: group action matrices group[0] and gamma[0] do not commute\n"
    else:
        assert err == "error: group action is not diagonalizable with the expected eigenvalues\n"


# ---------------------------------------------------------------------------
# ar check


def test_ar_check_ok(capsys, datum_file):
    code, out, err = run(capsys, "ar", "check", datum_file("B"),
                         "--lemma", "4.9", "--max-t", "2")
    assert code == 0
    assert "satisfy all" in out
    assert "wall time" in err  # timing goes to stderr, not stdout


def test_ar_check_reports_unrealized_sequences(capsys, datum_file, monkeypatch):
    monkeypatch.setattr(homology, "ses_candidate", lambda a, mids, c, seed=0: None)
    code, out, _ = run(capsys, "ar", "check", datum_file("B"), "--lemma", "4.9", "--max-t", "2")
    lines = out.splitlines()
    assert code == 1 and len(lines) > 1
    assert all(line.endswith(": FAILED to realize maps") for line in lines[:-1])
    assert lines[-1] == (f"sequences: 0/{len(lines) - 1} satisfy all "
                         "almost-split conditions")


def test_ar_check_names_a_failed_radical_factoring(capsys, datum_file, monkeypatch):
    # over C, M_2 -> M_4 -> M_2 fails only the radical factoring (see
    # test_ar_check_requires_the_radical_to_factor_through_g); its line names
    # that, and the line of the almost-split M_2 -> M_1 (+) M_3 -> M_2 does not
    datum = make_datum("C")
    m = {t: band(datum, 1, first_weight(datum, 1), 1, t) for t in (1, 2, 3, 4)}
    seqs = [("M_2 -> M_4 -> M_2", m[2], [m[4]], m[2]),
            ("M_2 -> M_1+M_3 -> M_2", m[2], [m[1], m[3]], m[2])]
    monkeypatch.setattr(homology, "ar_sequences_for_lemma", lambda *args, **kwargs: seqs)
    code, out, _ = run(capsys, "ar", "check", datum_file("C"), "--lemma", "4.20")
    assert code == 1
    assert out.splitlines() == [
        "M_2 -> M_4 -> M_2: dims [8, 16, 8] exact=True split=False ends_local=(1,1) "
        "translate=yes radical_factors=no -> FAILED",
        "M_2 -> M_1+M_3 -> M_2: dims [8, 16, 8] exact=True split=False ends_local=(1,1) "
        "translate=yes -> ok",
        "sequences: 1/2 satisfy all almost-split conditions"]


def test_ar_check_wrong_family_for_datum(capsys, datum_file):
    code, _, err = run(capsys, "ar", "check", datum_file("B"), "--lemma", "4.28")
    assert code == 2
    assert "m" in err


@pytest.mark.parametrize("l", ["0", "5"])
def test_ar_check_empty_weight_class_exits_2(capsys, datum_file, l):
    code, _, err = run(capsys, "ar", "check", datum_file("E"), "--lemma", "4.20", "--l", l)
    assert code == 2
    assert err.count("\n") == 1 and f"no weights in class l={l}" in err


def test_ar_check_restricted_weight(capsys, datum_file):
    code, out, _ = run(capsys, "ar", "check", datum_file("C"),
                       "--lemma", "4.5", "--l", "1", "--lambda", "0;0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] >= 1
    assert payload["ok"] == payload["total"]


def test_ar_check_weight_class_alone(capsys, datum_file):
    # --l without --lambda takes the first weight of the class
    code, out, _ = run(capsys, "ar", "check", datum_file("E"), "--lemma", "4.5", "--l", "2")
    lines = out.splitlines()
    assert code == 0
    assert lines[-1] == "sequences: 5/5 satisfy all almost-split conditions"
    assert all(" l=2 lam=(0;2): " in line and line.endswith("-> ok") for line in lines[:-1])


@pytest.mark.parametrize("lemma", ["4.5", "4.9", "4.20"])
def test_ar_check_l_outside_regular_range_exits_2(capsys, datum_file, lemma):
    # l = n = 3 has weights, but the sequences need 1 <= l <= n - 1
    code, out, err = run(capsys, "ar", "check", datum_file("E"), "--lemma", lemma, "--l", "3")
    assert (code, out, err) == (2, "", "error: l=3 outside 1..2\n")


@pytest.mark.parametrize("file, argv, message", [
    ("C", ("--lambda", "0;0"), "--lambda needs --l"),
    ("C", ("--l", "1", "--lambda", "00"), "compact weight form is 'g1,g2,...;h1,h2,...'"),
    ("C", ("--l", "1", "--lambda", "x;0"), "bad weight component 'x'"),
    ("C", ("--l", "1", "--lambda", "0,0;0"), "weight needs 1 exponent(s) per part"),
    ("C", ("--etas", ""), "empty eta list"),
    (None, (), "cannot read "),
], ids=["lambda_without_l", "no_semicolon", "bad_component", "exponent_count", "no_etas",
        "missing_file"])
def test_ar_check_malformed_arguments_exit_2(capsys, tmp_path, datum_file, file, argv, message):
    path = datum_file(file) if file else str(tmp_path / "absent.json")
    code, out, err = run(capsys, "ar", "check", path, "--lemma", "4.5", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# classify


def classify_json(capsys, path, *extra):
    code, out, err = run(capsys, "classify", path, "--format", "json", *extra)
    return code, out, err


def test_classify_summary(capsys, datum_file):
    code, out, _ = classify_json(capsys, datum_file("A"),
                                 "--max-t", "2", "--max-s", "2",
                                 "--etas", "1,-1,2,0,inf")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["all_end_local_one"] is True
    assert payload["summary"]["all_relations_ok"] is True
    assert payload["pairwise"]["min_sum_end_local"] >= 2
    assert payload["truncated"] is False
    assert payload["pairwise"]["isomorphic_pairs"] == []
    families = {e["family"] for e in payload["entries"]}
    assert {"V", "P", "W", "Omega"} <= families
    assert "M" not in families and "T" not in families


def test_classify_deterministic_across_jobs(capsys, datum_file):
    path = datum_file("B")
    for key in ("B", "C"):
        code1, out1, _ = classify_json(capsys, datum_file(key), "--seed", "5")
        code2, out2, _ = classify_json(capsys, datum_file(key), "--seed", "5", "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2
    # --jobs is accepted and ignored: the budget truncates at the same entry
    code1, out1, _ = run(capsys, "classify", path, "--budget", "24")
    code2, out2, _ = run(capsys, "classify", path, "--budget", "24", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2 and "TRUNCATED" in out1


def test_cli_import_leaves_process_pool_out(datum_file):
    # classify runs in one process at any --jobs: no concurrent.futures (or
    # multiprocessing); records are namedtuples, so no dataclasses (or the
    # inspect it imports) either
    src = str(pathlib.Path(doublerep.__file__).resolve().parents[1])
    argv = ["classify", datum_file("B"), "--jobs", "2", "--budget", "24"]
    code = (f"import sys; sys.path.insert(0, {src!r}); import doublerep.cli; "
            f"rc = doublerep.cli.main({argv!r}); "
            "print(rc, [m for m in ('concurrent.futures', 'dataclasses', 'inspect') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("argv, flag", [
    (("classify", "{B}", "--max-t", "-1"), "--max-t"),
    (("classify", "{B}", "--max-s", "-1"), "--max-s"),
    (("ar", "check", "{B}", "--lemma", "4.20", "--max-t", "0"), "--max-t"),
    (("classify", "{B}", "--budget", "-1"), "--budget"),
    (("classify", "{B}", "--jobs", "0"), "--jobs"),
    (("classify", "{B}", "--jobs", "-2"), "--jobs"),
])
def test_malformed_numeric_bound_exits_2(capsys, datum_file, argv, flag):
    code, out, err = run(capsys, *(a.format(B=datum_file("B")) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be at least") and err.count("\n") == 1


def test_classify_budget_truncation(capsys, datum_file):
    code, out, _ = classify_json(capsys, datum_file("B"), "--budget", "24")
    assert code == 0
    payload = json.loads(out)
    assert payload["truncated"] is True
    assert payload["summary"]["total_dim"] <= 24
    assert payload["entries"]  # partial manifest still present


def test_classify_walks_a_huge_manifest_without_listing_it(datum_file):
    # 99 + 42 * 20 000 000 members, of which the budget admits 9: the run
    # builds neither the member list nor the t axis, so it fits in 1.5 GB
    def cap_address_space():
        limit = 1_500_000 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(pathlib.Path(doublerep.__file__).resolve().parents[1])
    argv = ["classify", datum_file("E"), "--max-t", "20000000", "--max-s", "0",
            "--etas", "1", "--budget", "10"]
    code = (f"import sys; sys.path.insert(0, {src!r}); import doublerep.cli; "
            f"sys.exit(doublerep.cli.main({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, preexec_fn=cap_address_space)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[-2:] == [
        "TRUNCATED: dimension budget 10 exhausted after 9 of 840000099 modules",
        "manifest ok"]


@pytest.mark.parametrize("key", ["A", "B", "C", "D", "E", "F", "R2"])
def test_classify_manifest_size_counts_the_members_walked(key):
    total, specs = cli._classify_specs(make_datum(key), 2, 2, cli.parse_etas("1,-1,0,inf"))
    assert total == sum(1 for _ in specs) > 0


@pytest.mark.parametrize("key", ["B", "E"])
def test_classify_evaluates_each_weight_tag_once(capsys, datum_file, monkeypatch, key):
    # the datum keeps the character values of each weight tag: 2 * rank + 2 of
    # them (at the generators of G and of G-hat, at a and at chi), besides the
    # generator constants chi(g_i) and gamma_i(a); classification reads integer
    # exponents, so only these characters and generator_constants values count
    d = make_datum(key)
    rank, weights = d.group.rank, d.group.size ** 2
    calls = []
    evaluate = doublerep.datum._char_value

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(doublerep.datum, "_char_value", counted)
    code, _, _ = run(capsys, "classify", datum_file(key),
                     "--max-t", "1", "--max-s", "1", "--etas", "1")
    assert code == 0
    assert len(calls) <= (2 * rank + 2) * weights + 2 * rank + 1


def test_classify_solves_each_pass_and_hom_system_once(capsys, datum_file, monkeypatch):
    # In classify E, the Hom pass against the candidate simples is built at
    # most once per module (submodules included) and direction, counted where
    # it builds its Schur certificate, and a Hom system is eliminated once for
    # each content: x and xi of both modules and the equal-weight index pairs
    # that carry the unknowns.
    keep, passes = [], Counter()
    schur_zero = homology._schur_zero

    def counted_pass(m, into):
        keep.append(m)
        passes[id(m), into] += 1
        return schur_zero(m, into)

    def content(m):
        return tuple(tuple(tuple(sorted(r.items())) for r in op.nz_rows())
                     for op in (m.act_x, m.act_xi))

    systems, eliminations, inside = set(), [], []
    hom_space, solve, nullspace = homology.hom_space, homology._eliminate_homs, homology.nullspace

    def counted_hom_space(a, b):
        keep.extend((a, b))
        pos = frozenset((i, j) for i, v in enumerate(b.weights)
                        for j, w in enumerate(a.weights) if v == w)
        if pos:
            systems.add((content(a), content(b), pos))
        return hom_space(a, b)

    def counted_solve(a, b, unknowns):
        inside.append(True)
        try:
            return solve(a, b, unknowns)
        finally:
            inside.pop()

    def counted_nullspace(m):
        if inside:
            eliminations.append(m)
        return nullspace(m)

    monkeypatch.setattr(homology, "_schur_zero", counted_pass)
    monkeypatch.setattr(homology, "hom_space", counted_hom_space)
    monkeypatch.setattr(homology, "_eliminate_homs", counted_solve)
    monkeypatch.setattr(homology, "nullspace", counted_nullspace)
    code, _, _ = run(capsys, "classify", datum_file("E"),
                     "--max-t", "1", "--max-s", "1", "--etas", "1")
    assert code == 0
    assert max(passes.values()) == 1
    assert len(eliminations) == len(systems)


def test_classify_solves_no_simple_hom_that_is_zero(capsys, datum_file, monkeypatch):
    # In classify E, every Hom space against a candidate simple that has no
    # map is proved zero by the Schur certificate of the weight blocks, so no
    # elimination inside a Hom pass returns the zero space; without the
    # certificate 206 of that pass's 335 eliminations did, of 435 in all.
    solved, inside = [], []
    hom_pass, solve = homology._pass, homology._eliminate_homs

    def counted_pass(m, into):
        inside.append(True)
        try:
            return hom_pass(m, into)
        finally:
            inside.pop()

    def counted_solve(a, b, unknowns):
        homs = solve(a, b, unknowns)
        solved.append((bool(inside), homs))
        return homs

    monkeypatch.setattr(homology, "_pass", counted_pass)
    monkeypatch.setattr(homology, "_eliminate_homs", counted_solve)
    code, _, _ = run(capsys, "classify", datum_file("E"),
                     "--max-t", "1", "--max-s", "1", "--etas", "1")
    assert code == 0
    assert all(homs for in_pass, homs in solved if in_pass)
    assert len(solved) <= 229


def test_classify_reads_each_pass_record_once(capsys, datum_file, monkeypatch):
    # In classify A, each module's Hom pass is built at most once per side,
    # counted where it builds its Schur certificate.  One elimination of the
    # pass gives the simples of the head and the kernel rad m, so a module
    # that is both walked and covered (two Omega^s V here) eliminates its
    # Hom(m, S) maps once: 244 Echelon constructions, where reading the
    # head's dimension again from their rank made 247.
    keep, passes, echelons = [], Counter(), []
    schur_zero, init = homology._schur_zero, linalg.Echelon.__init__

    def counted_pass(m, into):
        keep.append(m)
        passes[id(m), into] += 1
        return schur_zero(m, into)

    def counted_init(self, order):
        echelons.append(order)
        init(self, order)

    monkeypatch.setattr(homology, "_schur_zero", counted_pass)
    monkeypatch.setattr(linalg.Echelon, "__init__", counted_init)
    code, out, _ = run(capsys, "classify", datum_file("A"),
                       "--max-t", "2", "--max-s", "2", "--etas", "1,-1")
    assert code == 0 and out.splitlines()[-1] == "manifest ok"
    assert max(passes.values()) == 1
    assert len(echelons) <= 244


def test_classify_analyzes_each_shape_once(capsys, datum_file, monkeypatch):
    # Over E, the 177 members have 68 shapes (x, xi and the partition of the
    # basis into weight spaces) and 68 contents (x and xi).  Each shape is
    # decided once: a multiplicity-free one by its weight graph, any other by
    # the Loewy walk and the trace form of End, each run once for it.  The
    # relation products run once per content, and so do the kernels of x,
    # counted when x has at most one nonzero per row and column and
    # eliminated otherwise.  A trace form is counted where its Gram matrix
    # is built for the End radical.
    runs = {name: [] for name in ("graph", "walk", "trace form", "products", "kernel",
                                  "x kernel dim")}

    def counted(owner, attr, name):
        fn = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda m: runs[name].append(m) or fn(m))

    coords, gram, radical_of = homology._end_radical_coords, homology._trace_gram, []

    def counted_coords(m):
        radical_of.append(m)
        try:
            return coords(m)
        finally:
            radical_of.pop()

    def counted_gram(fs, gs):
        if radical_of:
            runs["trace form"].append(radical_of[-1])
        return gram(fs, gs)

    kernel_dim = homology._kernel_dim

    def counted_kernel_dim(op, kernel):
        mod = kernel.__self__
        if op is mod.act_x:
            runs["x kernel dim"].append(mod)
        return kernel_dim(op, kernel)

    monkeypatch.setattr(homology, "_end_radical_coords", counted_coords)
    monkeypatch.setattr(homology, "_trace_gram", counted_gram)
    monkeypatch.setattr(homology, "_kernel_dim", counted_kernel_dim)
    counted(homology, "_read_weight_graph", "graph")
    counted(homology, "_solve_loewy", "walk")
    counted(repmod, "_relation_products", "products")
    counted(ModuleRep, "x_kernel", "kernel")
    code, _, _ = run(capsys, "classify", datum_file("E"),
                     "--max-t", "1", "--max-s", "1", "--etas", "1")
    assert code == 0
    shapes = {name: [m.shape() for m in runs[name]] for name in ("graph", "walk", "trace form")}
    for name, found in shapes.items():
        assert len(found) == len(set(found)), name
    decided = shapes["graph"] + shapes["walk"]
    assert len(decided) == len(set(decided)) == 68
    assert set(shapes["trace form"]) == set(shapes["walk"])
    assert all(homology._weight_graph(m) is None for m in runs["walk"])
    for name in ("products", "x kernel dim"):
        assert len(runs[name]) == len({m.content() for m in runs[name]}) == 68, name
    # x is eliminated only where some row or column has two nonzeros, each
    # content once
    for m in runs["kernel"]:
        cols = [j for r in m.act_x.nz_rows() for j in r]
        assert len(set(cols)) < len(cols) or any(len(r) > 1 for r in m.act_x.nz_rows())
    assert len(runs["kernel"]) == len({m.content() for m in runs["kernel"]}) < 68


def test_classify_walks_a_module_whose_relations_fail(capsys, datum_file, monkeypatch):
    # The Loewy walk assumes the relations, so classify does not walk a
    # member that fails them.  Over E, V(1, mu) for the second weight mu of
    # class 1 has the shape of V(1, lambda), lambda the first: x = xi = 0 on
    # one basis vector.  Moved to a weight outside class 1, its x xi - xi x = 0
    # no longer matches the weight, and its own walk would find no simple
    # quotient and raise.  Its entry keeps its End-local dimension, has no
    # type and fails the manifest with exit 1.
    datum = make_datum("E")
    lam, mu = datum.weights_in_class(1)[:2]
    v = FAMILIES["V"]
    first, second = v.member(datum, 1, lam), v.member(datum, 1, mu)
    twisted = ModuleRep(datum, [w.mul(Weight(datum.group, (1,), (0,))) for w in second.weights],
                        second.act_x, second.act_xi, second.labels)
    assert twisted.shape() == second.shape() == first.shape()
    assert "x_xi_commutator" in [c.name for c in twisted.verify_relations().failures()]
    member, walked = Family.member, []

    def built(fam, d, l, w, **params):
        return twisted if (fam.letter, l, w) == ("V", 1, mu) else member(fam, d, l, w, **params)

    for name in ("loewy_type", "loewy_structure", "_solve_loewy"):
        fn = getattr(homology, name)
        monkeypatch.setattr(homology, name, lambda m, fn=fn: walked.append(m) or fn(m))
    monkeypatch.setattr(Family, "member", built)
    monkeypatch.setattr(cli, "_load_datum", lambda path: datum)
    code, out, _ = classify_json(capsys, "E.json", "--max-t", "1", "--max-s", "0",
                                 "--etas", "1")
    assert code == 1
    entries = {e["tag"]: e for e in json.loads(out)["entries"]}
    assert entries[f"V(l=1, lam={lam.label()})"]["type"] == {"s": 1, "t": 1, "rl": 1}
    bad = entries[f"V(l=1, lam={mu.label()})"]
    assert (bad["relations_ok"], bad["end_local_dim"], bad["type"], bad["type_ok"]) == (
        False, 1, None, False)
    assert walked and not any(m is twisted for m in walked)
    code, out, err = run(capsys, "classify", "E.json", "--max-t", "1", "--max-s", "0",
                         "--etas", "1")
    assert (code, "Traceback" in err) == (1, False)
    assert f"V(l=1, lam={mu.label()}): dim 1, el 1, type - [CHECK FAILED]" in out.splitlines()
    assert out.splitlines()[-1] == "manifest FAILED"


def test_classify_text_contains_counts(capsys, datum_file):
    code, out, _ = run(capsys, "classify", datum_file("A"),
                       "--max-t", "1", "--max-s", "1", "--etas", "1")
    assert code == 0
    assert "modules" in out
    assert "pairwise" in out or "distinct" in out
