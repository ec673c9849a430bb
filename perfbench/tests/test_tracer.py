"""Tests of the benchmark's layer tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import LAYERS, PACKAGE, Tracer  # noqa: E402

import doublerep  # noqa: E402,F401  (loads every layer module)
from doublerep import cli  # noqa: E402

# Datum C of the unit tests: Z_4, non-nilpotent, small enough for a quick classify.
DATUM_C = {"orders": [4], "chi": [2], "a": [1], "alpha": 1}


def _public_function_aliases() -> dict[tuple[str, str], object]:
    """(namespace, name) -> function, for every name bound in any doublerep
    module to a public module-level function of a layer module."""
    layer_modules = {f"{PACKAGE}.{layer}" for layer in LAYERS}
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for name, val in vars(mod).items():
            if (inspect.isfunction(val) and val.__module__ in layer_modules
                    and not val.__name__.startswith("_")):
                out[(mod_name, name)] = val
    return out


@pytest.fixture
def datum_c_file(tmp_path) -> str:
    path = tmp_path / "C.json"
    path.write_text(json.dumps(DATUM_C))
    return str(path)


def _traced_main(tracer: Tracer, argv: list[str]) -> tuple[int, dict]:
    tracer.install()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()
    return rc, tracer.report(wall)


def test_install_rebinds_every_alias_and_uninstall_restores(datum_c_file, capsys):
    from doublerep import cyclo, homology, linalg

    before = _public_function_aliases()
    assert homology.rank is linalg.rank and cli.rank is linalg.rank
    mul = vars(cyclo.CycScalar)["__mul__"]
    tracer = Tracer()
    tracer.install()
    try:
        during = {key: getattr(sys.modules[key[0]], key[1]) for key in before}
        for key, original in before.items():
            assert during[key] is not original, key
        # One wrapper per function, whatever alias it is reached through.
        assert homology.rank is cli.rank is linalg.rank
        assert homology.rank.__name__ == "rank"
        assert vars(cyclo.CycScalar)["__mul__"] is not mul
        rc = cli.main(["classify", datum_c_file, "--max-t", "1", "--max-s", "1",
                       "--etas", "1"])
    finally:
        tracer.uninstall()
    assert rc == 0
    for (mod_name, name), original in before.items():
        assert getattr(sys.modules[mod_name], name) is original, (mod_name, name)
    assert vars(cyclo.CycScalar)["__mul__"] is mul
    assert tracer.calls["cyclo.CycScalar.__mul__"] > 0
    assert tracer.report(1.0)["span_calls"]["linalg.rank"] > 0


def test_traced_stdout_matches_untraced(datum_c_file, capsys):
    argv = ["classify", datum_c_file, "--max-t", "1", "--max-s", "1", "--etas", "1"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    rc, _ = _traced_main(Tracer(), argv)
    assert rc == 0
    assert capsys.readouterr().out == plain


def test_layer_self_times_add_up_to_wall(datum_c_file, capsys):
    tracer = Tracer()
    rc, rep = _traced_main(tracer, ["classify", datum_c_file, "--max-t", "1",
                                    "--max-s", "1", "--etas", "1"])
    assert rc == 0
    assert set(rep["self_s"]) == set(LAYERS)
    assert all(v > 0 for v in rep["self_s"].values()), rep["self_s"]
    assert rep["unattributed_s"] >= 0
    total = sum(rep["self_s"].values()) + rep["unattributed_s"]
    assert total == pytest.approx(rep["wall_s"], rel=1e-9, abs=1e-9)
    assert len(tracer._stack) == 1


def test_failed_command_unwinds_every_frame(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"orders": [8], "chi": [2], "a": [2], "alpha": 1}))
    tracer = Tracer()
    rc, rep = _traced_main(tracer, ["datum", "check", str(bad)])
    assert rc == 2
    # The failed validation unwound every frame.
    assert len(tracer._stack) == 1
    assert sum(rep["self_s"].values()) + rep["unattributed_s"] == pytest.approx(
        rep["wall_s"], rel=1e-9, abs=1e-9)
    spans = tracer.spans
    assert all(s is not None for s in spans)
    # The root span is the command; its duration covers every other span.
    roots = [s for s in spans if s[0] is None]
    assert [s[1] for s in roots] == ["cli.main"]
    assert all(roots[0][2] <= s[2] and s[3] <= roots[0][3] for s in spans)
