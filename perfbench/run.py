"""The doublerep benchmark: fixed CLI workloads, each run in a fresh process.

    python3 perfbench/run.py --workload classify-E --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py                      # every workload in turn

Run it from anywhere; it builds nothing and uses ``src/`` of the checkout it
sits in.  Every command's exit code and stdout are compared byte for byte with
``perfbench/expected/``.

``--trace 0`` repeats the workload until ``--seconds`` have passed, with
``datum check`` set-up samples and a calibration loop between the repetitions,
and reports the end-to-end metrics: medians of wall time, of the process
tree's CPU time and of set-up time, each scaled to the reference speed of the
calibration loop, and the largest RSS of any process.

``--trace 1`` runs the workload once untraced and twice under the layer tracer
(``perfbench/traced.py``, PYTHONHASHSEED 1 and 2), requires every count to
repeat exactly between the two traced runs, and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``src/doublerep`` the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from tracer import layer_metrics
from traced import REPORT_PREFIX

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected"
COUNTS = BENCH / "counts.json"      # counts of a traced run when the benchmark was added

# Why each workload is here: see perfbench/README.md.
WORKLOADS = {
    "classify-E": ("E", ["classify", "--max-t", "1", "--max-s", "1", "--etas", "1"]),
    "ar-E": ("E", ["ar", "check", "--lemma", "4.20", "--max-t", "2", "--etas", "1,-1"]),
    "classify-G-j2": ("G", ["classify", "--max-t", "1", "--max-s", "1", "--etas", "1",
                            "--jobs", "2"]),
}
SETUP_PER_REPEAT = 3      # datum-check samples taken before each repetition
RUN_LIMIT_S = 170.0       # every run must end within 180 s
TRACE_HASH_SEEDS = ("1", "2")
CAL_REF_S = 0.7          # seconds of calibrate() that define the reference speed


@dataclass
class Execution:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    stdout: str
    stderr: str


def datum_path(datum: str) -> str:
    return f"perfbench/datums/{datum}.json"


def workload_argv(workload: str, seed: int) -> list[str]:
    datum, argv = WORKLOADS[workload]
    # The datum file follows the subcommand words.
    words = 2 if argv[0] == "ar" else 1
    return argv[:words] + [datum_path(datum)] + argv[words:] + ["--seed", str(seed)]


def child_env(hash_seed: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = hash_seed
    # Commands load bytecode from src/doublerep/__pycache__, as an installed
    # package does, so they may write it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def execute(cmd: list[str], expected: str, hash_seed: str, deadline: float) -> Execution:
    """Run ``cmd`` in its own process group; compare exit code and stdout.

    The child is reaped with wait4, whose resource usage covers the child and
    every worker process it waited for: CPU time is their sum and RSS their
    maximum.  At ``deadline`` the whole process group is killed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(hash_seed), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), _kill_group, (proc.pid,))
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out.decode("utf-8", "replace")
    return Execution(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                     proc.returncode == 0 and stdout == expected, stdout,
                     b"".join(err).decode("utf-8", "replace"))


def expected_output(name: str) -> str:
    return (EXPECTED / f"{name}.txt").read_text(encoding="utf-8")


class Checked:
    """Counts attempted and failed executions and reports each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, label: str, ex: Execution) -> Execution:
        self.attempted += 1
        if not ex.ok:
            self.failed += 1
            print(f"FAILED {label}: exit code or stdout differs from the reference",
                  file=sys.stderr)
            print(ex.stderr[-2000:], file=sys.stderr)
        return ex


def environment() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "doublerep").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_revision": rev, "src_sha256": digest.hexdigest()[:16]}


def run_timed(workload: str, seed: int, seconds: float, deadline: float,
              check: Checked) -> dict[str, float]:
    datum = WORKLOADS[workload][0]
    py = sys.executable
    setup_cmd = [py, "-m", "doublerep.cli", "datum", "check", datum_path(datum)]
    work_cmd = [py, "-m", "doublerep.cli"] + workload_argv(workload, seed)
    setup_ref = expected_output(f"setup-{datum}")
    work_ref = expected_output(workload)
    hash_seed = str(seed % 2**32)

    # Untimed: writes the bytecode cache, as an installed package has one.
    check.add("warm-up datum check", execute(setup_cmd, setup_ref, hash_seed, deadline))
    measured: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "setup_s": []}
    scaled: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "setup_s": []}
    rss: list[float] = []
    cal = [calibrate()]
    start = time.monotonic()
    while not rss or time.monotonic() - start < seconds:
        setups = [check.add("datum check", execute(setup_cmd, setup_ref, hash_seed,
                                                   deadline)).wall_s
                  for _ in range(SETUP_PER_REPEAT)]
        ex = check.add(workload, execute(work_cmd, work_ref, hash_seed, deadline))
        cal.append(calibrate())
        # Machine speed drifts by up to 2x over minutes: scale each sample to the
        # reference speed, by the mean of the calibrations either side of it.
        scale = CAL_REF_S / ((cal[-2] + cal[-1]) / 2)
        for key, values in (("wall_s", [ex.wall_s]), ("cpu_s", [ex.cpu_s]),
                            ("setup_s", setups)):
            measured[key] += values
            scaled[key] += [v * scale for v in values]
        rss.append(ex.rss_mb)
        if time.monotonic() > deadline:
            break
    metrics = {key: statistics.median(values) for key, values in scaled.items()}
    metrics["peak_rss_mb"] = max(rss)
    print(f"{workload}: {len(rss)} runs, {len(measured['setup_s'])} set-up samples; "
          "calibration " + " ".join(f"{c:.3f}" for c in cal) + " s")
    for key, values in measured.items():
        print(f"  {key:11s} = {metrics[key]:.4f} s at reference speed; as measured: median "
              f"{statistics.median(values):.4f} s of " + " ".join(f"{v:.3f}" for v in values))
    print(f"  peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio  = {check.failed}/{check.attempted}")
    return metrics


def calibrate() -> float:
    """Seconds this machine now takes for a fixed loop of ``Fraction`` arithmetic,
    the kind of work doublerep does.  It takes ``CAL_REF_S`` at the reference speed."""
    t0 = time.perf_counter()
    for _ in range(4):
        total = Fraction(0)
        for i in range(1, 30000):
            total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return time.perf_counter() - t0


def stdout_facts(stdout: str) -> tuple[int, int, int]:
    """(manifest entries or sequences, pairs, pairs that needed Hom solves)."""
    m = re.search(r"^modules: (\d+)", stdout, re.M)
    if m:
        p = re.search(r"^pairwise: (\d+) pairs, \d+ distinct, (\d+) needed Hom solves",
                      stdout, re.M)
        return int(m.group(1)), int(p.group(1)), int(p.group(2))
    s = re.search(r"^sequences: \d+/(\d+) ", stdout, re.M)
    return int(s.group(1)), 0, 0


def trace_counts(rep: dict) -> dict[str, int]:
    counts = {f"calls.{k}": v for k, v in rep["calls"].items()}
    counts.update({f"spans.{k}": v for k, v in rep["span_calls"].items()})
    counts["elim_cells"] = rep["elim_cells"]
    counts["matmul_calls"] = rep["matmul_calls"]
    return counts


def run_traced(workload: str, seed: int, deadline: float,
               check: Checked) -> tuple[dict[str, float], bool]:
    py = sys.executable
    argv = workload_argv(workload, seed)
    ref = expected_output(workload)
    plain = check.add(workload, execute([py, "-m", "doublerep.cli"] + argv, ref,
                                        str(seed % 2**32), deadline))
    traced, reports = [], []
    for hs in TRACE_HASH_SEEDS:
        ex = check.add(f"{workload} traced, PYTHONHASHSEED={hs}",
                       execute([py, str(BENCH / "traced.py")] + argv, ref, hs, deadline))
        last = ex.stderr.rstrip("\n").rsplit("\n", 1)[-1]
        if not last.startswith(REPORT_PREFIX):
            return {}, False
        traced.append(ex.wall_s)
        reports.append(json.loads(last[len(REPORT_PREFIX):]))
    counts = [trace_counts(r) for r in reports]
    repeat = counts[0] == counts[1]
    if not repeat:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        print(f"FAILED: counts differ between PYTHONHASHSEED values: {diff}", file=sys.stderr)
    overhead = statistics.median(traced) / plain.wall_s
    # Entry and pair totals are read from the reference, which every correct run prints.
    facts = stdout_facts(ref)
    metrics = layer_metrics(reports[0], *facts, overhead)
    # Times are the mean of the two traced runs; counts are equal in both.
    second = layer_metrics(reports[1], *facts, overhead)
    for k, v in metrics.items():
        if isinstance(v, float):
            metrics[k] = (v + second[k]) / 2
    print(f"{workload}: traced wall {' '.join(f'{t:.3f}' for t in traced)} s, "
          f"untraced {plain.wall_s:.3f} s")
    for k, v in metrics.items():
        print(f"  {k:34s} = {v:.6g} {metric_unit(k)}")
    print("  counts repeat across PYTHONHASHSEED: " + ("yes" if repeat else "NO"))
    current = {k: v for k, v in metrics.items() if isinstance(v, int)}
    recorded = json.loads(COUNTS.read_text())
    changed = sorted(k for k, v in recorded["counts"].get(workload, {}).items()
                     if current.get(k) != v)
    print(f"  counts changed since {COUNTS.name} (seed {recorded['seed']}): "
          + (", ".join(changed) or "none"))
    print("counts: " + json.dumps(current, sort_keys=True))
    return metrics, repeat


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_per_build", ".overhead")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "doublerep" / "cli.py").is_file():
        print(f"perfbench: no doublerep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    checks = []
    correct = True
    metrics: dict[str, float] = {}
    for workload in workloads:
        deadline = time.monotonic() + RUN_LIMIT_S
        check = Checked()
        checks.append(check)
        if args.trace:
            values, repeat = run_traced(workload, args.seed, deadline, check)
            correct = correct and repeat
        else:
            values = run_timed(workload, args.seed, args.seconds, deadline, check)
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + k: v for k, v in values.items()})
    env["loadavg_after"] = os.getloadavg()
    print("environment: " + json.dumps(env))
    result = {
        "correct": correct and not any(c.failed for c in checks),
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "metrics": {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
