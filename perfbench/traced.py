"""Run one doublerep command with the layer tracer installed.

    PYTHONPATH=src python3 perfbench/traced.py classify perfbench/datums/E.json ...

The arguments are those of the ``doublerep`` command.  Its stdout is left as
the command wrote it; the trace report is printed as the last line of stderr,
after ``REPORT_PREFIX``.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer

REPORT_PREFIX = "perfbench-trace "


def main(argv: list[str]) -> int:
    from doublerep import cli

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()
    sys.stdout.flush()
    print(REPORT_PREFIX + json.dumps(tracer.report(wall)), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
