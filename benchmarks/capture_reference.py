"""Capture the seed-0 reference outputs that ``run.py`` checks against.

    python3 benchmarks/capture_reference.py [WORKLOAD ...]

Run from the root of a checkout whose outputs are trusted; it rewrites
``benchmarks/reference/<workload>.json.xz`` for each named workload (all
by default).  Re-capturing changes what the benchmark accepts as correct.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys

import checks
import workloads
from run import BENCH, ROOT, SRC, WORK


def main() -> int:
    sys.path.insert(0, str(SRC))
    import kglab.cli

    for name in sys.argv[1:] or workloads.NAMES:
        work = WORK / name
        shutil.rmtree(work, ignore_errors=True)
        op = workloads.build(name, 0, ROOT, work / "configs", work / "out")
        with contextlib.redirect_stdout(io.StringIO()):
            rcs = [kglab.cli.main(argv) for argv in op]
        if any(rcs) or checks.failed_verdicts(work / "out"):
            print(f"{name}: exit codes {rcs}, failed verdicts {checks.failed_verdicts(work / 'out')}", file=sys.stderr)
            return 1
        path = BENCH / "reference" / f"{name}.json.xz"
        path.parent.mkdir(exist_ok=True)
        checks.save(checks.capture(work / "out"), path)
        shutil.rmtree(work)
        print(f"{name}: {path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
