"""kglab benchmark: time to verdict of the public CLI on four workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark calls ``kglab.cli.main``
in-process, one operation at a time (a closed loop with one client); the
CLI's own thread pool keeps its default size.  Every operation's outputs
are checked (see ``checks.py``).  End-to-end times are scaled to a
reference machine speed measured around each timed step (see
``calibrate.py``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
with ``--trace 0`` the end-to-end metrics of an untraced run, with
``--trace 1`` the per-layer metrics of a traced run (see ``tracer.py``).
Scratch files go to ``.bench_work/`` in the checkout.  Metric definitions
and the reasons behind each workload are in ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
RSS_REPEATS = 3
CHILD_TIMEOUT_S = 120
#: calibration time after each timed operation, as a share of its wall time
CALIBRATION_SHARE = 0.1

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child(mode: str, spec) -> dict:
    res = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, str(SRC), json.dumps(spec)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if res.returncode != 0:
        raise RuntimeError(f"{mode} child exited {res.returncode}: {res.stderr.strip()[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def _compare(out: Path, reference: Path) -> list[str]:
    """Reference mismatches, found in a child process: parsing the reference
    and the outputs here would leave freed megabyte buffers that change how
    the allocator serves the program's arrays in later operations."""
    res = subprocess.run(
        [sys.executable, str(BENCH / "checks.py"), str(out), str(reference)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if res.returncode not in (0, 1):
        return [f"reference check exited {res.returncode}: {res.stderr.strip()[-2000:]}"]
    return res.stdout.splitlines()


class Runner:
    """Runs and checks operations of one workload, counting failures."""

    def __init__(self, op: list[list[str]], out: Path, reference: Path | None):
        import kglab.cli

        self.cli = kglab.cli  # main is looked up per call, so a traced one is used
        self.op = op
        self.out = out
        self.reference = reference
        self.digest: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self) -> tuple[float, list[int] | None]:
        """Time one operation on a cleared output directory."""
        self.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rcs = [self.cli.main(argv) for argv in self.op]
            except Exception:
                traceback.print_exc()
                rcs = None
            wall = time.perf_counter() - t0
        return wall, rcs

    def check(self, rcs: list[int] | None) -> bool:
        """Check the last operation's outputs; the first one sets the bytes
        every later one must repeat, and is compared with the reference."""
        self.attempted += 1
        try:
            problems = self._problems(rcs)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            print(f"operation {self.attempted} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        return not problems

    def _problems(self, rcs: list[int] | None) -> list[str]:
        if rcs is None:
            return ["raised an exception"]
        problems = [f"exit {rc}: kglab {argv[0]}" for rc, argv in zip(rcs, self.op) if rc != 0]
        problems += [f"verdict not passed: {name}" for name in checks.failed_verdicts(self.out)]
        digest = checks.output_digest(self.out)
        if self.digest is None:
            self.digest = digest
            if self.reference is not None:
                problems += _compare(self.out, self.reference)
        elif digest != self.digest:
            changed = sorted(k for k in digest.keys() | self.digest.keys() if digest.get(k) != self.digest.get(k))
            problems.append(f"rerun not byte-identical: {', '.join(changed[:5])}")
        return problems


def _timed(runner: Runner, seconds: float, spans: tracer.Tracer | None = None, after=None, between=None):
    """Run checked operations for ``seconds`` (at least one).

    ``after(wall)`` runs right after each operation, before its check;
    ``between(elapsed)`` runs after the check.  Both are outside its timing.
    Returns the wall times and, when traced, the per-layer metrics of each
    operation that passed its checks.
    """
    walls, per_op = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        if spans is not None:
            spans.op += 1
        wall, rcs = runner.run()
        walls.append(wall)
        if after is not None:
            after(wall)
        if runner.check(rcs) and spans is not None:
            per_op.append(tracer.op_metrics([s for s in spans.spans if s.op == spans.op], wall))
        if between is not None:
            between(time.perf_counter() - start)
    return walls, per_op


def _end_to_end(runner: Runner, rss_op: list[list[str]], rss_out: Path, seconds: float) -> dict[str, float]:
    rss = []
    for _ in range(RSS_REPEATS):
        child = _child("rss", rss_op)
        runner.attempted += 1
        if any(rc != 0 for rc in child["rcs"]) or checks.failed_verdicts(rss_out):
            runner.failed += 1
        rss.append(child["maxrss_kib"] / 1024.0)
        shutil.rmtree(rss_out, ignore_errors=True)

    # set-up children run between timed operations, spread over the run,
    # so that they see the same machine as the operations do.  They report
    # main-thread CPU time: their wall time depends on what ran just before
    # (0.15 s after a leapfrog operation, 0.23 s after a shipped one)
    loads = [[argv[0], argv[argv.index("--config") + 1]] for argv in runner.op if "--config" in argv]
    setups, walls = [], []

    def setup(elapsed: float) -> None:
        if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(speed.scale(_child("setup", loads)["setup_s"]))

    warm_wall, rcs = runner.run()  # warm-up, also the reference check
    runner.check(rcs)
    repeats = max(1, round(CALIBRATION_SHARE * warm_wall / calibrate.unit_seconds(3)))
    speed = calibrate.Speed(repeats)
    raw, _ = _timed(runner, seconds, after=lambda wall: walls.append(speed.scale(wall)), between=setup)
    while len(setups) < SETUP_REPEATS:
        setups.append(speed.scale(_child("setup", loads)["setup_s"]))
    for name, values in (("wall_s", walls), ("raw wall", raw), ("setup_s", setups), ("peak_rss_mb", rss)):
        print(f"{name}: {len(values)} samples, min {min(values):.6g} median {statistics.median(values):.6g} max {max(values):.6g}")
    units = [u * 1e3 for u in speed.units]
    print(f"calibration: {len(units)} x {repeats} units, min {min(units):.4g} median {statistics.median(units):.4g} max {max(units):.4g} ms per unit")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }


def _per_layer(runner: Runner, work: Path, seconds: float) -> dict[str, float]:
    runner.check(runner.run()[1])  # warm-up, also the reference check
    untraced, _ = _timed(runner, seconds / 2)
    spans = tracer.Tracer()
    spans.install()
    try:
        traced, per_op = _timed(runner, seconds / 2, spans)
    finally:
        spans.uninstall()
    spans.write(work / "spans.jsonl")
    if spans.absent:
        print("absent from the program, recorded as 0: " + ", ".join(spans.absent))
    print(f"{len(untraced)} untraced and {len(traced)} traced operations")
    if not per_op:
        raise RuntimeError("no traced operation passed its checks")
    return tracer.summarize(per_op, statistics.median(untraced))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kglab" / "cli.py").is_file():
        print(f"error: no kglab sources under {SRC}; run from a kglab checkout", file=sys.stderr)
        return 2
    # the defaults a user gets: the CLI's own pool size, and no allocator
    # tuning (this process read MALLOC_* at start; its children will not)
    for key in list(os.environ):
        if key == "KGLAB_THREADS" or key.startswith("MALLOC_"):
            del os.environ[key]
    sys.path.insert(0, str(SRC))

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    op = workloads.build(args.workload, args.seed, ROOT, work / "configs", work / "out")
    reference = BENCH / "reference" / f"{args.workload}.json.xz" if args.seed == 0 else None
    runner = Runner(op, work / "out", reference)
    try:
        if args.trace:
            values = _per_layer(runner, work, args.seconds)
            units = tracer.METRICS
        else:
            rss_op = workloads.build(args.workload, args.seed, ROOT, work / "configs", work / "rss_out")
            values = _end_to_end(runner, rss_op, work / "rss_out", args.seconds)
            units = END_TO_END
    finally:
        runner.clear()
    for name, unit in units.items():
        print(f"{args.workload}  {name:34s} {values[name]:.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
