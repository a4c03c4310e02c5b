"""Self-tests of the benchmark: the output check, the tracer and BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys

import pytest

import calibrate
import checks
import tracer
import workloads
from run import BENCH, END_TO_END, ROOT, SRC

sys.path.insert(0, str(SRC))
import kglab.cli  # noqa: E402
import kglab.runtime  # noqa: E402


def run_op(name, tmp_path, seed=0):
    out = tmp_path / "out"
    op = workloads.build(name, seed, ROOT, tmp_path / "configs", out)
    shutil.rmtree(out, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        rcs = [kglab.cli.main(argv) for argv in op]
    assert rcs == [0] * len(op)
    return out


def traced_op(name, tmp_path):
    spans = tracer.Tracer()
    spans.install()
    try:
        out = run_op(name, tmp_path)
    finally:
        spans.uninstall()
    return spans, out


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    return run_op("shipped", tmp_path_factory.mktemp("shipped"))


@pytest.fixture(scope="module")
def reference():
    return checks.load(BENCH / "reference" / "shipped.json.xz")


def test_seed0_outputs_match_reference(shipped, reference):
    assert checks.compare(shipped, reference) == []
    assert checks.failed_verdicts(shipped) == []


def test_check_rejects_cell_perturbed_by_1e_minus_6(shipped, reference, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(shipped, out)
    path = out / "propagator_default" / "slice_001.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("re_delta")
    row = max(range(1, len(rows)), key=lambda i: abs(float(rows[i][col])))
    rows[row][col] = repr(float(rows[row][col]) * (1 + 1e-6))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    problems = checks.compare(out, reference)
    assert len(problems) == 1 and "slice_001.csv:re_delta" in problems[0]


def test_check_rejects_flipped_passed(shipped, reference, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(shipped, out)
    path = out / "causal_default" / "report.json"
    report = json.loads(path.read_text())
    report["verdicts"]["cone_leakage"]["passed"] = False
    path.write_text(json.dumps(report))
    assert checks.compare(out, reference) == ["causal_default/report.json:cone_leakage.passed: False vs reference True"]
    assert checks.failed_verdicts(out) == ["causal_default/report.json:cone_leakage"]


def test_check_allows_imaginary_floor_to_become_zero(shipped, reference, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(shipped, out)
    path = out / "propagator_default" / "slice_000.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("im_delta")
    for row in rows[1:]:
        row[col] = "0.0"
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    assert checks.compare(out, reference) == []


def test_tracer_attributes_rebound_names(tmp_path):
    spans, _ = traced_op("shipped", tmp_path)
    by_id = {s.id: s for s in spans.spans}
    csv_writes = [s for s in spans.spans if s.name == "write_csv"]
    assert any(by_id[s.parent].name == "main" for s in csv_writes)  # series.csv, called by kglab.cli
    plus = [s for s in spans.spans if s.name == "delta_plus"]
    assert plus and all(by_id[s.parent].name == "pauli_jordan" for s in plus)
    assert spans.absent == []


def test_spans_in_workers_descend_from_the_map(tmp_path):
    spans, _ = traced_op("shipped", tmp_path)
    by_id = {s.id: s for s in spans.spans}
    items = [s for s in spans.spans if s.name == "parallel_map.item"]
    assert items and all(by_id[s.parent].name == "parallel_map" for s in items)
    for s in spans.spans:
        if s.name == "evolve_positive":
            assert by_id[s.parent].name == "parallel_map.item"


@pytest.mark.parametrize(
    "name, expected",
    [
        ("shipped", {"propagator.delta_plus_calls": 10, "propagator.pauli_jordan_calls": 5}),
        ("propagator-dense", {"propagator.delta_plus_calls": 14}),
        ("leapfrog-ladder", {"evolution.local_fd_steps": 1792}),
    ],
)
def test_counts_repeat_exactly(name, expected, tmp_path):
    counts = []
    for k in range(2):
        spans, _ = traced_op(name, tmp_path / str(k))
        metrics = tracer.op_metrics(spans.spans, wall=1.0)
        # page faults are measured, not computed from arguments or outputs
        computed = [m for m, unit in tracer.METRICS.items() if unit in ("count", "B") and "faults" not in m]
        counts.append({m: metrics[m] for m in computed})
    assert counts[0] == counts[1]
    for metric, value in expected.items():
        assert counts[0][metric] == value


def test_missing_function_records_as_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(kglab.runtime, "parallel_map")
    spans, _ = traced_op("shipped", tmp_path)
    assert spans.absent == ["runtime.parallel_map"]
    metrics = tracer.op_metrics(spans.spans, wall=1.0)
    assert metrics["runtime.map_s"] == 0 and metrics["runtime.overlap"] == 0
    assert metrics["propagator.delta_plus_calls"] == 10


def test_tracer_uninstall_restores_functions(tmp_path):
    original = kglab.cli.write_csv
    spans = tracer.Tracer()
    spans.install()
    assert kglab.cli.write_csv is not original
    spans.uninstall()
    assert kglab.cli.write_csv is original


def test_speed_scales_by_the_calibrations_around_each_step(monkeypatch):
    timings = iter([0.02, 0.01, 0.005])
    monkeypatch.setattr(calibrate, "unit_seconds", lambda repeats: next(timings))
    speed = calibrate.Speed(repeats=1)
    assert speed.scale(3.0) == pytest.approx(3.0 * calibrate.REFERENCE_S / 0.015)
    assert speed.scale(3.0) == pytest.approx(3.0 * calibrate.REFERENCE_S / 0.0075)


def test_calibration_unit_is_fixed_work():
    assert calibrate._unit() == calibrate._unit()
    assert calibrate.unit_seconds(1) > 0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.METRICS)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracer.METRICS.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "shipped", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0 and res.stdout == ""


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_configs_pass_every_verdict(seed, tmp_path):
    out = run_op("shipped", tmp_path, seed)
    assert checks.failed_verdicts(out) == []
