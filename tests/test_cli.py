import contextlib
import copy
import errno
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kglab.cli import main
from kglab.config import INITIAL_STATE, KEYS
from kglab.spectral import PreconditionError, UniformGrid, make_bump
from test_config import dotted, plant

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args, env_extra=None, timeout=None):
    env = dict(os.environ)
    env.pop("KGLAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "kglab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=timeout,
    )


def write_config(tmp_path, name, tree):
    path = tmp_path / name
    path.write_text(json.dumps(tree))
    return path


def small_propagator_config():
    # kernel aliasing scales with dx, so the fast fixture needs dx = 1/256
    # to keep the multiplier identity under its ceiling on a small grid
    return {
        "command": "propagator",
        "grid": {"n": 1024, "dx": 1 / 256},
        "mass": 1.0,
        "times": [0.0, 1.0],
        "margin": 0.2,
        "quadrature": {"rungs": 4, "residual_tol": 1e-6, "band_fraction": 0.5},
        "ratio_ceiling": 1e-4,
        "multiplier_error_ceiling": 1e-3,
        "zero_slice_ceiling": 1e-10,
        "output": {"format": "csv"},
    }


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_rightmover_snapshot_matches_translated_bump(tmp_path):
    out = tmp_path / "out"
    res = run_cli("evolve", "--config", str(REPO / "configs" / "rightmover.json"), "--out", str(out))
    assert res.returncode == 0, res.stderr
    rows = (out / "snapshot_000.csv").read_text().splitlines()[1:]
    x = np.array([float(r.split(",")[0]) for r in rows])
    re = np.array([float(r.split(",")[1]) for r in rows])
    assert np.max(np.abs(re - oracles.bump_profile(x - 2.0))) < 1e-10


@pytest.mark.parametrize("center,amplitude", [(0.0, 1.0), (0.21, 1.7), (-0.13, 0.6)])
def test_rightmover_obeys_dalembert(tmp_path, center, amplitude):
    # m = 0 with Pi = -Phi': d'Alembert's solution Phi(t, x) = f(x - t) is
    # exact, so the t = 2 snapshot is the datum moved right by 2; a field
    # that does not move errs by about the amplitude
    tree = json.loads((REPO / "configs" / "rightmover.json").read_text())
    tree["initial_state"].update(center=center, amplitude=amplitude)
    out = tmp_path / "out"
    res = run_cli("evolve", "--config", str(write_config(tmp_path, "mover.json", tree)), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert tree["snapshot_times"] == [2.0]
    x, re, im = np.loadtxt(out / "snapshot_000.csv", delimiter=",", skiprows=1, unpack=True)
    grid = UniformGrid(tree["grid"]["n"], tree["grid"]["dx"])
    assert np.array_equal(x, grid.x)
    moved = make_bump(grid, center + 2.0, tree["initial_state"]["radius"], amplitude).values
    assert np.max(np.abs(re - moved)) < 1e-10 * amplitude
    assert np.max(np.abs(im)) < 1e-10 * amplitude


def test_backward_evolution_is_measured_in_its_own_cone(tmp_path):
    # Phi(-t) = Phi(t) for a datum at rest: the rows of t = -1 and t = 1
    # agree bit for bit, and a right-mover run backward stays in its cone
    tree = json.loads((REPO / "configs" / "causal_default.json").read_text())
    tree.update(times=[-1.0, 1.0], snapshot_times=[])
    path = write_config(tmp_path, "backward.json", tree)
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "rest")]) == 0
    back, fwd = [row.split(",")[1:] for row in (tmp_path / "rest" / "series.csv").read_text().splitlines()[1:]]
    assert back == fwd
    tree = json.loads((REPO / "configs" / "rightmover.json").read_text())
    tree.update(times=[-2.0], snapshot_times=[])
    path = write_config(tmp_path, "mover.json", tree)
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "mover")]) == 0


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "prop.json", small_propagator_config())
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("propagator", "--config", str(cfg), "--out", str(out1)).returncode == 0
    assert run_cli("propagator", "--config", str(cfg), "--out", str(out2)).returncode == 0
    t1, t2 = tree_bytes(out1), tree_bytes(out2)
    assert list(t1) == [p for p in t2]
    assert all(t1[p] == t2[p] for p in t1)


def four_slice_propagator_config():
    return {**small_propagator_config(), "times": [0.0, 0.75, 0.875, 1.0]}


def test_thread_count_does_not_change_bytes(tmp_path):
    # four slices over one, two, three and four workers: stripes of one,
    # two and three slices, each worker a forked process
    cfg = write_config(tmp_path, "prop.json", four_slice_propagator_config())
    outs = {}
    for threads in ("1", "2", "3", "4"):
        out = tmp_path / f"t{threads}"
        res = run_cli(
            "propagator", "--config", str(cfg), "--out", str(out),
            env_extra={"KGLAB_THREADS": threads},
        )
        assert (res.returncode, res.stdout, res.stderr) == (0, "", "")
        outs[threads] = tree_bytes(out)
    assert len(outs["1"]) == 9
    assert outs["1"] == outs["2"] == outs["3"] == outs["4"]


def test_blas_thread_count_does_not_change_local_fd_bytes(tmp_path):
    # at n = 2^15 a threaded BLAS dot product splits its sum across threads
    tree = {
        "command": "evolve",
        "grid": {"n": 32768, "dx": 1 / 64},
        "mass": 1.0,
        "initial_state": {"factory": "bump", "radius": 1.0},
        "method": "local-fd",
        "dt": 1 / 128,
        "times": [1.0, 2.0],
        "snapshot_times": [2.0],
        "thresholds": {"support": 1e-12, "cone_leakage": 1e-8},
        "output": {"format": "json"},
    }
    cfg = write_config(tmp_path, "fd.json", tree)
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        res = run_cli("evolve", "--config", str(cfg), "--out", str(out), env_extra={"OPENBLAS_NUM_THREADS": threads})
        assert res.returncode == 0, res.stderr
        outs[threads] = tree_bytes(out)
    assert outs["1"] == outs["2"]


@pytest.mark.parametrize("config", ["hegerfeldt_default", "hegerfeldt_m2"])
def test_spectral_contrast_is_the_full_datum_at_rest(tmp_path, config):
    # compare_csv's atol cannot see a move in cells near 1e-27: compare reprs
    from kglab.diagnostics import cone_leakage, support_radius
    from kglab.dispersion import Mass
    from kglab.evolution import CauchyData, evolve_spectral
    from kglab.spectral import Field, UniformGrid, make_bump

    path = REPO / "configs" / f"{config}.json"
    tree = json.loads(path.read_text())
    assert main(["hegerfeldt", "--config", str(path), "--out", str(tmp_path)]) == 0
    grid = UniformGrid(**tree["grid"])
    state = tree["initial_state"]
    psi0 = make_bump(grid, state["center"], state["radius"], state["amplitude"])
    data = CauchyData(psi0, Field(grid, np.zeros(grid.n, dtype=np.complex128)), Mass(tree["mass"]))
    r0 = support_radius(psi0, threshold=tree["thresholds"]["support"])
    margin = tree["cone_margin_cells"] * grid.dx
    expected = [repr(cone_leakage(evolve_spectral(data, t).phi, r0, t, margin)) for t in tree["times"]]
    rows = (tmp_path / "contrast.csv").read_text().splitlines()
    assert rows[0].split(",")[2] == "spectral_leakage"
    assert [row.split(",")[2] for row in rows[1:]] == expected


def test_massless_hegerfeldt_rejected(tmp_path):
    tree = {
        "grid": {"n": 1024, "dx": 1 / 16},
        "mass": 0.0,
        "initial_state": {"factory": "bump", "radius": 1.0},
        "times": [0.01],
        "tail_fit": {"window": [9.0, 16.0]},
    }
    cfg = write_config(tmp_path, "bad.json", tree)
    res = run_cli("hegerfeldt", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    err = json.loads(res.stderr)
    assert err["error"]["kind"] == "config"
    assert err["error"]["rule"] == "mass.positive"


def test_malformed_config_names_field(tmp_path):
    tree = small_propagator_config()
    tree["grid"] = {"n": 1000, "dx": 1 / 64}
    cfg = write_config(tmp_path, "bad.json", tree)
    res = run_cli("propagator", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    err = json.loads(res.stderr)
    assert err["error"]["rule"] == "grid.n"


def test_unknown_key_rejected(tmp_path):
    tree = small_propagator_config()
    tree["margnn"] = 0.2
    del tree["margin"]
    cfg = write_config(tmp_path, "bad.json", tree)
    res = run_cli("propagator", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert json.loads(res.stderr)["error"]["rule"] == "unknown-key"


def test_broken_json_is_config_error(tmp_path):
    # a file that is not JSON, not UTF-8 (a UTF-16 byte-order mark), or holds
    # an integer past Python's 4,300-digit conversion limit, is refused with
    # a rule whether it is given as a config or as a report
    for content in (b"{not json", b"\xff\xfe{}", b"[1" + b"0" * 5000 + b"]"):
        cfg = tmp_path / "broken.json"
        cfg.write_bytes(content)
        res = run_cli("propagator", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"]["rule"] == "config.json"
        res = run_cli("report", str(cfg))
        assert res.returncode == 2
        error = json.loads(res.stderr)["error"]
        assert (error["kind"], error["rule"]) == ("io", "report.path")


def test_unconverged_quadrature_fails_with_exit_one(tmp_path):
    tree = small_propagator_config()
    tree["quadrature"]["residual_tol"] = 1e-30
    cfg = write_config(tmp_path, "prop.json", tree)
    out = tmp_path / "out"
    res = run_cli("propagator", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 1
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["quadrature_converged"]["passed"] is False


def test_suppression_ceiling_is_compared_by_the_cli(tmp_path):
    # the scan measures the ratio; the verdict compares it with ratio_ceiling
    verdicts = {}
    for ceiling in (1e-4, 1e-30):
        tree = small_propagator_config()
        tree["ratio_ceiling"] = ceiling
        cfg = write_config(tmp_path, f"prop_{ceiling}.json", tree)
        out = tmp_path / f"out_{ceiling}"
        res = run_cli("propagator", "--config", str(cfg), "--out", str(out))
        assert res.returncode == (0 if ceiling == 1e-4 else 1), res.stderr
        verdicts[ceiling] = json.loads((out / "report.json").read_text())["verdicts"]
    scans = [name for name in verdicts[1e-30] if name.startswith("spacelike_suppression_t")]
    assert scans
    for name, verdict in verdicts[1e-30].items():
        assert verdict["passed"] is (name not in scans), name
    for name in scans:
        assert verdicts[1e-30][name]["value"] == verdicts[1e-4][name]["value"]


def test_propagator_run_takes_one_quadrature_per_slice(tmp_path, monkeypatch):
    # three slices, three kernels: the suppression scans reuse the CLI's
    # samples and D = 2 Re Dp needs no second evaluation
    from kglab import propagator
    from kglab.cli import main

    calls = tmp_path / "calls.txt"
    original = propagator._damped_kernel

    def counted(*args):
        # appended by whichever process runs the slice, forked workers too
        with open(calls, "a") as fh:
            fh.write(f"{args[3]!r}\n")
        return original(*args)

    monkeypatch.delenv("KGLAB_THREADS", raising=False)
    monkeypatch.setattr(propagator, "_damped_kernel", counted)
    out = tmp_path / "out"
    config = REPO / "configs" / "propagator_default.json"
    assert main(["propagator", "--config", str(config), "--out", str(out)]) == 0
    assert sorted(float(t) for t in calls.read_text().split()) == [0.0, 1.0, 2.0]
    for path in sorted(out.glob("slice_*.csv")):
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[2] == "im_delta"
        assert {line.split(",")[2] for line in lines[1:]} == {"0.0"}, path.name


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "config, expected",
    [
        # psi0 transformed once; per time one inverse for the positive flow
        # and one for the contrast, one more for the witness; the doubled
        # grid measures only the positive-flow leakage
        (
            "hegerfeldt_default",
            {("forward", 8192): 1, ("inverse", 8192): 7, ("forward", 16384): 1, ("inverse", 16384): 3},
        ),
        # Phi and Pi once each, energy() a pair per state, two inverses per time
        ("causal_default", {("forward", 4096): 6, ("inverse", 4096): 10}),
        ("rightmover", {("forward", 4096): 4, ("inverse", 4096): 4}),
        # doubling off: the base grid alone
        ("hegerfeldt_m2", {("forward", 8192): 1, ("inverse", 8192): 7}),
    ],
)
def test_each_datum_is_transformed_once(tmp_path, monkeypatch, config, expected, threads):
    import threading

    from kglab import spectral

    calls = {}
    lock = threading.Lock()
    for name in ("forward_transform", "inverse_transform"):
        original = getattr(spectral, name)

        def counted(arg, *rest, _kind=name.split("_")[0], _original=original):
            with lock:
                key = (_kind, arg.grid.n)
                calls[key] = calls.get(key, 0) + 1
            return _original(arg, *rest)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "kglab" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    # and numpy's own transforms, so no path goes around the pair: the
    # README's totals are hegerfeldt_default 12 and causal_default 16
    for name, kind in (("fft", "np.forward"), ("ifft", "np.inverse")):

        def counted_np(*args, _kind=kind, _original=getattr(np.fft, name), **kwargs):
            with lock:
                calls[_kind] = calls.get(_kind, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted_np)
    monkeypatch.setenv("KGLAB_THREADS", threads)
    path = REPO / "configs" / f"{config}.json"
    command = json.loads(path.read_text())["command"]
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    for kind in ("forward", "inverse"):
        assert calls.pop(f"np.{kind}") == sum(count for (k, _), count in expected.items() if k == kind)
    assert calls == expected


@pytest.mark.parametrize("config, jobs", [("hegerfeldt_default", 7), ("hegerfeldt_m2", 4)])
def test_hegerfeldt_makes_one_pool_pass(tmp_path, monkeypatch, config, jobs):
    # every time, the witness and every doubled-grid time share one map
    from kglab import cli

    sizes = []
    real = cli.parallel_map

    def counted(fn, items):
        items = list(items)
        sizes.append(len(items))
        return real(fn, items)

    monkeypatch.setattr(cli, "parallel_map", counted)
    assert main(["hegerfeldt", "--config", str(REPO / "configs" / f"{config}.json"), "--out", str(tmp_path)]) == 0
    assert sizes == [jobs]


def test_hegerfeldt_builds_both_grids_through_the_table(tmp_path, monkeypatch):
    # the doubled-grid datum is the table's Phi on 2n points at dx/2, built
    # like the base grid's, with no second build path
    path = REPO / "configs" / "hegerfeldt_default.json"
    factory = json.loads(path.read_text())["initial_state"]["factory"]
    check, build = INITIAL_STATE["factory"][factory]
    grids = []

    def spy(grid, *state):
        grids.append((grid.n, grid.dx))
        return build(grid, *state)

    monkeypatch.setitem(INITIAL_STATE["factory"], factory, (check, spy))
    assert main(["hegerfeldt", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert grids == [(8192, 1 / 128), (16384, 1 / 256)]


def run_main(*argv) -> tuple[int, str]:
    """Exit code and stderr of an in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, err.getvalue()


@pytest.mark.parametrize(
    "overrides",
    [{"quadrature": {"cutoff": 1e15}}, {"grid": {"n": 2**50, "dx": 1 / 256}}],
)
def test_allocation_beyond_memory_names_a_rule(tmp_path, overrides):
    # both sizes lie beyond the address space, so the allocation fails at once
    tree = json.loads((REPO / "configs" / "propagator_default.json").read_text())
    tree.update(overrides)
    cfg = write_config(tmp_path, "prop.json", tree)
    rc, err = run_main("propagator", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert rc == 2
    error = json.loads(err)["error"]
    assert (error["kind"], error["rule"]) == ("memory", "memory")


@pytest.mark.parametrize("t", [1e-300, 1 / 512])
def test_slice_below_one_cell_is_refused(tmp_path, t):
    # below dx = 1/256 the timelike region |x| <= |t| is the single cell x = 0,
    # where the suppression ratio and the multiplier identity resolve nothing
    tree = small_propagator_config()
    tree["times"] = [0.0, t]
    cfg = write_config(tmp_path, "prop.json", tree)
    rc, err = run_main("propagator", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert rc == 2
    assert json.loads(err)["error"]["rule"] == "times.resolved"


def test_slice_of_one_cell_runs(tmp_path):
    # t = dx is resolved: it runs, and its multiplier identity fails for the
    # measured dx/t reason while t = 0 stays the zero slice
    tree = small_propagator_config()
    tree["times"] = [0.0, 1 / 256]
    cfg = write_config(tmp_path, "prop.json", tree)
    out = tmp_path / "out"
    assert run_main("propagator", "--config", str(cfg), "--out", str(out))[0] == 1
    verdicts = json.loads((out / "report.json").read_text())["verdicts"]
    assert verdicts["zero_slice_t0"]["passed"]
    assert verdicts["spacelike_suppression_t1"]["passed"]
    assert not verdicts["multiplier_identity_t1"]["passed"]


def run_tree(base, overrides):
    tree = {"grid": {"n": 2048, "dx": 1 / 32}, "mass": 1.0, "times": [1.0]}
    if base is not None:
        tree = json.loads((REPO / "configs" / f"{base}.json").read_text())
    tree.update(overrides)
    return tree


@pytest.mark.parametrize(
    "command,base,overrides,rule",
    [
        # cone edge 40.125 beyond L/2 = 32
        ("evolve", None, {"initial_state": {"factory": "bump", "center": 23, "radius": 1}, "times": [16.0]}, "times.cone-edge"),
        # refused at load: a zero amplitude squares below the smallest normal float
        ("evolve", None, {"initial_state": {"factory": "bump", "radius": 1, "amplitude": 0}}, "initial_state.amplitude"),
        # 2 grid points per side in the window
        ("hegerfeldt", "hegerfeldt_default", {"tail_fit": {"window": [9.0, 9.01]}}, "tail_fit.window.points"),
        # squares of 1e300 overflow float64 in the initial energy, also at m = 0 where m^2 |Phi|^2 is 0 * inf
        ("evolve", None, {"initial_state": {"factory": "bump", "radius": 1, "amplitude": 1e300}}, "field.overflow"),
        (
            "evolve",
            "rightmover",
            {"initial_state": {"factory": "bump", "radius": 1, "amplitude": 1e300, "pi": "right-mover"}},
            "field.overflow",
        ),
        # the energy of 1e153 fits; the leapfrog form's stencil products overflow float64
        (
            "evolve",
            None,
            {"initial_state": {"factory": "bump", "radius": 1, "amplitude": 1e153}, "method": "local-fd", "dt": 1 / 64},
            "field.overflow",
        ),
        # samples of 1.7e308 are finite, their forward transform is not
        ("evolve", None, {"initial_state": {"factory": "bump", "radius": 1, "amplitude": 1.7e308}}, "field.finite"),
        (
            "hegerfeldt",
            "hegerfeldt_default",
            {"initial_state": {"factory": "bump", "radius": 1, "amplitude": 1.7e308}},
            "field.finite",
        ),
    ],
)
def test_precondition_found_during_the_run_names_a_rule(tmp_path, command, base, overrides, rule):
    cfg = write_config(tmp_path, "cfg.json", run_tree(base, overrides))
    rc, err = run_main(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert rc == 2
    error = json.loads(err)["error"]
    assert (error["kind"], error["rule"]) == ("config", rule)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "command,base,amplitude",
    [
        # samples of 1.7e308 are finite, their forward transform is not
        ("evolve", None, 1.7e308),
        ("hegerfeldt", "hegerfeldt_default", 1.7e308),
        # a finite spectrum whose derivative overflows the inverse transform
        ("evolve", None, 3e306),
    ],
)
def test_overflowing_transform_leaves_one_json_line_on_stderr(tmp_path, command, base, amplitude, threads):
    # no numpy warning may reach stderr ahead of the error, from any thread
    tree = run_tree(base, {"initial_state": {"factory": "bump", "radius": 1, "amplitude": amplitude}})
    cfg = write_config(tmp_path, "cfg.json", tree)
    res = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"), env_extra={"KGLAB_THREADS": threads})
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1
    assert json.loads(res.stderr)["error"]["rule"] == "field.finite"


def test_overflowing_energy_leaves_one_json_line_on_stderr(tmp_path):
    # at m = 0 the energy's mass term is 0 * inf, which numpy would warn about
    tree = run_tree("rightmover", {"initial_state": {"factory": "bump", "radius": 1, "amplitude": 1e300, "pi": "right-mover"}})
    cfg = write_config(tmp_path, "cfg.json", tree)
    res = run_cli("evolve", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1
    error = json.loads(res.stderr)["error"]
    assert error["rule"] == "field.overflow"
    assert "energy is inf" in error["message"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_slice_refused_in_its_worker_writes_no_report(tmp_path, monkeypatch, threads):
    from kglab import propagator

    real = propagator.pauli_jordan

    def refuse_at_one(t, *args):
        if t == 1.0:
            raise PreconditionError("quadrature.cutoff", "refused inside the worker")
        return real(t, *args)

    monkeypatch.setenv("KGLAB_THREADS", threads)
    monkeypatch.setattr(propagator, "pauli_jordan", refuse_at_one)
    cfg = write_config(tmp_path, "prop.json", small_propagator_config())
    out = tmp_path / "out"
    rc, err = run_main("propagator", "--config", str(cfg), "--out", str(out))
    assert rc == 2
    error = json.loads(err)["error"]
    assert (error["kind"], error["rule"]) == ("config", "quadrature.cutoff")
    assert not (out / "report.json").exists()
    assert not (out / "slice_001.csv").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_the_earliest_refused_slice_names_the_rule(tmp_path, monkeypatch, threads):
    # at two workers slice 1 is refused in the forked worker, slice 2 in the parent
    from kglab import propagator

    real = propagator.pauli_jordan
    rules = {0.75: "quadrature.cutoff", 0.875: "quadrature.rungs"}

    def refuse_two(t, *args):
        if t in rules:
            raise PreconditionError(rules[t], f"refused at t = {t}")
        return real(t, *args)

    monkeypatch.setenv("KGLAB_THREADS", threads)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(propagator, "pauli_jordan", refuse_two)
    cfg = write_config(tmp_path, "prop.json", four_slice_propagator_config())
    out = tmp_path / "out"
    rc, err = run_main("propagator", "--config", str(cfg), "--out", str(out))
    assert rc == 2
    error = json.loads(err)["error"]
    assert (error["kind"], error["rule"], error["message"]) == ("config", "quadrature.cutoff", "refused at t = 0.75")
    assert not (out / "report.json").exists()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_killed_without_a_result_is_a_memory_refusal(tmp_path, monkeypatch):
    # what the kernel's out-of-memory killer does to a worker
    from kglab import propagator

    parent, real = os.getpid(), propagator.pauli_jordan

    def die_in_a_worker(t, *args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(t, *args)

    monkeypatch.setenv("KGLAB_THREADS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(propagator, "pauli_jordan", die_in_a_worker)
    cfg = write_config(tmp_path, "prop.json", four_slice_propagator_config())
    out = tmp_path / "out"
    rc, err = run_main("propagator", "--config", str(cfg), "--out", str(out))
    assert (rc, err.count("\n")) == (2, 1)
    error = json.loads(err)["error"]
    assert (error["kind"], error["rule"]) == ("memory", "memory")
    assert "a worker process ended without a result (killed by signal 9)" in error["message"]
    assert not (out / "report.json").exists()
    assert_no_child_left()


def test_failed_fork_is_refused_and_reaps_the_started_worker(tmp_path, monkeypatch):
    # three workers: the first fork starts one, the second fails
    forks = []
    real_fork = os.fork

    def fork_once():
        if forks:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        forks.append(1)
        return real_fork()

    monkeypatch.setenv("KGLAB_THREADS", "3")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(os, "fork", fork_once)
    cfg = write_config(tmp_path, "prop.json", four_slice_propagator_config())
    out = tmp_path / "out"
    rc, err = run_main("propagator", "--config", str(cfg), "--out", str(out))
    assert (rc, err.count("\n")) == (2, 1)
    error = json.loads(err)["error"]
    assert (error["kind"], error["rule"]) == ("memory", "memory")
    assert "cannot start a worker process" in error["message"]
    assert forks == [1]
    assert not (out / "report.json").exists()
    assert_no_child_left()


def test_forked_workers_are_capped_by_the_cpu_count(tmp_path, monkeypatch):
    forks = []
    real_fork = os.fork

    def counted():
        forks.append(1)
        return real_fork()

    monkeypatch.setenv("KGLAB_THREADS", "1000000")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", counted)
    cfg = write_config(tmp_path, "prop.json", four_slice_propagator_config())
    assert main(["propagator", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize(
    "args",
    [
        ("evolve", "--config", "configs/causal_default.json"),
        ("hegerfeldt", "--config", "configs/hegerfeldt_default.json"),
        ("propagator", "--config", "configs/propagator_default.json"),
        ("report", "tests/golden/hegerfeldt_default/report.json"),
    ],
)
def test_malformed_thread_cap_refuses_every_command_before_any_work(tmp_path, args):
    out = tmp_path / "out"
    argv = [*args, "--out", str(out)] if args[0] != "report" else args
    res = run_cli(*argv, env_extra={"KGLAB_THREADS": "abc"})
    assert (res.returncode, res.stdout, res.stderr.count("\n")) == (2, "", 1)
    error = json.loads(res.stderr)["error"]
    assert (error["kind"], error["rule"]) == ("config", "KGLAB_THREADS")
    assert error["message"] == "KGLAB_THREADS must be an integer, got 'abc'"
    assert not out.exists()


def test_threads_are_capped_by_the_cpu_count(tmp_path, monkeypatch):
    # hegerfeldt_default maps seven jobs over its thread pool
    import threading

    started = []
    real_start = threading.Thread.start

    def counted(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setenv("KGLAB_THREADS", "1000000")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(threading.Thread, "start", counted)
    assert main(["hegerfeldt", "--config", str(REPO / "configs" / "hegerfeldt_default.json"), "--out", str(tmp_path)]) == 0
    assert 1 <= len(started) <= 2


def test_hegerfeldt_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    # four CPUs, so each setting runs a pool of its own size
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    outs = {}
    for threads in ("1", "2", "3", "4"):
        monkeypatch.setenv("KGLAB_THREADS", threads)
        out = tmp_path / f"t{threads}"
        assert main(["hegerfeldt", "--config", str(REPO / "configs" / "hegerfeldt_default.json"), "--out", str(out)]) == 0
        outs[threads] = tree_bytes(out)
    assert len(outs["1"]) == 4
    assert outs["1"] == outs["2"] == outs["3"] == outs["4"]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_hegerfeldt_cone_edge_refusal_under_the_single_pass(tmp_path, threads):
    # support edge 18 plus t = 15 passes L/2 = 32 with the doubled grid on
    tree = run_tree(
        "hegerfeldt_default",
        {
            "initial_state": {"factory": "bump", "center": 17.0, "radius": 1.0, "amplitude": 1.0},
            "times": [0.001, 0.01, 0.1, 15.0],
            "tail_fit": {"window": [21.0, 25.0], "snapshot_time": 0.1, "rate_band": 0.15, "min_r2": 0.99},
        },
    )
    assert tree["grid_doubling_check"] is True
    cfg = write_config(tmp_path, "cfg.json", tree)
    out = tmp_path / "out"
    res = run_cli("hegerfeldt", "--config", str(cfg), "--out", str(out), env_extra={"KGLAB_THREADS": threads})
    assert res.returncode == 2
    assert res.stderr.count("\n") == 1
    error = json.loads(res.stderr)["error"]
    assert (error["kind"], error["rule"]) == ("config", "times.cone-edge")
    assert error["message"] == "cone edge 33.015625 reaches the boundary L/2 = 32.0"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_hegerfeldt_refused_on_the_doubled_grid_writes_nothing(tmp_path, monkeypatch, threads):
    # every job runs before any file is written
    from kglab import posfreq

    real = posfreq.evolve_positive

    def refuse_doubled(psi, m, t):
        if psi.grid.n == 2 * 8192:
            raise PreconditionError("times.cone-edge", "refused on the doubled grid")
        return real(psi, m, t)

    monkeypatch.setenv("KGLAB_THREADS", threads)
    monkeypatch.setattr(posfreq, "evolve_positive", refuse_doubled)
    out = tmp_path / "out"
    rc, err = run_main("hegerfeldt", "--config", str(REPO / "configs" / "hegerfeldt_default.json"), "--out", str(out))
    assert rc == 2
    assert json.loads(err)["error"]["message"] == "refused on the doubled grid"
    assert list(out.iterdir()) == []


def test_unwritable_slice_path_is_an_io_error(tmp_path):
    cfg = write_config(tmp_path, "prop.json", small_propagator_config())
    out = tmp_path / "out"
    (out / "slice_001.csv").mkdir(parents=True)
    rc, err = run_main("propagator", "--config", str(cfg), "--out", str(out))
    assert rc == 2
    error = json.loads(err)["error"]
    assert (error["kind"], error["rule"]) == ("io", "out")
    assert not (out / "report.json").exists()


def test_evolve_never_reaches_the_worker_pool(tmp_path, monkeypatch):
    from kglab import cli

    def refuse(fn, items, fork=False):
        raise AssertionError("parallel_map called")

    monkeypatch.setattr(cli, "parallel_map", refuse)
    for stem in ("causal_default", "rightmover"):
        assert main(["evolve", "--config", str(REPO / "configs" / f"{stem}.json"), "--out", str(tmp_path / stem)]) == 0
    # the per-time work of the other two commands still goes through the pool
    cfg = write_config(tmp_path, "prop.json", small_propagator_config())
    with pytest.raises(AssertionError, match="parallel_map"):
        main(["propagator", "--config", str(cfg), "--out", str(tmp_path / "prop")])
    with pytest.raises(AssertionError, match="parallel_map"):
        main(["hegerfeldt", "--config", str(REPO / "configs" / "hegerfeldt_default.json"), "--out", str(tmp_path / "heg")])


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["evolve"],
        ["evolve", "--config", "configs/rightmover.json"],
        ["bogus", "--config", "configs/rightmover.json", "--out", "OUT"],
        ["evolve", "--config", "configs/rightmover.json", "--out", "OUT", "--format", "json"],
        ["evolve", "--config", "configs/rightmover.json", "--out"],
        ["report"],
        ["report", "a.json", "b.json"],
    ],
)
def test_malformed_command_line_is_a_usage_error(tmp_path, argv):
    out = tmp_path / "out"
    rc, err = run_main(*[str(out) if a == "OUT" else a for a in argv])
    assert rc == 2
    error = json.loads(err)["error"]
    assert (error["kind"], error["rule"]) == ("usage", "argv")
    assert not out.exists()


def test_help_still_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kglab evolve")


#: small valid configs (n = 256) for the whole-run fuzz
_FUZZ_BASES = {
    "evolve": {
        "grid": {"n": 256, "dx": 1 / 8},
        "mass": 1.0,
        "initial_state": {"factory": "bump", "radius": 1.0},
        "times": [1.0, 2.0],
        "snapshot_times": [2.0],
    },
    "hegerfeldt": {
        "grid": {"n": 256, "dx": 1 / 8},
        "mass": 1.0,
        "initial_state": {"factory": "bump", "radius": 1.0},
        "times": [0.01, 0.1],
        "tail_fit": {"window": [4.5, 11.0]},
    },
    "propagator": {
        "grid": {"n": 256, "dx": 1 / 16},
        "mass": 1.0,
        "times": [0.0, 1.0],
        "margin": 0.2,
    },
}
#: every leaf the command's key table declares, less the bump's factory and
#: radius, and for the propagator a retired key
_FUZZ_FIELDS = {
    command: tuple(
        path
        for path, entry in dotted(table)
        if not isinstance(entry, dict) and path not in ("initial_state.factory", "initial_state.radius")
    )
    + (("quadrature.eps_base",) if command == "propagator" else ())
    for command, table in KEYS.items()
}
#: no value makes a slow run: sizes are tiny or beyond the address space
_FUZZ_VALUES = st.sampled_from(
    [None, True, 0, 1, -1, 2, 3, 64, 0.25, 0.5, 1 / 8, 1 / 16, 1e-3, 1e300, 2**50, "x", "local-fd",
     "right-mover", "json", [], {}, [0.5, 1.0], [4.5, 11.0]]
)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(_FUZZ_BASES)).flatmap(
        lambda c: st.tuples(st.just(c), st.dictionaries(st.sampled_from(_FUZZ_FIELDS[c]), _FUZZ_VALUES, max_size=3))
    )
)
def test_cli_fuzz_exits_with_a_verdict_or_a_rule(case):
    command, drawn = case
    tree = plant(copy.deepcopy(_FUZZ_BASES[command]), drawn)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), "cfg.json", tree)
        rc, err = run_main(command, "--config", str(cfg), "--out", str(Path(tmp) / "out"))
    assert rc in (0, 1, 2)
    if rc == 2:
        assert json.loads(err)["error"]["rule"]


def test_report_renders_verdict_table(tmp_path):
    cfg = write_config(tmp_path, "prop.json", small_propagator_config())
    out = tmp_path / "out"
    assert run_cli("propagator", "--config", str(cfg), "--out", str(out)).returncode == 0
    res = run_cli("report", str(out / "report.json"))
    assert res.returncode == 0
    assert "PASS" in res.stdout
    assert "multiplier_identity_t1" in res.stdout


@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        {},
        {"schema": "kglab.support-report/2", "tail_rate": 1.0, "fit_r2": 1.0, "flags": []},
        {"command": "evolve", "verdicts": {}},
        {"command": "evolve", "verdicts": {"energy_drift": 0.5}},
        {"command": "evolve", "verdicts": [{"value": 1, "passed": True}]},
    ],
)
def test_report_rejects_malformed_input(tmp_path, capsys, payload):
    from kglab.cli import main

    path = write_config(tmp_path, "report.json", payload)
    assert main(["report", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["kind"] == "report"
    assert err["error"]["rule"] == "report.verdicts"


def test_local_fd_evolve_command(tmp_path):
    tree = {
        "command": "evolve",
        "grid": {"n": 1024, "dx": 1 / 32},
        "mass": 1.0,
        "initial_state": {"factory": "bump", "radius": 1.0},
        "method": "local-fd",
        "dt": 1 / 64,
        "times": [1.0, 2.0],
        "thresholds": {"support": 1e-12, "cone_leakage": 1e-8},
    }
    cfg = write_config(tmp_path, "fd.json", tree)
    out = tmp_path / "out"
    res = run_cli("evolve", "--config", str(cfg), "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["cone_leakage"]["passed"]
    # energy verdict uses the leapfrog invariant for the local scheme
    assert report["verdicts"]["energy_drift"]["value"] < 1e-6


def test_local_fd_refuses_an_evolve_time_of_zero(tmp_path):
    tree = json.loads((REPO / "configs" / "causal_default.json").read_text())
    tree.update(method="local-fd", dt=1 / 128, times=[0.0, 1.0], snapshot_times=[])
    cfg = write_config(tmp_path, "fd.json", tree)
    rc, err = run_main("evolve", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert rc == 2
    error = json.loads(err)["error"]
    assert error["rule"] == "times.dt-multiple"
    assert error["message"] == "t = 0.0 is not a positive multiple of dt = 0.0078125"


@pytest.mark.parametrize("mass,bound", [(2.0, "1.000244140625"), (4.0, "1.0009765625")])
def test_local_fd_refuses_a_step_beyond_the_stability_bound(tmp_path, mass, bound):
    # dt = dx passes the massless Courant bound; with the mass term the
    # ladder to t = 16 once ran and failed energy_drift (2874 at m = 2)
    tree = json.loads((REPO / "configs" / "causal_default.json").read_text())
    tree.update(mass=mass, method="local-fd", dt=1 / 64, times=[4.0, 8.0, 16.0], snapshot_times=[])
    cfg = write_config(tmp_path, "fd.json", tree)
    out = tmp_path / "out"
    rc, err = run_main("evolve", "--config", str(cfg), "--out", str(out))
    assert rc == 2
    error = json.loads(err)["error"]
    assert error["rule"] == "dt.courant"
    assert error["message"] == f"unstable step: courant (dt/dx)^2 + (m dt/2)^2 = {bound} exceeds 1"
    assert not out.exists()


def test_local_fd_refuses_a_ladder_over_the_step_budget(tmp_path):
    # 10^9 steps would run for hours; the refusal comes at load time
    tree = json.loads((REPO / "configs" / "causal_default.json").read_text())
    tree.update(grid={"n": 256, "dx": 1 / 8}, method="local-fd", dt=1e-9, times=[1.0], snapshot_times=[])
    cfg = write_config(tmp_path, "fd.json", tree)
    res = run_cli("evolve", "--config", str(cfg), "--out", str(tmp_path / "out"), timeout=10)
    assert res.returncode == 2
    error = json.loads(res.stderr)["error"]
    assert error["rule"] == "budget"
    assert "1000000000 leapfrog steps on n = 256 cells" in error["message"]


def test_propagator_refuses_rungs_that_no_longer_damp(tmp_path):
    # 1024 rungs would take seconds per kernel; the refusal comes at load time
    tree = json.loads((REPO / "configs" / "propagator_default.json").read_text())
    tree["quadrature"]["rungs"] = 1024
    cfg = write_config(tmp_path, "rungs.json", tree)
    start = time.perf_counter()
    rc, err = run_main("propagator", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert json.loads(err)["error"]["rule"] == "quadrature.rungs"


def test_spectral_evolve_time_of_zero_is_the_datum(tmp_path):
    from kglab.spectral import UniformGrid, make_bump

    tree = json.loads((REPO / "configs" / "causal_default.json").read_text())
    tree.update(times=[0.0, 1.0], snapshot_times=[0.0])
    cfg = write_config(tmp_path, "t0.json", tree)
    out = tmp_path / "out"
    assert run_main("evolve", "--config", str(cfg), "--out", str(out))[0] == 0
    state = tree["initial_state"]
    bump = make_bump(UniformGrid(**tree["grid"]), state["center"], state["radius"], state["amplitude"]).values
    columns = np.loadtxt(out / "snapshot_000.csv", delimiter=",", skiprows=1, unpack=True)
    assert columns[1].tobytes() == bump.real.tobytes()
    assert columns[2].tobytes() == bump.imag.tobytes()
    header, first = (out / "series.csv").read_text().splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    report = json.loads((out / "report.json").read_text())
    assert float(row["t"]) == 0.0
    assert float(row["cone_leakage"]) == 0.0
    assert float(row["energy"]) == report["initial_energy"]


def test_cli_format_flag_switches_snapshots(tmp_path):
    tree = json.loads((REPO / "configs" / "rightmover.json").read_text())
    tree["output"] = {"format": "json"}
    out = tmp_path / "out"
    res = run_cli("evolve", "--config", str(write_config(tmp_path, "json.json", tree)), "--out", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads((out / "snapshot_000.json").read_text())
    x = UniformGrid(payload["grid"]["n"], payload["grid"]["dx"]).x
    assert np.max(np.abs(np.array(payload["re"]) - oracles.bump_profile(x - 2.0))) < 1e-10


def test_local_fd_snapshot_is_the_same_words_in_csv_and_json(tmp_path):
    tree = json.loads((REPO / "configs" / "causal_default.json").read_text())
    tree.update(method="local-fd", dt=1 / 128)
    words = {}
    for fmt in ("csv", "json"):
        tree["output"] = {"format": fmt}
        out = tmp_path / fmt
        assert main(["evolve", "--config", str(write_config(tmp_path, f"{fmt}.json", tree)), "--out", str(out)]) == 0
        path = out / f"snapshot_002.{fmt}"  # t = 4.0, the third ladder time
        if fmt == "csv":
            _, re, im = zip(*(map(float, line.split(",")) for line in path.read_text().splitlines()[1:]))
        else:
            payload = json.loads(path.read_text())
            re, im = payload["re"], payload["im"]
        words[fmt] = np.array([re, im]).view(np.uint64)
    assert (words["csv"] == 0).any()  # the leapfrog leaves exact zeros
    assert np.array_equal(words["csv"], words["json"])


def test_local_fd_series_support_is_the_joint_support_of_each_state(tmp_path):
    # a right-moving datum has Pi != 0, so the joint support is not Phi's alone
    from kglab.diagnostics import support_radius
    from kglab.dispersion import Mass
    from kglab.evolution import CauchyData, evolve_local_fd_ladder
    from kglab.spectral import bump_right_mover, make_bump

    tree = json.loads((REPO / "configs" / "causal_default.json").read_text())
    state = tree["initial_state"]
    state["pi"] = "right-mover"
    tree.update(method="local-fd", dt=1 / 128, snapshot_times=[])
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(write_config(tmp_path, "fd.json", tree)), "--out", str(out)]) in (0, 1)
    grid = UniformGrid(**tree["grid"])
    bump = (grid, state["center"], state["radius"], state["amplitude"])
    data = CauchyData(make_bump(*bump), bump_right_mover(*bump), Mass(tree["mass"]))
    threshold = tree["thresholds"]["support"]
    expected = [
        repr(max(support_radius(s.phi, threshold=threshold), support_radius(s.pi, threshold=threshold)))
        for s in evolve_local_fd_ladder(data, tree["times"], tree["dt"])
    ]
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[0].split(",")[2] == "joint_support_radius"
    assert [row.split(",")[2] for row in rows[1:]] == expected
    report = json.loads((out / "report.json").read_text())
    assert report["initial_support_radius"] == max(
        support_radius(data.phi, threshold=threshold), support_radius(data.pi, threshold=threshold)
    )


class TestGoldenDefaults:
    """Value-level regression against the committed golden outputs."""

    def compare_json(self, fresh, golden, where=""):
        """Floats at rel 1e-9, everything else exact, key for key."""
        if isinstance(golden, float):
            assert fresh == pytest.approx(golden, rel=1e-9, abs=1e-30), where
        elif isinstance(golden, dict):
            assert isinstance(fresh, dict) and fresh.keys() == golden.keys(), where
            for key in golden:
                self.compare_json(fresh[key], golden[key], f"{where}.{key}")
        elif isinstance(golden, list):
            assert isinstance(fresh, list) and len(fresh) == len(golden), where
            for i, (a, b) in enumerate(zip(fresh, golden)):
                self.compare_json(a, b, f"{where}[{i}]")
        else:
            assert type(fresh) is type(golden) and fresh == golden, where

    def compare_json_file(self, fresh: Path, golden: Path):
        self.compare_json(json.loads(fresh.read_text()), json.loads(golden.read_text()), golden.name)

    def compare_csv(self, fresh: Path, golden: Path):
        a = fresh.read_text().splitlines()
        b = golden.read_text().splitlines()
        assert a[0] == b[0] and len(a) == len(b)
        for ra, rb in zip(a[1:], b[1:]):
            va = np.array([float(c) for c in ra.split(",")])
            vb = np.array([float(c) for c in rb.split(",")])
            assert np.allclose(va, vb, rtol=1e-9, atol=1e-30)

    def test_causal_default(self, tmp_path):
        out = tmp_path / "out"
        res = run_cli(
            "evolve", "--config", str(REPO / "configs" / "causal_default.json"), "--out", str(out)
        )
        assert res.returncode == 0, res.stderr
        golden = REPO / "tests" / "golden" / "causal_default"
        self.compare_json_file(out / "report.json", golden / "report.json")
        self.compare_csv(out / "series.csv", golden / "series.csv")

    def test_rightmover(self, tmp_path):
        """The one shipped config with m = 0 and a right-moving Pi."""
        out = tmp_path / "out"
        res = run_cli(
            "evolve", "--config", str(REPO / "configs" / "rightmover.json"), "--out", str(out)
        )
        assert res.returncode == 0, res.stderr
        golden = REPO / "tests" / "golden" / "rightmover"
        self.compare_json_file(out / "report.json", golden / "report.json")
        self.compare_csv(out / "series.csv", golden / "series.csv")

    def test_propagator_default(self, tmp_path):
        out = tmp_path / "out"
        res = run_cli(
            "propagator",
            "--config", str(REPO / "configs" / "propagator_default.json"),
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        golden = REPO / "tests" / "golden" / "propagator_default"
        self.compare_json_file(out / "report.json", golden / "report.json")
        for idx in range(3):
            name = f"slice_{idx:03d}.meta.json"
            self.compare_json_file(out / name, golden / name)

    def test_hegerfeldt_default(self, tmp_path):
        out = tmp_path / "out"
        res = run_cli(
            "hegerfeldt",
            "--config", str(REPO / "configs" / "hegerfeldt_default.json"),
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        golden = REPO / "tests" / "golden" / "hegerfeldt_default"
        self.compare_json_file(out / "report.json", golden / "report.json")
        self.compare_csv(out / "leakage.csv", golden / "leakage.csv")
        self.compare_json_file(out / "witness_report.json", golden / "witness_report.json")

    def test_hegerfeldt_m2(self, tmp_path):
        out = tmp_path / "out"
        res = run_cli(
            "hegerfeldt",
            "--config", str(REPO / "configs" / "hegerfeldt_m2.json"),
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        golden = REPO / "tests" / "golden" / "hegerfeldt_m2"
        self.compare_json_file(out / "report.json", golden / "report.json")
        self.compare_csv(out / "leakage.csv", golden / "leakage.csv")
        self.compare_json_file(out / "witness_report.json", golden / "witness_report.json")
