"""The equation is linear, so scaling the datum by a power of two scales
every field sample exactly and changes no verdict: the support threshold
reads relative to max|Phi(0)|, and leakages, contrasts, drifts and the
doubling ratio are ratios of exactly scaled sums.  Any other amplitude,
down to where its square underflows and up to where the energy overflows,
moves a leakage only by rounding: each one squares the field after scaling
its peak to [1, 2)."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from kglab.cli import main

REPO = Path(__file__).resolve().parent.parent

BUMP_CONFIGS = ["causal_default", "rightmover", "hegerfeldt_default", "hegerfeldt_m2"]

#: verdicts that must not move with the amplitude: every ratio a config runs
SCALE_FREE = {
    "evolve": {"cone_leakage", "energy_drift"},
    "hegerfeldt": {"leakage_floor", "leakage_monotone", "spectral_contrast", "grid_doubling_stability"},
}
#: the support radius each cone is measured from
RADIUS = {"evolve": "initial_support_radius", "hegerfeldt": "support_radius"}
#: files holding only scale-free columns (support radii and leakages)
SCALE_FREE_FILES = {"evolve": (), "hegerfeldt": ("contrast.csv",)}


def run(tmp_path: Path, stem: str, amplitude: float) -> tuple[int, str, Path]:
    tree = json.loads((REPO / "configs" / f"{stem}.json").read_text())
    tree["initial_state"]["amplitude"] = amplitude
    config = tmp_path / f"{stem}-{amplitude!r}.json"
    config.write_text(json.dumps(tree))
    out = tmp_path / f"out-{stem}-{amplitude!r}"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([tree["command"], "--config", str(config), "--out", str(out)])
    return rc, err.getvalue(), out


@pytest.fixture(scope="module")
def unit_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("unit")
    runs = {}
    for stem in BUMP_CONFIGS:
        rc, _, out = run(tmp, stem, 1.0)
        assert rc == 0, stem
        runs[stem] = out
    return runs


@pytest.mark.parametrize("scale", [2.0**-40, 2.0**40])
@pytest.mark.parametrize("stem", BUMP_CONFIGS)
def test_power_of_two_amplitude_keeps_every_verdict(tmp_path, unit_runs, stem, scale):
    rc, err, out = run(tmp_path, stem, scale)
    assert (rc, err) == (0, "")
    unit = json.loads((unit_runs[stem] / "report.json").read_text())
    scaled = json.loads((out / "report.json").read_text())
    command = unit["command"]
    assert scaled["verdicts"].keys() == unit["verdicts"].keys()
    assert all(v["passed"] for v in scaled["verdicts"].values())
    for name in SCALE_FREE[command] & unit["verdicts"].keys():
        assert scaled["verdicts"][name]["value"] == unit["verdicts"][name]["value"], name
    assert scaled[RADIUS[command]] == unit[RADIUS[command]]
    for name in SCALE_FREE_FILES[command]:
        assert (out / name).read_bytes() == (unit_runs[stem] / name).read_bytes(), name
    if command == "evolve":
        assert scaled["verdicts"]["boundary_floor"]["value"] == scale * unit["verdicts"]["boundary_floor"]["value"]
        series = [line.split(",") for line in (out / "series.csv").read_text().splitlines()]
        unit_series = [line.split(",") for line in (unit_runs[stem] / "series.csv").read_text().splitlines()]
        # t, joint_support_radius and cone_leakage; the energy scales by scale^2
        assert [[r[0], r[2], r[3]] for r in series] == [[r[0], r[2], r[3]] for r in unit_series]
    else:
        witness = json.loads((out / "witness_report.json").read_text())
        unit_witness = json.loads((unit_runs[stem] / "witness_report.json").read_text())
        assert witness["support_radius"] == unit_witness["support_radius"]
        assert witness["flags"] == unit_witness["flags"]
        # a log-linear fit of exactly scaled magnitudes moves its rate only by rounding
        for name in ("witness_rate", "snapshot_rate"):
            assert scaled["verdicts"][name]["value"] == pytest.approx(unit["verdicts"][name]["value"], rel=1e-13, abs=0)


#: verdicts whose values are leakage fractions, or ratios of them
LEAKAGES = {"cone_leakage", "leakage_floor", "leakage_monotone", "spectral_contrast", "grid_doubling_stability"}


@pytest.mark.parametrize(
    "stem,amplitude", [*((stem, 1e-150) for stem in BUMP_CONFIGS), ("hegerfeldt_default", 1e300)]
)
def test_extreme_amplitude_keeps_every_leakage(tmp_path, unit_runs, stem, amplitude):
    # the tails' squares would be subnormal at 1e-150, and the peak's would overflow at 1e300
    rc, err, out = run(tmp_path, stem, amplitude)
    assert (rc, err) == (0, "")
    unit = json.loads((unit_runs[stem] / "report.json").read_text())["verdicts"]
    scaled = json.loads((out / "report.json").read_text())["verdicts"]
    assert scaled.keys() == unit.keys()
    assert all(v["passed"] for v in scaled.values())
    for name in LEAKAGES & unit.keys():
        assert scaled[name]["value"] == pytest.approx(unit[name]["value"], rel=1e-3, abs=0), name


@pytest.mark.parametrize("amplitude", [0.0, 1e-160, 1e-300])
@pytest.mark.parametrize("stem", BUMP_CONFIGS)
def test_amplitude_whose_square_underflows_is_refused_at_load(tmp_path, stem, amplitude):
    rc, err, out = run(tmp_path, stem, amplitude)
    assert rc == 2
    error = json.loads(err)["error"]
    assert (error["kind"], error["rule"]) == ("config", "initial_state.amplitude")
    assert not out.exists()  # refused before the run made its output directory
