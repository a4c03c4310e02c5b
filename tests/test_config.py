import copy
import importlib.util
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kglab.config import INITIAL_STATE, KEYS, REQUIRED, load_config
from kglab.propagator import MAX_RUNGS, QuadratureSpec
from kglab.spectral import Field, PreconditionError, UniformGrid, bump_right_mover, make_bump

REPO = Path(__file__).resolve().parent.parent


def write(tmp_path, tree):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tree))
    return path


def evolve_tree(**overrides):
    tree = {
        "grid": {"n": 2048, "dx": 1 / 32},
        "mass": 1.0,
        "initial_state": {"factory": "bump", "radius": 1.0},
        "method": "spectral-exact",
        "times": [1.0, 2.0],
    }
    tree.update(overrides)
    return tree


def test_valid_evolve_config(tmp_path):
    cfg = load_config(write(tmp_path, evolve_tree()), "evolve")
    assert cfg.times == (1.0, 2.0)
    assert cfg.support == 1e-12


@pytest.mark.parametrize(
    "mutate,rule",
    [
        (lambda t: t.__setitem__("grid", {"n": 48, "dx": 1 / 32}), "grid.n"),
        (lambda t: t.__setitem__("grid", {"n": 2048, "dx": -1.0}), "grid.dx"),
        (lambda t: t.__setitem__("mass", -2.0), "mass"),
        (lambda t: t.__setitem__("times", [100.0]), "times.margin"),
        (lambda t: t.__setitem__("initial_state", {"factory": "bump", "radius": 0.01}), "initial_state.radius"),
        (lambda t: t.__setitem__("initial_state", {"factory": "bump", "radius": 1.0, "center": 31.0}), "initial_state.margin"),
        (lambda t: t.__setitem__("initial_state", {"factory": "gauss", "radius": 1.0}), "initial_state.factory"),
        (lambda t: t.__setitem__("method", "magic"), "method"),
        (lambda t: t.__setitem__("snapshot_times", [3.0]), "snapshot_times"),
        (lambda t: t.__setitem__("bogus", 1), "unknown-key"),
        (lambda t: t.__setitem__("initial_state", {"factory": "bump", "radius": 1.0, "pi": "spin"}), "initial_state.pi"),
    ],
)
def test_evolve_validation_names_first_failing_rule(tmp_path, mutate, rule):
    tree = evolve_tree()
    mutate(tree)
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, tree), "evolve")
    assert err.value.rule == rule


@pytest.mark.parametrize(
    "overrides,rule",
    [
        ({"times": [True]}, "times"),
        ({"snapshot_times": 5}, "snapshot_times"),
        ({"snapshot_times": ["1.0"]}, "snapshot_times"),
        ({"thresholds": {"support": [1]}}, "thresholds.support"),
        ({"thresholds": {"cone_leakage": "1e-8"}}, "thresholds.cone_leakage"),
        ({"thresholds": [1e-12]}, "thresholds"),
        ({"cone_margin_cells": 2.7}, "cone_margin_cells"),
        ({"cone_margin_cells": -3}, "cone_margin_cells"),
        ({"initial_state": {"factory": "bump", "radius": 1.0, "center": [0]}}, "initial_state.center"),
        ({"method": "local-fd", "dt": True}, "dt"),
        ({"method": "local-fd", "dt": "0.01"}, "dt"),
        ({"method": "local-fd", "dt": -1 / 64}, "dt"),
        ({"method": "local-fd"}, "dt"),
        ({"thresholds": {"support": 0.0}}, "thresholds.support"),
        ({"thresholds": {"cone_leakage": -1e-8}}, "thresholds.cone_leakage"),
        ({"method": "local-fd", "dt": 5e-324}, "times.dt-multiple"),
        ({"cone_margin_cells": 10**400}, "cone_margin_cells"),
        ({"thresholds": {"support": 1e-12, "cone_leakge": 1e-30}}, "unknown-key"),
        ({"grid": {"n": 2048, "dx": 1 / 32, "nn": 4096}}, "unknown-key"),
        ({"initial_state": {"factory": "bump", "radius": 1.0, "radus": 2.0}}, "unknown-key"),
        ({"output": {"fromat": "json"}}, "unknown-key"),
        ({"dt": 0.5}, "dt"),
        ({"times": [1.0, 1.0, 2.0], "snapshot_times": [1.0]}, "times.unique"),
    ],
)
def test_evolve_rejects_malformed_values(tmp_path, overrides, rule):
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, evolve_tree(**overrides)), "evolve")
    assert err.value.rule == rule


def hegerfeldt_tree(**overrides):
    tree = {
        "grid": {"n": 8192, "dx": 1 / 128},
        "mass": 1.0,
        "initial_state": {"factory": "bump", "radius": 1.0},
        "times": [0.01, 0.1],
        "tail_fit": {"window": [9.0, 16.0]},
    }
    tree.update(overrides)
    return tree


@pytest.mark.parametrize(
    "overrides,rule",
    [
        ({"tail_fit": {"window": [9.0, 16.0], "rate_band": -0.1}}, "tail_fit.rate_band"),
        ({"tail_fit": {"window": [9.0, 16.0], "min_r2": "high"}}, "tail_fit.min_r2"),
        ({"tail_fit": {"window": [9.0, "16"]}}, "tail_fit.window"),
        ({"cone_margin_cells": -3}, "cone_margin_cells"),
        ({"cone_margin_cells": 2.7}, "cone_margin_cells"),
        ({"thresholds": {"support": [1]}}, "thresholds.support"),
        ({"doubling_tolerance": -0.05}, "doubling_tolerance"),
        ({"grid_doubling_check": "no"}, "grid_doubling_check"),
        ({"leakage_floor": -1}, "leakage_floor"),
        ({"contrast_ceiling": -1}, "contrast_ceiling"),
        ({"contrast_ceiling": 0}, "contrast_ceiling"),
        ({"tail_fit": {"window": [16.0, 9.0]}}, "tail_fit.window"),
        ({"thresholds": {"support": -1e-12}}, "thresholds.support"),
        ({"mass": 0.0}, "mass.positive"),
        ({"cone_margin_cells": 10**400}, "cone_margin_cells"),
        ({"tail_fit": {"window": [9.0, 16.0], "min_r": 0.5}}, "unknown-key"),
        ({"thresholds": {"support": 1e-12, "cone_leakage": 1e-8}}, "unknown-key"),
        ({"times": [0.1, 0.01, 0.001]}, "times.increasing"),
        ({"times": [0.001, 0.01, 0.01, 0.1]}, "times.increasing"),
        ({"output": {"format": "json"}}, "output.format"),
        ({"times": [0.1], "grid_doubling_check": False}, "times.count"),
        ({"tail_fit": {"window": [9.0, 16.0], "rate_band": 1.0}}, "tail_fit.rate_band"),
        ({"tail_fit": {"window": [9.0, 16.0], "min_r2": 2.0}}, "tail_fit.min_r2"),
        ({"tail_fit": {"window": [9.0, 16.0], "min_r2": 1.0}}, "tail_fit.min_r2"),
        ({"tail_fit": {"window": [9.0, 16.0], "min_r2": -0.5}}, "tail_fit.min_r2"),
        # hegerfeldt evolves Phi alone: its initial state has no Pi
        *(({"initial_state": {"factory": "bump", "radius": 1.0, "pi": pi}}, "unknown-key") for pi in INITIAL_STATE["pi"]),
    ],
)
def test_hegerfeldt_rejects_malformed_values(tmp_path, overrides, rule):
    assert load_config(write(tmp_path, hegerfeldt_tree()), "hegerfeldt").rate_band == 0.15
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, hegerfeldt_tree(**overrides)), "hegerfeldt")
    assert err.value.rule == rule


def test_local_fd_needs_commensurate_times(tmp_path):
    tree = evolve_tree(method="local-fd", dt=1 / 64)
    tree["times"] = [1.0, 1.37]
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, tree), "evolve")
    assert err.value.rule == "times.dt-multiple"


def test_local_fd_courant_rule(tmp_path):
    tree = evolve_tree(method="local-fd", dt=1.0)
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, tree), "evolve")
    assert err.value.rule == "dt.courant"


@pytest.mark.parametrize(
    "window,rule",
    [
        # each window also breaks a later rule: the first one names the refusal
        ([-1.0, 16.0], "tail_fit.window"),
        ([2.0, 1.0], "tail_fit.window"),
        ([2.0, 2.05], "tail_fit.window.near-field"),
        ([27.0, 27.05], "tail_fit.window.wrap"),
        ([9.0, 9.05], "tail_fit.window.points"),
    ],
)
def test_hegerfeldt_window_rules_apply_in_order(tmp_path, window, rule):
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, hegerfeldt_tree(tail_fit={"window": window})), "hegerfeldt")
    assert err.value.rule == rule


def load_outcome(path, command):
    """The rule and message of a refused config, or "loaded"."""
    try:
        load_config(path, command)
    except PreconditionError as err:
        return err.rule, err.message
    return "loaded"


@pytest.mark.parametrize(
    "name,center,outcome",
    [
        ("hegerfeldt_default", 5.5, ("tail_fit.window.near-field", "window must start >= 3 Compton lengths beyond |x| = 6.5")),
        ("hegerfeldt_m2", 2.0, ("tail_fit.window.near-field", "window must start >= 3 Compton lengths beyond |x| = 3.0")),
        ("hegerfeldt_default", 0.25, "loaded"),
    ],
)
def test_mirror_image_bumps_get_one_window_answer(tmp_path, name, center, outcome):
    # the fit mirrors its window onto x < 0, so lo counts from |center| + radius
    tree = json.loads((REPO / "configs" / f"{name}.json").read_text())
    for c in (center, -center):
        tree["initial_state"]["center"] = c
        assert load_outcome(write(tmp_path, tree), "hegerfeldt") == outcome, c


def test_window_with_too_few_grid_points_is_refused_at_load(tmp_path):
    # dx = 1/128 puts 13 grid points into [9.0, 9.1]
    tree = json.loads((REPO / "configs" / "hegerfeldt_default.json").read_text())
    tree["tail_fit"]["window"] = [9.0, 9.1]
    assert load_outcome(write(tmp_path, tree), "hegerfeldt") == (
        "tail_fit.window.points",
        "window (9.0, 9.1) holds 13 grid points per side, need >= 16",
    )


def test_hegerfeldt_window_rules(tmp_path):
    tree = hegerfeldt_tree(tail_fit={"window": [2.0, 16.0]})
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, tree), "hegerfeldt")
    assert err.value.rule == "tail_fit.window.near-field"
    tree["tail_fit"]["window"] = [9.0, 29.0]
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, tree), "hegerfeldt")
    assert err.value.rule == "tail_fit.window.wrap"
    # L = 64: the boundary-floor strip starts at 32 - 4 = 28, and at m = 1
    # the window must end 2 Compton lengths before it
    tree["tail_fit"]["window"] = [9.0, 26.0]
    assert load_config(write(tmp_path, tree), "hegerfeldt").window == (9.0, 26.0)
    tree["tail_fit"]["window"] = [9.0, math.nextafter(26.0, math.inf)]
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, tree), "hegerfeldt")
    assert err.value.rule == "tail_fit.window.wrap"


def test_propagator_cutoff_floor(tmp_path):
    tree = {
        "grid": {"n": 1024, "dx": 1 / 256},
        "mass": 1.0,
        "times": [1.0],
        "quadrature": {"cutoff": 50.0},
    }
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, tree), "propagator")
    assert err.value.rule == "quadrature.cutoff"


def propagator_tree(**overrides):
    tree = {
        "grid": {"n": 1024, "dx": 1 / 256},
        "mass": 1.0,
        "times": [0.0, 1.0],
        "quadrature": {"rungs": 4},
    }
    tree.update(overrides)
    return tree


@pytest.mark.parametrize(
    "overrides,rule",
    [
        ({"margin": [0.2]}, "margin"),
        ({"margin": "0.2"}, "margin"),
        ({"ratio_ceiling": None}, "ratio_ceiling"),
        ({"ratio_ceiling": "1e-4"}, "ratio_ceiling"),
        ({"multiplier_error_ceiling": {}}, "multiplier_error_ceiling"),
        ({"zero_slice_ceiling": True}, "zero_slice_ceiling"),
        ({"quadrature": [4]}, "quadrature"),
        ({"quadrature": {"cutoff": "x"}}, "quadrature.cutoff"),
        ({"quadrature": {"eps_base": [1e-6]}}, "unknown-key"),
        ({"quadrature": {"eps_base": -1e-6}}, "unknown-key"),
        ({"quadrature": {"rungs": "4"}}, "quadrature.rungs"),
        ({"quadrature": {"rungs": 4.5}}, "quadrature.rungs"),
        ({"quadrature": {"rungs": True}}, "quadrature.rungs"),
        ({"quadrature": {"rungs": 1}}, "quadrature.rungs"),
        ({"quadrature": {"residual_tol": None}}, "quadrature.residual_tol"),
        ({"quadrature": {"residual_tol": 0.0}}, "quadrature.residual_tol"),
        ({"quadrature": {"band_fraction": "half"}}, "quadrature.band_fraction"),
        ({"quadrature": {"band_fraction": 1.5}}, "quadrature.band_fraction"),
        ({"quadrature": {"rung": 4}}, "unknown-key"),
        ({"mass": True}, "mass"),
        ({"grid": {"n": 1024, "dx": 10**400}}, "grid.dx"),
        ({"quadrature": {"rungs": 10**20}}, "quadrature.rungs"),
        ({"quadrature": {"cutoff": 1e300}}, "quadrature.cutoff"),
        ({"grid": {"n": 2**60, "dx": 1 / 256}}, "grid.n"),
        ({"margin": 0.001}, "margin"),
        ({"margin": 1.0}, "times.scan-region"),
        ({"grid": {"n": 1024, "dx": 1e306}}, "grid.dx"),
        ({"grid": {"n": 1024, "dx": 1e-160}, "times": [0.0], "margin": 1e-158}, "quadrature.cutoff"),
        ({"ratio_ceiling": -1.0}, "ratio_ceiling"),
        ({"multiplier_error_ceiling": 0.0}, "multiplier_error_ceiling"),
        ({"zero_slice_ceiling": -1e-10}, "zero_slice_ceiling"),
        ({"grid": {"n": 1024, "dx": 1 / 256, "dX": 1 / 128}}, "unknown-key"),
        ({"output": {"format": "csv", "fromat": "json"}}, "unknown-key"),
        ({"output": {"format": "json"}}, "output.format"),
        ({"times": [0.0, 1e-300]}, "times.resolved"),
        ({"times": [-1 / 512, 1.0]}, "times.resolved"),
        # n = 16 with |t| = 4 dx: every cell lies within the residual's collar of the cone
        ({"grid": {"n": 16, "dx": 0.0625}, "times": [0.25], "margin": 0.2}, "times.collar"),
    ],
)
def test_propagator_rejects_malformed_values(tmp_path, overrides, rule):
    cfg = load_config(write(tmp_path, propagator_tree()), "propagator")
    # the config keeps the spec it resolved: the default cutoff 40 / dx
    assert (cfg.margin, cfg.quadrature.rungs, cfg.quadrature.cutoff) == (0.2, 4, 10240.0)
    assert cfg.quadrature == QuadratureSpec().resolve(cfg.grid, cfg.mass)
    assert cfg.ratio_ceiling == 1e-4
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, propagator_tree(**overrides)), "propagator")
    assert err.value.rule == rule


def test_propagator_null_cutoff_uses_the_default_rule(tmp_path):
    tree = propagator_tree(quadrature={"cutoff": None, "rungs": 3})
    cfg = load_config(write(tmp_path, tree), "propagator")
    # the default rule: CUTOFF_FACTOR * max(m, 1/dx) = 40 * 256
    assert (cfg.quadrature.cutoff, cfg.quadrature.rungs) == (10240.0, 3)


def test_rungs_stop_where_the_last_rung_still_damps(tmp_path):
    # one rung more and the last rung's damping of the cutoff node rounds to
    # exactly 1, so its residual would read 0 by construction
    assert MAX_RUNGS == 61  # the README's range
    quad = load_config(write(tmp_path, propagator_tree(quadrature={"rungs": MAX_RUNGS})), "propagator").quadrature
    assert quad.rungs == MAX_RUNGS
    assert math.exp(-quad.eps_ladder[-1] * quad.cutoff**2) < 1.0
    assert math.exp(-quad.eps_ladder[-1] / 2 * quad.cutoff**2) == 1.0
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, propagator_tree(quadrature={"rungs": MAX_RUNGS + 1})), "propagator")
    assert err.value.rule == "quadrature.rungs"


def loaded(tmp_path, tree, command):
    """The loaded config's values, each datum builder (``phi``, ``pi``) by the
    words it builds on the config's grid, or the rule that refused it."""
    try:
        cfg = load_config(write(tmp_path, tree), command)
    except PreconditionError as exc:
        return exc.rule
    return {key: value(cfg.grid).values.tobytes() if callable(value) else value for key, value in vars(cfg).items()}


@pytest.mark.parametrize(
    "command,tree,key",
    [
        ("evolve", evolve_tree(), "dt"),
        ("evolve", evolve_tree(method="local-fd"), "dt"),
        ("hegerfeldt", hegerfeldt_tree(), "tail_fit.snapshot_time"),
        ("propagator", propagator_tree(), "quadrature.cutoff"),
    ],
)
def test_null_loads_like_a_missing_key(tmp_path, command, tree, key):
    # a key whose default is None reads null as that default
    absent = loaded(tmp_path, tree, command)
    assert loaded(tmp_path, plant(copy.deepcopy(tree), {key: None}), command) == absent


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from([0, 1, 2, 4, 16, 1024, 0.0, 0.2, 1 / 256, 1e-6, 40960.0, -1.0, 10**400])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def dotted(table: dict, path: str = ""):
    """Every section and key of a key table, as (dotted path, entry)."""
    for key, entry in table.items():
        yield path + key, entry
        if isinstance(entry, dict):
            yield from dotted(entry, path + key + ".")


def shared_leaf_names(table: dict) -> list[str]:
    """Leaf names that ``_read`` would gather twice, or that a parser
    overwrites with a value it builds (``grid``, ``reach``, ``phi``, ``quadrature``)."""
    names = [path.rsplit(".", 1)[-1] for path, entry in dotted(table) if not isinstance(entry, dict)]
    names += ["grid", "reach", "phi", "quadrature"]
    return sorted({name for name in names if names.count(name) > 1})


@pytest.mark.parametrize("command", sorted(KEYS))
def test_leaf_names_are_distinct(command):
    # a command's leaves share one namespace, keyed by leaf name
    assert shared_leaf_names(KEYS[command]) == []


def test_leaf_name_check_sees_a_collision():
    table = copy.deepcopy(KEYS["hegerfeldt"])
    table["tail_fit"]["support"] = (1e-12, None)
    table["initial_state"]["reach"] = (1.0, None)
    assert shared_leaf_names(table) == ["reach", "support"]


def fields(command: str) -> tuple[str, ...]:
    return (*(path for path, _ in dotted(KEYS[command])), "command")


#: where a drawn value may land: every section and key the command's table
#: declares, ``command``, and for the propagator a retired key
_PROPAGATOR_FIELDS = (*fields("propagator"), "quadrature.eps_base")
_EVOLVE_FIELDS = fields("evolve")
_HEGERFELDT_FIELDS = fields("hegerfeldt")
#: extra leaves that get past the type checks into the domain rules
_DOMAIN_VALUES = _JSON_VALUES | st.sampled_from(
    ["local-fd", "spectral-exact", "right-mover", "bump", 1 / 64, 1 / 32, 0.01, 0.1, [9.0, 16.0], [1.0, 2.0]]
)


def plant(tree: dict, drawn: dict) -> dict:
    """Set each dotted path of ``drawn`` in ``tree``, making sections as needed."""
    for path, value in sorted(drawn.items()):
        *parents, key = path.split(".")
        node = tree
        for parent in parents:
            if not isinstance(node.get(parent), dict):
                node[parent] = {}
            node = node[parent]
        node[key] = value
    return tree


def parses_or_names_a_rule(tree: dict, command: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp), tree)
        try:
            load_config(path, command)
        except PreconditionError as exc:
            assert exc.rule


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.sampled_from(_PROPAGATOR_FIELDS), _JSON_VALUES, max_size=4))
def test_propagator_config_fuzz(drawn):
    # every tree either parses or names a rule; nothing else escapes
    parses_or_names_a_rule(plant(propagator_tree(margin=0.2, output={"format": "csv"}), drawn), "propagator")


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.sampled_from(_EVOLVE_FIELDS), _DOMAIN_VALUES, max_size=4))
def test_evolve_config_fuzz(drawn):
    parses_or_names_a_rule(plant(evolve_tree(), drawn), "evolve")


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.dictionaries(st.sampled_from(_HEGERFELDT_FIELDS), _DOMAIN_VALUES, max_size=4))
def test_hegerfeldt_config_fuzz(drawn):
    parses_or_names_a_rule(plant(hegerfeldt_tree(), drawn), "hegerfeldt")


def test_command_mismatch_rejected(tmp_path):
    tree = evolve_tree(command="evolve")
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, tree), "propagator")
    assert err.value.rule == "command"


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(PreconditionError) as err:
        load_config(tmp_path / "nope.json", "evolve")
    assert err.value.rule == "config.path"


def readme_rows() -> dict:
    """Each command's ``{dotted key: (default cell, bounds cell)}`` from the README's Config keys tables."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Config keys\n")[1].split("\n## ")[0]
    return {
        command: {key: cells for key, *cells in re.findall(r"^\| `([\w.]+)` \| (.+?) \| (.+) \|$", body, re.M)}
        for command, body in re.findall(r"^### `(\w+)`\n(.*?)(?=^### |\Z)", section, re.M | re.S)
    }


def readme_keys() -> dict:
    """Each command's ``{dotted key: default}`` from the README's Config keys tables."""
    return {
        command: {
            key: REQUIRED if cell == REQUIRED else None if cell == "—" else json.loads(cell.strip("`"))
            for key, (cell, _) in rows.items()
        }
        for command, rows in readme_rows().items()
    }


@pytest.mark.parametrize("command", sorted(KEYS))
def test_readme_documents_every_key_with_its_default(command):
    # the same keys both ways, each with its table default
    defaults = {path: entry[0] for path, entry in dotted(KEYS[command]) if not isinstance(entry, dict)}
    assert readme_keys()[command] == defaults


@pytest.mark.parametrize("command", [command for command in sorted(KEYS) if "initial_state" in KEYS[command]])
def test_readme_lists_every_datum_choice(command):
    # each initial_state row that selects a datum lists exactly the names of
    # the datum table, so a new datum cannot land undocumented
    rows = readme_rows()[command]
    for leaf in INITIAL_STATE.keys() & KEYS[command]["initial_state"].keys():
        _, bounds = rows[f"initial_state.{leaf}"]
        assert sorted(re.findall(r'"([^"]+)"', bounds)) == sorted(INITIAL_STATE[leaf])


def workload_configs(tmp_path) -> list[tuple[str, dict]]:
    """``(command, tree)`` of every benchmark workload config that reads an
    initial state, at seeds 0 to 3, as ``benchmarks/workloads.py`` writes it."""
    spec = importlib.util.spec_from_file_location("workloads", REPO / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    trees = []
    for name in workloads.NAMES:
        for seed in range(4):
            for argv in workloads.build(name, seed, REPO, tmp_path / f"{name}-{seed}", tmp_path / "out"):
                tree = json.loads(Path(argv[2]).read_text()) if argv[0] != "report" else {}
                if "initial_state" in tree:
                    trees.append((argv[0], tree))
    return trees


#: each datum as the runners built it inline before the datum table, from
#: (grid, center, radius, amplitude): a factory's Phi and evolve's Pi
INLINE_PHI = {"bump": make_bump}
INLINE_PI = {"zero": lambda grid, *_: Field(grid, np.zeros(grid.n, dtype=np.complex128)), "right-mover": bump_right_mover}


@pytest.mark.parametrize("factory,pi", [(factory, pi) for factory in INITIAL_STATE["factory"] for pi in INITIAL_STATE["pi"]])
def test_every_datum_is_reachable_and_builds_the_inline_words(tmp_path, factory, pi):
    # every table entry loads from a config and builds the same words as the
    # inline build, on the base grid and the doubled grid, at every seeded
    # centre and amplitude of the benchmark workloads
    trees = workload_configs(tmp_path)
    assert {command for command, _ in trees} == {"evolve", "hegerfeldt"}
    assert len({(tree["initial_state"]["center"], tree["initial_state"]["amplitude"]) for _, tree in trees}) > 1
    for command, tree in trees:
        state = tree["initial_state"]
        state["factory"] = factory
        if command == "evolve":
            state["pi"] = pi
        cfg = load_config(write(tmp_path, tree), command)
        bump = (state["center"], state["radius"], state["amplitude"])
        for grid in (cfg.grid, UniformGrid(n=2 * cfg.grid.n, dx=cfg.grid.dx / 2.0)):
            built = [(cfg.phi(grid), INLINE_PHI[factory](grid, *bump))]
            if command == "evolve":
                built.append((cfg.pi(grid), INLINE_PI[pi](grid, *bump)))
            for got, inline in built:
                assert np.array_equal(got.values.view(np.uint64), inline.values.view(np.uint64))


@pytest.mark.parametrize("factory", sorted(INITIAL_STATE["factory"]))
@pytest.mark.parametrize("command", ["evolve", "hegerfeldt"])
@pytest.mark.parametrize(
    "state,rule",
    [
        ({"factory": "gauss"}, "initial_state.factory"),
        ({"radius": 0.01}, "initial_state.radius"),
        ({"center": 31.0}, "initial_state.margin"),
        ({"amplitude": 1e-155}, "initial_state.amplitude"),
    ],
)
def test_every_factory_is_refused_outside_its_preconditions(tmp_path, factory, command, state, rule):
    tree = evolve_tree() if command == "evolve" else hegerfeldt_tree()
    tree["initial_state"] = {"factory": factory, "radius": 1.0, **state}
    with pytest.raises(PreconditionError) as err:
        load_config(write(tmp_path, tree), command)
    assert err.value.rule == rule

