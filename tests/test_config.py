import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kglab.config import KEYS, REQUIRED, load_config
from kglab.propagator import QuadratureSpec
from kglab.spectral import PreconditionError


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
        ({"initial_state": {"factory": "bump", "radius": 1.0, "pi": "zero"}}, "unknown-key"),
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


def readme_keys() -> dict:
    """Each command's ``{dotted key: default}`` from the README's Config keys tables."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Config keys\n")[1].split("\n## ")[0]
    tables = {}
    for command, body in re.findall(r"^### `(\w+)`\n(.*?)(?=^### |\Z)", section, re.M | re.S):
        rows = re.findall(r"^\| `([\w.]+)` \| (.+?) \| ", body, re.M)
        tables[command] = {
            key: REQUIRED if cell == REQUIRED else None if cell == "—" else json.loads(cell.strip("`"))
            for key, cell in rows
        }
    return tables


@pytest.mark.parametrize("command", sorted(KEYS))
def test_readme_documents_every_key_with_its_default(command):
    # the same keys both ways, each with its table default
    defaults = {path: entry[0] for path, entry in dotted(KEYS[command]) if not isinstance(entry, dict)}
    assert readme_keys()[command] == defaults
