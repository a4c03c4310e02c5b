"""The four benchmark workloads, as configs generated from a seed.

One operation of a workload is a list of ``kglab`` command lines, run in
order through ``kglab.cli.main``.  The seed picks only the bump centre and
amplitude, inside ranges where every verdict passes, so it never changes
the cost of an operation.  Seed 0 keeps the base values (for ``shipped``
those of the committed configs); the propagator configs have
no bump, so the seed leaves them unchanged.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

#: the five committed configs that make up the shipped traffic, in run order
SHIPPED = (
    ("evolve", "causal_default"),
    ("evolve", "rightmover"),
    ("hegerfeldt", "hegerfeldt_default"),
    ("hegerfeldt", "hegerfeldt_m2"),
    ("propagator", "propagator_default"),
)

#: seeded bump parameters stay inside these ranges; the hegerfeldt tail-fit
#: windows start 3 Compton lengths past the support edge with little slack,
#: so the centre moves by at most a quarter of the bump radius
CENTRE_RANGE = (-0.25, 0.25)
AMPLITUDE_RANGE = (0.5, 2.0)

LEAPFROG_LADDER = {
    "command": "evolve",
    # at n >= 2^15 the leapfrog's full-grid temporaries are freed to the
    # OS and faulted back in on some runs; keep the grid there so it shows
    "grid": {"n": 32768, "dx": 0.015625},
    "mass": 1.0,
    "initial_state": {"factory": "bump", "center": 0.0, "radius": 1.0, "amplitude": 1.0, "pi": "zero"},
    "method": "local-fd",
    "dt": 0.0078125,
    "times": [2.0, 4.0, 8.0],
    "snapshot_times": [8.0],
    "thresholds": {"support": 1e-12, "cone_leakage": 1e-8},
    "cone_margin_cells": 5,
    "output": {"format": "json"},
}

HEGERFELDT_DOUBLING = {
    "command": "hegerfeldt",
    "grid": {"n": 65536, "dx": 0.0078125},
    "mass": 1.0,
    "initial_state": {"factory": "bump", "center": 0.0, "radius": 1.0, "amplitude": 1.0},
    "times": [0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1],
    "leakage_floor": 1e-10,
    "contrast_ceiling": 1e-8,
    "thresholds": {"support": 1e-12},
    "cone_margin_cells": 5,
    "tail_fit": {"window": [9.0, 16.0], "snapshot_time": 0.1, "rate_band": 0.15, "min_r2": 0.99},
    "grid_doubling_check": True,
    "doubling_tolerance": 0.05,
    "output": {"format": "csv"},
}

PROPAGATOR_DENSE = {
    "command": "propagator",
    "grid": {"n": 16384, "dx": 0.00390625},
    "mass": 1.0,
    "times": [0.0, 1.0, 2.0, 4.0],
    "margin": 0.2,
    # 4x the default cutoff floor 40 / dx = 10240
    "quadrature": {"cutoff": 40960.0, "rungs": 4, "residual_tol": 1e-6, "band_fraction": 0.5},
    "ratio_ceiling": 1e-4,
    "multiplier_error_ceiling": 1e-3,
    "zero_slice_ceiling": 1e-10,
    "output": {"format": "csv"},
}

NAMES = ("shipped", "leapfrog-ladder", "hegerfeldt-doubling", "propagator-dense")


def _seeded(tree: dict, rng: random.Random, seed: int) -> dict:
    tree = copy.deepcopy(tree)
    state = tree.get("initial_state")
    if seed != 0 and state is not None:
        state["center"] = round(rng.uniform(*CENTRE_RANGE), 4)
        state["amplitude"] = round(rng.uniform(*AMPLITUDE_RANGE), 4)
    return tree


def build(name: str, seed: int, root: Path, configs: Path, out: Path) -> list[list[str]]:
    """Write the workload's configs to ``configs`` and return one operation.

    ``root`` is the checkout holding ``configs/``; each command writes to
    its own directory under ``out``, which the caller clears before each
    operation.
    """
    if name == "shipped":
        bases = [(cmd, stem, json.loads((root / "configs" / f"{stem}.json").read_text())) for cmd, stem in SHIPPED]
    elif name == "leapfrog-ladder":
        bases = [("evolve", name, LEAPFROG_LADDER)]
    elif name == "hegerfeldt-doubling":
        bases = [("hegerfeldt", name, HEGERFELDT_DOUBLING)]
    elif name == "propagator-dense":
        bases = [("propagator", name, PROPAGATOR_DENSE)]
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    rng = random.Random(seed)
    configs.mkdir(parents=True, exist_ok=True)
    op = []
    for cmd, stem, tree in bases:
        path = configs / f"{stem}.json"
        path.write_text(json.dumps(_seeded(tree, rng, seed), indent=2, sort_keys=True) + "\n")
        dest = out / stem
        op.append([cmd, "--config", str(path), "--out", str(dest)])
        if name == "shipped":
            op.append(["report", str(dest / "report.json")])
    return op
