import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import kglab

MODULES = [f"kglab.{info.name}" for info in pkgutil.iter_modules(kglab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale export of a deleted name would otherwise surface only on
    # `from kglab.<module> import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_package_reexports_nothing():
    # each public name has one import path, its module's: the package holds
    # its submodules, dunder names and __version__, and no export list
    for name in MODULES:
        importlib.import_module(name)
    stray = [
        name
        for name, value in vars(kglab).items()
        if not (name.startswith("__") or inspect.ismodule(value) and value.__name__ == f"kglab.{name}")
    ]
    assert stray == []
    assert "__all__" not in vars(kglab)
    assert isinstance(kglab.__version__, str)


def test_readme_layout_names_every_module():
    # the README's Layout table is the map of the API: one row per module
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Layout\n")[1].split("\n## ")[0]
    listed = re.findall(r"`(kglab\.\w+)`", "\n".join(re.findall(r"^\| (.+?) \|", section, re.M)))
    assert sorted(listed) == sorted(MODULES)


def test_every_exported_function_is_run_by_a_command(tmp_path, monkeypatch):
    # a public function of any module that no command calls carries no
    # verdict: it reaches a command or leaves the package
    import json
    import sys

    import kglab.cli

    functions = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            function = getattr(module, name)
            if inspect.isfunction(function):
                functions[f"{function.__module__}.{name}"] = (name, function)
    called = set()
    for key, (name, original) in functions.items():

        def spy(*args, _key=key, _original=original, **kwargs):
            called.add(_key)
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "kglab" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, spy)
    configs = Path(__file__).resolve().parent.parent / "configs"
    runs = [(json.loads(path.read_text())["command"], path) for path in sorted(configs.glob("*.json"))]
    # no shipped config runs the leapfrog or writes a JSON field
    tree = json.loads((configs / "causal_default.json").read_text())
    tree.update(method="local-fd", dt=1 / 128, output={"format": "json"})
    leapfrog = tmp_path / "leapfrog.json"
    leapfrog.write_text(json.dumps(tree))
    runs.append(("evolve", leapfrog))
    for idx, (command, path) in enumerate(runs):
        assert kglab.cli.main([command, "--config", str(path), "--out", str(tmp_path / f"out{idx}")]) == 0, path.name
    assert [key for key in functions if key not in called] == []
