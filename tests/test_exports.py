import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import kglab

MODULES = [f"kglab.{info.name}" for info in pkgutil.iter_modules(kglab.__path__)]
SOURCES = sorted(Path(kglab.__file__).resolve().parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_crossings(path: Path) -> list[str]:
    """The underscored, non-dunder names that the module at ``path`` imports
    from a kglab module, or reads as an attribute of a name imported from one."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "kglab"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.stem} imports {node.module or '.'}.{alias.name}")
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names if a.name.split(".")[0] == "kglab")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                found.append(f"{path.stem} reads {ast.unparse(node)}")
    return found


def file_writes(path: Path) -> list[str]:
    """The calls in the module at ``path`` that may open a file for writing:
    ``open`` or a method ``.open`` given a mode that is not a constant
    without "w", "a", "x" and "+", and ``write_text`` or ``write_bytes``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            # builtin open(file, mode) and a method path.open(mode)
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            if not all(isinstance(m, ast.Constant) and isinstance(m.value, str) and not set(m.value) & set("wax+") for m in modes):
                found.append(f"{path.stem}: {ast.unparse(node)}")
        elif name in ("write_text", "write_bytes"):
            found.append(f"{path.stem}: {ast.unparse(node)}")
    return found


def io_imports(path: Path) -> list[str]:
    """The statements of the module at ``path`` that import ``kglab.io``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            # a relative import is one from inside the package
            module = "kglab" + (f".{node.module}" if node.module else "") if node.level else node.module
            if module == "kglab.io" or module == "kglab" and any(a.name == "io" for a in node.names):
                found.append(f"{path.stem}: {ast.unparse(node)}")
        elif isinstance(node, ast.Import) and any(a.name.split(".")[:2] == ["kglab", "io"] for a in node.names):
            found.append(f"{path.stem}: {ast.unparse(node)}")
    return found


#: numpy names whose routines run on BLAS or LAPACK
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg", "polyfit", "polynomial"}


def blas_calls(path: Path) -> list[str]:
    """The uses in the module at ``path`` of a BLAS- or LAPACK-backed
    routine: the ``@`` operator, and any name or attribute in ``BLAS_NAMES``
    (``np.dot``, ``a.dot(b)``, ``np.linalg.norm``, ``from numpy import inner``)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{path.stem}: {ast.unparse(node)}")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES or isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append(f"{path.stem}: {ast.unparse(node)}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
            if any(BLAS_NAMES & set(name.split(".")) for name in names):
                found.append(f"{path.stem}: {ast.unparse(node)}")
    return found


def test_no_module_reaches_blas_or_lapack():
    # numpy's pairwise sums are the same bits for every BLAS build and
    # thread count; a BLAS dot or a LAPACK solve need not be
    assert [line for path in SOURCES for line in blas_calls(path)] == []


@pytest.mark.parametrize(
    "source,calls",
    [
        ("np.dot(a, b)\na.dot(b)\nnp.vdot(a, b)\nnp.inner(a, b)\n", 4),
        ("np.matmul(a, b)\na @ b\na @= b\n", 3),
        ("np.tensordot(a, b, 1)\nnp.einsum('i,i', a, b)\n", 2),
        ("np.linalg.norm(a)\nnp.linalg.lstsq(a, b)\n", 2),
        ("np.polyfit(x, y, 1)\nnp.polynomial.Polynomial.fit(x, y, 1)\n", 2),
        ("from numpy import dot\n", 1),
        ("import numpy.linalg\n", 1),
        ("from numpy.polynomial import Polynomial\n", 1),
        # pairwise sums, elementwise products and a private _dot are no BLAS call
        ("np.sum(a * b)\nnp.multiply(a, b, out=c)\n_dot(a, b)\na * b\n", 0),
    ],
)
def test_blas_check_sees_each_form(tmp_path, source, calls):
    path = tmp_path / "scratch.py"
    path.write_text(source)
    assert len(blas_calls(path)) == calls


def test_only_the_runner_reaches_the_writers():
    # kglab.io alone opens files for writing, and kglab.cli alone calls it,
    # so what a file holds is declared where the run writes it
    assert {path.stem for path in SOURCES if file_writes(path)} == {"io"}
    assert {path.stem for path in SOURCES if io_imports(path)} == {"cli"}


@pytest.mark.parametrize(
    "source,writes,imports",
    [
        ('open(path, "w")\n', 1, 0),
        ('open(path, mode="a")\n', 1, 0),
        ('open(path, "r+b")\n', 1, 0),
        ("open(path, mode)\n", 1, 0),
        ('path.open("x")\n', 1, 0),
        ('path.write_text("")\nPath(p).write_bytes(b"")\n', 2, 0),
        # reading is no write
        ('open(path)\nopen(path, "rb")\nopen(path, encoding="utf-8")\npath.open()\n', 0, 0),
        ("from .io import write_csv\n", 0, 1),
        ("from . import io\n", 0, 1),
        ("from kglab.io import write_json\n", 0, 1),
        ("from kglab import io as kio\n", 0, 1),
        ("import kglab.io\n", 0, 1),
        ("import kglab.io as kio\n", 0, 1),
        # the standard library's io and other kglab modules are not kglab.io
        ("import io\nfrom io import StringIO\nfrom . import spectral\nfrom .spectral import Field\n", 0, 0),
    ],
)
def test_writer_check_sees_each_form(tmp_path, source, writes, imports):
    path = tmp_path / "scratch.py"
    path.write_text(source)
    assert (len(file_writes(path)), len(io_imports(path))) == (writes, imports)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale export of a deleted name would otherwise surface only on
    # `from kglab.<module> import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_no_private_name_crosses_a_module():
    # modules meet through public names: each module's underscored names
    # are its own layout, free to change without touching another module
    assert [line for path in SOURCES for line in private_crossings(path)] == []


@pytest.mark.parametrize(
    "source,crossings",
    [
        ("from .spectral import _alternating\n", 1),
        ("from .spectral import Field\nField._adopt(None, None)\n", 1),
        ("from . import spectral\nspectral._alternating(16)\n", 1),
        ("import kglab.spectral as sp\nsp._alternating(16)\n", 1),
        ("import kglab.spectral\nkglab.spectral.Field._adopt(None, None)\n", 1),
        # a module's own private names, dunders and non-kglab imports are no crossing
        ("import numpy as np\nfrom .spectral import Field\n_x = np._NoValue\nField.__name__\n", 0),
    ],
)
def test_private_crossing_check_sees_each_form(tmp_path, source, crossings):
    path = tmp_path / "scratch.py"
    path.write_text(source)
    assert len(private_crossings(path)) == crossings


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
