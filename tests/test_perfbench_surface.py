"""The program surface perfbench uses must keep resolving.

perfbench (``perfbench/``) drives the program through its public names.
A rename or deletion there would surface only as a failed benchmark run,
so this reads perfbench's sources as text and checks every
``from repro... import name`` against the installed package, plus the
calls it makes on what those names return.  Nothing under ``perfbench/``
is imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.core.metrics import compute_metric_groups
from repro.core.registry import available_models, make_generator
from repro.experiments.rosters import standard_roster
from repro.generators import BarabasiAlbertGenerator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _repro_imports():
    """(file, line, module, name) for every ``from repro... import``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level:
                continue
            module = node.module or ""
            if module != "repro" and not module.startswith("repro."):
                continue
            for alias in node.names:
                found.append((path.name, node.lineno, module, alias.name))
    return found


IMPORTS = _repro_imports()


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="perfbench/ not in this checkout")
def test_perfbench_imports_something_from_repro():
    assert IMPORTS, "no `from repro... import` found under perfbench/"


@pytest.mark.parametrize(
    "filename,line,module,name", IMPORTS,
    ids=[f"{f}:{line}:{name}" for f, line, _, name in IMPORTS],
)
def test_import_resolves(filename, line, module, name):
    imported = importlib.import_module(module)
    if not hasattr(imported, name):
        # `from package import submodule` resolves through the import system.
        importlib.import_module(f"{module}.{name}")


def test_load_check_size_call_keeps_its_backend_keyword():
    # perfbench's world-store check measures the size group this way.
    g = BarabasiAlbertGenerator(m=2).generate(300, seed=4)
    assert compute_metric_groups(g, ["size"], backend="python") == (
        compute_metric_groups(g, ["size"])
    )


@pytest.mark.parametrize("n", [250, 2000])
def test_generators_answer_resolve_engine(n):
    # perfbench labels generation spans with generator.resolve_engine(n),
    # on make_generator(model) and standard_roster(n) results.
    generators = [make_generator(model) for model in available_models()]
    generators += list(standard_roster(n).values())
    for generator in generators:
        assert isinstance(generator.resolve_engine(n), str), generator
