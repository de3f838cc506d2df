"""The two routes stay independent by construction: the state-vector oracle
(statevector.py, which holds the oracle's ED step too) and the tests'
reduced-density reference (tests/helpers.py) import no closed-form code,
directly or through the graphent modules they import, and read none of a
graph's degree bookkeeping.  The closed forms are entanglement.py and the
single-vertex forms built on its share, density.py; they import no oracle
code either, so the two routes share only graphs.py.  The oracle's rows are
split into batches in one place, `statevector.ed_numeric_rows`.  And no
export outlives its definition: every name a module lists in `__all__`
exists, and the package imports only names its modules export.  Each shared input guard raises its message from one
line, so a fix cannot miss a copy."""

import ast
import importlib
from pathlib import Path

import pytest

import graphent
from graphent import density, entanglement

PACKAGE = Path(graphent.__file__).resolve().parent
CLOSED_FORM_NAMES = {"entanglement", *entanglement.__all__, "density", *density.__all__}
# The oracle's modules: graphent/<name>.py, or a test module beside this file.
ORACLE_MODULES = {
    "statevector": PACKAGE / "statevector.py",
    "helpers": Path(__file__).resolve().parent / "helpers.py",
}


def _import_tokens(path: Path) -> set[str]:
    """Every module-path part and imported name in the file at path."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    tokens = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                tokens.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            tokens.update((node.module or "").split("."))
            tokens.update(alias.name for alias in node.names)
    return tokens


@pytest.mark.parametrize("oracle_module", sorted(ORACLE_MODULES))
def test_oracle_imports_no_closed_form_code(oracle_module):
    todo, seen = [ORACLE_MODULES[oracle_module]], set()
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        tokens = _import_tokens(path)
        assert not tokens & CLOSED_FORM_NAMES, (
            f"{path.name} (reached from {oracle_module}.py) imports "
            f"{sorted(tokens & CLOSED_FORM_NAMES)}"
        )
        todo += [PACKAGE / f"{t}.py" for t in tokens if (PACKAGE / f"{t}.py").is_file()]
    assert PACKAGE / "graphs.py" in seen  # the walk followed the package imports


@pytest.mark.parametrize("closed_module", ["entanglement", "density"])
def test_closed_forms_import_no_oracle_code(closed_module):
    # The other direction: the closed forms take (theta, psi, p, delta0,
    # delta1) as plain values checked by graphs.py, so the two routes share
    # only graphs.py and nothing reaches the state-vector module.
    todo, seen = [PACKAGE / f"{closed_module}.py"], set()
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        tokens = _import_tokens(path)
        assert "statevector" not in tokens, f"{path.name} (reached from {closed_module}.py) imports statevector"
        todo += [PACKAGE / f"{t}.py" for t in tokens if (PACKAGE / f"{t}.py").is_file()]
    assert PACKAGE / "graphs.py" in seen  # the walk followed the package imports


@pytest.mark.parametrize("oracle_module", sorted(ORACLE_MODULES))
def test_oracle_reads_no_degree_bookkeeping(oracle_module):
    # Orientation reaches the oracle only through the edges it simulates: it
    # counts what it needs from them, never the graph's degree vectors.
    tree = ast.parse(ORACLE_MODULES[oracle_module].read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    banned = {
        "degrees",
        "out_degrees",
        "degree_distribution",
        "DegreeDistribution",
        "young_fibonacci_degree_counts",
        "ffnn_degree_counts",
        "full_binary_tree_degree_counts",
        "bridged_cycles_degree_counts",
    }
    assert not used & banned, f"{oracle_module}.py reads {sorted(used & banned)}"


def test_batch_rule_has_one_home():
    # Only statevector.py, home of the row builder and of ed_numeric_rows,
    # which batches it, names them.
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "statevector.py":
            source = path.read_text(encoding="utf-8")
            for name in ("build_graph_state_rows", "BATCH_AMPLITUDES"):
                assert name not in source, f"{path.name} names {name}"


@pytest.mark.parametrize(
    "message",
    [
        "p must be in [0, 1]",
        "need at least 2 layers",
        "depth must be >= 1",
        "state not normalized",
        "outside [0, 1]",
        "must be a pair of integer vertices",
        "self-loop at vertex",
        "duplicate or anti-parallel edge",
        "exceeds the configured cap",
        "angles must be finite",
        "phases must be finite",
        "out of range for {m} vertices",
    ],
)
def test_each_guard_has_one_home(message):
    lines = [
        f"{path.name}:{n}"
        for path in sorted(PACKAGE.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if message in line
    ]
    assert len(lines) == 1, f"{message!r} is raised from {lines}"


def test_exports_exist_and_package_imports_only_exports():
    modules = sorted(path.stem for path in PACKAGE.glob("[!_]*.py"))
    for name in modules:
        module = importlib.import_module(f"graphent.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ lists undefined names {missing}"
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports  # the package re-exports from its modules
    for node in imports:
        exported = importlib.import_module(f"graphent.{node.module}").__all__
        stray = [alias.name for alias in node.names if alias.name not in exported]
        assert not stray, f"graphent/__init__.py imports {stray}, not in {node.module}.__all__"
