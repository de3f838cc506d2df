"""The two routes stay independent by construction: the state-vector oracle
(statevector.py) and the reduced-density analytics (density.py) import no
closed-form code, directly or through the graphent modules they import, and
read none of a graph's degree bookkeeping; the oracle's ED step, which
lives in entanglement.py beside the closed forms, calls none of them.  The
oracle's rows are split into batches in one place,
`entanglement.ed_numeric_rows`.  And no export outlives
its definition: every name a module lists in `__all__` exists, and the
package imports only names its modules export.  Each shared input guard
raises its message from one line, so a fix cannot miss a copy."""

import ast
import importlib
from pathlib import Path

import pytest

import graphent
from graphent import entanglement

PACKAGE = Path(graphent.__file__).resolve().parent
CLOSED_FORM_NAMES = {"entanglement", *entanglement.__all__}
ORACLE_ED_STEP = ("ed_numeric", "ed_numeric_rows", "_contribution_rows")
# Every other function in entanglement.py is a closed form or one of its helpers.
CLOSED_FORM_FUNCTIONS = set(entanglement.__all__) - {"EdReport", *ORACLE_ED_STEP} | {
    "_power",
    "_cos2",
    "_p_factors",
    "_r_squared",
    "_degree_counts",
    "_degree_means",
}


def _import_tokens(module: str) -> set[str]:
    """Every module-path part and imported name in graphent/<module>.py."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    tokens = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                tokens.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            tokens.update((node.module or "").split("."))
            tokens.update(alias.name for alias in node.names)
    return tokens


@pytest.mark.parametrize("oracle_module", ["statevector", "density"])
def test_oracle_imports_no_closed_form_code(oracle_module):
    todo, seen = [oracle_module], set()
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        tokens = _import_tokens(module)
        assert not tokens & CLOSED_FORM_NAMES, (
            f"{module}.py (reached from {oracle_module}.py) imports "
            f"{sorted(tokens & CLOSED_FORM_NAMES)}"
        )
        todo += [t for t in tokens if (PACKAGE / f"{t}.py").is_file()]
    assert "graphs" in seen  # the walk followed the package-relative imports


@pytest.mark.parametrize("oracle_module", ["statevector", "density"])
def test_oracle_reads_no_degree_bookkeeping(oracle_module):
    # Orientation reaches the oracle only through the edges it simulates: it
    # counts what it needs from them, never the graph's degree vectors.
    tree = ast.parse((PACKAGE / f"{oracle_module}.py").read_text(encoding="utf-8"))
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


@pytest.mark.parametrize("function", ORACLE_ED_STEP)
def test_oracle_ed_step_calls_no_closed_form(function):
    tree = ast.parse((PACKAGE / "entanglement.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert CLOSED_FORM_FUNCTIONS <= defs.keys()  # the banned names are still defined here
    named = set()
    for node in ast.walk(defs[function]):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not named & CLOSED_FORM_FUNCTIONS, (
        f"entanglement.{function} names {sorted(named & CLOSED_FORM_FUNCTIONS)}"
    )


def test_batch_rule_has_one_home():
    # Only the row builder and ed_numeric_rows, which batches it, name them.
    homes = {"statevector.py", "entanglement.py"}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in homes:
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
