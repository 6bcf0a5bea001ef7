"""The triangle's oracles share no code path: the recurrence, the explicit sum over the
classical table, the classical expansion and the jets. The package source is read with ast,
so a change that routes one oracle through another fails here and not only in review."""
import ast
from pathlib import Path

import pytest

import ncstirling

PACKAGE = Path(ncstirling.__file__).resolve().parent
CONSTRUCTIONS = {"noncentral.recurrence_rows", "noncentral.explicit_rows",
                 "noncentral.build_by_recurrence", "noncentral.build_by_explicit"}
TABLE = {"stirling.scaled_rows", "stirling.StirlingTable"}


def _references(nodes):
    """The names (as "name") and attribute names (as ".name") used in the nodes, nested
    functions included."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add("." + sub.attr)
    return found


def _call_graph():
    """{"module.name": qualified names it may reach in one step} over every function, class
    and method of the package. A function reaches every package function or class whose
    name its body uses, and every package function or method whose name it reads as an
    attribute, whatever the object; a class reaches its methods. So, short of an import alias
    or getattr, the graph holds every real path, and some that are not."""
    graph, used, by_name = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            key = "%s.%s" % (path.stem, node.name)
            by_name.setdefault(node.name, set()).add(key)
            by_name.setdefault("." + node.name, set()).add(key)
            if isinstance(node, ast.FunctionDef):
                used[key] = _references(node.body)
                continue
            methods = {"%s.%s" % (key, m.name): m for m in node.body
                       if isinstance(m, ast.FunctionDef)}
            graph[key] = set(methods)
            for method_key, method in methods.items():
                used[method_key] = _references(method.body)
                by_name.setdefault("." + method.name, set()).add(method_key)
    graph.update((key, set().union(*(by_name.get(name, ()) for name in names)))
                 for key, names in used.items())
    return graph


GRAPH = _call_graph()


def _reach(start):
    seen, todo = set(), [start]
    while todo:
        for key in GRAPH[todo.pop()] - seen:
            seen.add(key)
            todo.append(key)
    return seen


def test_the_reachability_sees_real_paths():
    # the walk is not vacuous: it finds the table behind explicit_rows and the product
    # behind the classical expansion
    assert TABLE <= _reach("noncentral.explicit_rows")
    assert "exact.AlphaPoly.__mul__" in _reach("stirling.stirling_expansion_oracle")


# each oracle and what it must not reach: no construction, classical table or expansion
# reaches another, neither point formula of the k=1 column reaches the constructions whose
# rows[n][1] it checks, and no jets function reaches a construction or the classical table
RULES = [
    ("noncentral.recurrence_rows", TABLE | {"noncentral.explicit_rows", "exact.AlphaPoly"}),
    ("noncentral.explicit_rows",
     {"noncentral.recurrence_rows", "stirling.stirling_expansion_oracle"}),
    ("stirling.stirling_expansion_oracle", TABLE | CONSTRUCTIONS),
    ("identities.s_n1_sum_formula", CONSTRUCTIONS),
    ("identities.s_n1_recurrence", CONSTRUCTIONS),
] + [(key, TABLE | CONSTRUCTIONS) for key in sorted(GRAPH) if key.startswith("jets.")]


@pytest.mark.parametrize("oracle, forbidden", RULES, ids=[oracle for oracle, _ in RULES])
def test_an_oracle_reaches_no_other(oracle, forbidden):
    assert _reach(oracle) & forbidden == set()


def _package_imports(path):
    """The package modules that a source file imports, relatively or absolutely."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("ncstirling." if node.level else "") + (node.module or "")
            names = [base] if node.module else [base + alias.name for alias in node.names]
        else:
            continue
        found.update(name for name in names if name.split(".")[0] == "ncstirling")
    return found


def test_jets_imports_no_package_module_but_exact():
    # the jet oracle reads the rows it checks; it needs neither construction's module
    assert _package_imports(PACKAGE / "jets.py") == {"ncstirling.exact"}


def test_identities_imports_no_package_module_but_exact_and_stirling():
    # the identity suite, like the jets, reads the rows it checks, and its own formulas for
    # the k=1 column need only the classical table and the recurrence at one alpha
    assert _package_imports(PACKAGE / "identities.py") == {"ncstirling.exact",
                                                          "ncstirling.stirling"}


def test_the_explicit_sum_reads_no_closed_form():
    # StirlingTable.noncentral is Koutras's closed form for s(n, k, alpha), which the boundary
    # and column-one checks read. The graph cannot forbid it to explicit_rows, which reaches
    # the table and so every method of its class; the body must not name it.
    body = next(node.body for node in ast.parse((PACKAGE / "noncentral.py").read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "explicit_rows")
    assert ".noncentral" not in _references(body)
