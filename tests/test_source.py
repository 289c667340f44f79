import ast
import pathlib

import wordlab


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so no check in the library may
    # rely on one
    src = pathlib.Path(wordlab.__file__).parent
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(src.glob("*.py"))) >= 8
    assert found == []


def test_cli_draws_and_tabulates_nothing():
    # seeded draws and growth-function tables live in the library: cli.py
    # imports neither random nor math
    src = pathlib.Path(wordlab.__file__).parent / "cli.py"
    imported = {alias.name.split(".")[0]
                for node in ast.walk(ast.parse(src.read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in (node.names if isinstance(node, ast.Import)
                              else [ast.alias(node.module or "")])}
    assert "json" in imported
    assert imported.isdisjoint({"random", "math"})


def test_ergodic_language_has_one_counting_route():
    # the ergodic factor counts come from split products over the levels;
    # the junction-host census is the tests' oracle, not a second src route
    src = pathlib.Path(wordlab.__file__).parent / "ergodic_subshift.py"
    assert "WindowCensus" not in src.read_text()


# public names that no src code uses, each with the reason it stays
USED_OUTSIDE_SRC = {
    "verify_sandwich": "verifier the benchmark's xk-ergodic workload runs",
    "verify_frequency_deviation": "verifier the benchmark's xk-ergodic "
                                  "workload runs",
}


def _names(node):
    return {n.id if isinstance(n, ast.Name) else
            n.attr if isinstance(n, ast.Attribute) else n.name
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def _unused_top_level_defs():
    """Top-level defs and classes that no other top-level statement of the
    library names; __init__ re-exports do not count."""
    src = pathlib.Path(wordlab.__file__).parent
    stmts = [(node, _names(node))
             for path in sorted(src.glob("*.py")) if path.stem != "__init__"
             for node in ast.parse(path.read_text(), filename=str(path)).body]
    return sorted(
        node.name
        for node, _ in stmts
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in names for other, names in stmts
                    if other is not node))


def test_public_names_are_used_in_src():
    # a public top-level def or class that no other top-level statement of
    # the library names is surface kept only for the tests: move it into
    # them, or say above why it stays.  The allow-list holds no stale entry.
    unused = [name for name in _unused_top_level_defs() if not name.startswith("_")]
    assert unused == sorted(USED_OUTSIDE_SRC)


def test_private_names_are_used_in_src():
    # a private top-level helper that only the tests call is an oracle: it
    # lives in the tests
    assert [name for name in _unused_top_level_defs() if name.startswith("_")] == []


def test_budget_refusal_raised_in_one_place():
    # every byte-budget refusal goes through words_core.check_budget, so the
    # budget is resolved and compared in one place
    src = pathlib.Path(wordlab.__file__).parent
    found = [
        (path.name, node.lineno)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "bytes >" in node.value
    ]
    check = next(node for node in ast.parse((src / "words_core.py").read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "check_budget")
    assert len(found) == 1
    name, line = found[0]
    assert name == "words_core.py" and check.lineno <= line <= check.end_lineno
