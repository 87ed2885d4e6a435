"""The mutation table of tools/mutants.py stays runnable; no mutant runs here."""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def mutation_table():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_applies_once_and_names_existing_tests():
    """Each old text occurs exactly once in its file, and each named test is a
    test function defined at the top level of its test file."""
    table = mutation_table()
    assert table and len({m.id for m in table}) == len(table)
    for mutant in table:
        text = (ROOT / mutant.file).read_text(encoding="utf-8")
        for old, new in mutant.edits:
            assert old != new and text.count(old) == 1, (mutant.id, old)
        assert mutant.tests, mutant.id
        for test in mutant.tests:
            path, name = test.split("::")
            tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert path.startswith("tests/test_") and name in defined, (mutant.id, test)
