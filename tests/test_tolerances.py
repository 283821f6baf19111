import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "markovgibbs"


def _small_floats(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-6
    ]


def _mode_choices(path):
    """Places that pick or spell a comparison mode: ``.exact is not None`` and bare mode strings."""
    text = path.read_text()
    found = [
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(text, filename=str(path)))
        if isinstance(node, ast.Constant) and node.value in ("exact", "numerical")
    ]
    return found + [(None, ".exact is not None")] * text.count(".exact is not None")


def test_comparison_mode_is_decided_only_in_gibbs():
    stray = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "gibbs.py" and (found := _mode_choices(path))
    }
    assert stray == {}
    assert _mode_choices(PACKAGE / "gibbs.py")


def test_comparison_bounds_live_in_the_tolerances_module():
    stray = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py" and (found := _small_floats(path))
    }
    assert stray == {}
    assert _small_floats(PACKAGE / "tolerances.py")



def _gibbs_tree():
    return ast.parse((PACKAGE / "gibbs.py").read_text())


def test_gibbs_builds_no_word_table():
    imported = {alias.name for node in ast.walk(_gibbs_tree()) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & {"_word_rows", "_require_word_limit", "admissible_words", "WORD_LIMIT"} == set()


def test_normalize_makes_no_second_stationary_solve():
    normalize = next(
        node for node in ast.walk(_gibbs_tree()) if isinstance(node, ast.FunctionDef) and node.name == "normalize"
    )
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(normalize)
        if isinstance(node, ast.Call)
    }
    assert "perron" in called
    assert called & {"_stationary", "lstsq"} == set()
