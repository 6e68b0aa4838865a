"""Every function and class the package defines is named somewhere outside its definition.

The search covers the code of the package's modules other than `__init__.py`
(whose exports alone keep nothing alive), without their docstrings and comments,
and the demos, the scripts, the benchmark runner and the README as written; the
tests do not count, so a diagnostic only tests call belongs in
tests/_reference.py, not in the package. Standard library only.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "otcp"


def _code(path: Path) -> str:
    """The module at `path` without its docstrings and comments."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            node.body = body[1:] or [ast.Pass()]
    return ast.unparse(tree)


def _corpus() -> str:
    code = [_code(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files = [ROOT / "README.md"]
    for folder in ("demos", "scripts", "perfbench"):
        files += sorted(p for p in (ROOT / folder).rglob("*") if p.suffix in (".py", ".md"))
    return "\n".join(code + [p.read_text(encoding="utf-8") for p in files])


def _definitions() -> Counter:
    """How many times each function or class name is defined in the package (dunders aside)."""
    names = Counter()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    names[node.name] += 1
    return names


def test_every_package_definition_is_named_outside_itself():
    corpus = _corpus()
    dead = sorted(name for name, defined in _definitions().items()
                  if len(re.findall(rf"\b{re.escape(name)}\b", corpus)) <= defined)
    assert dead == []
