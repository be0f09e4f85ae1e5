"""The count of settable values in the package.

A settable value is a defaulted parameter, positional or keyword-only, of
any function or lambda, or an annotated field with a value in a dataclass.
Each one is a knob that callers may vary and that tests and benchmarks must
then cover, so the total is pinned: a change that adds or removes one
changes this number in its own diff.
"""

import ast
from pathlib import Path

import pyrapool

SETTABLE_VALUES = 64


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_rule_counts_each_kind_once():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *args, c, d=2, **kw): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: list = field(default_factory=list)\n"
        "    d = 0\n"
        "class Plain:\n"
        "    e: int = 1\n")
    assert settable_values(tree) == 5  # b, d, x, C.b and C.c


def test_package_total():
    package = Path(pyrapool.__file__).parent
    total = sum(settable_values(ast.parse(path.read_text()))
                for path in sorted(package.glob("*.py")))
    assert total == SETTABLE_VALUES
