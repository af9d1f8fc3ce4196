"""Small shared AST helpers for the domain checkers."""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = [
    "call_name",
    "decorator_name",
    "imported_aliases",
    "imports_module",
    "names_in",
    "param_names",
    "walk_functions",
]


def call_name(func: ast.expr) -> str | None:
    """The trailing identifier of a call target: ``f`` or ``mod.f`` -> ``"f"``."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def decorator_name(dec: ast.expr) -> str | None:
    """The name a decorator applies: handles ``@f``, ``@mod.f``, ``@f(...)``."""
    if isinstance(dec, ast.Call):
        return call_name(dec.func)
    return call_name(dec)


def walk_functions(
    tree: ast.AST,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every function definition in ``tree``, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """All parameter names of ``func`` except ``self``/``cls``."""
    a = func.args
    names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
    if a.vararg is not None:
        names.append(a.vararg.arg)
    if a.kwarg is not None:
        names.append(a.kwarg.arg)
    return [n for n in names if n not in ("self", "cls")]


def names_in(node: ast.AST) -> set[str]:
    """Every ``ast.Name`` identifier referenced anywhere under ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def imports_module(tree: ast.Module, module: str) -> bool:
    """Whether the file imports ``module`` (``import m`` or ``from m import``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == module or a.name.startswith(module + ".") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if mod == module or mod.startswith(module + "."):
                return True
    return False


def imported_aliases(tree: ast.Module, module: str, name: str) -> set[str]:
    """Local names bound to ``from <module> import <name> [as alias]``."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "") == module:
            for a in node.names:
                if a.name == name:
                    out.add(a.asname or a.name)
    return out
