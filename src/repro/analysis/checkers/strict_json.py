"""Strict-JSON safety: every serialized payload routes through ``jsonable``.

NaN and numpy scalars leaking into report JSON are prevented by
:func:`repro.util.jsonutil.jsonable`; this checker makes the rule
structural.  Outside ``util/jsonutil.py`` itself, a
``json.dump``/``json.dumps`` call must either

* serialize a payload wrapped in ``jsonable(...)`` (directly, or via a
  name assigned from ``jsonable(...)`` in the same function), or
* serialize a pure literal (dict/list/tuple of constants), which cannot
  carry numpy scalars or NaN by construction,

and must pass ``allow_nan=False`` so a sanitization gap fails loudly at
the emitter instead of corrupting a downstream parser.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import imported_aliases
from repro.analysis.base import Checker, Module, register_checker
from repro.analysis.findings import Finding

__all__ = ["StrictJsonChecker"]

_JSONUTIL_REL_SUFFIX = "util/jsonutil.py"

#: Functions whose first argument is the serialized payload.
_DUMP_METHODS = {"dump", "dumps"}


def _is_literal_safe(node: ast.expr) -> bool:
    """Literal payloads cannot smuggle NaN or numpy scalars."""
    if isinstance(node, ast.Constant):
        return not isinstance(node.value, float) or node.value == node.value
    if isinstance(node, (ast.List, ast.Tuple)):
        return all(_is_literal_safe(e) for e in node.elts)
    if isinstance(node, ast.Dict):
        return all(k is not None and _is_literal_safe(k) for k in node.keys) and all(
            _is_literal_safe(v) for v in node.values
        )
    return False


def _jsonable_names(module: Module) -> set[str]:
    names = imported_aliases(module.tree, "repro.util.jsonutil", "jsonable")
    names.add("jsonable")  # direct attribute use: jsonutil.jsonable(...)
    return names


def _is_jsonable_call(node: ast.expr, aliases: set[str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in aliases
    if isinstance(func, ast.Attribute):
        return func.attr == "jsonable"
    return False


def _enclosing_function_assignments(
    module: Module, call: ast.Call
) -> dict[str, ast.expr]:
    """Simple name -> value map of assignments in the function around ``call``.

    No flow analysis: the *last* textual assignment wins, which is the
    right conservative reading for the straight-line report emitters this
    rule guards.
    """
    target: ast.AST = module.tree
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if inner is call:
                    target = node
                    break
    out: dict[str, ast.expr] = {}
    for node in ast.walk(target):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    out[t.id] = node.value
    return out


@register_checker
class StrictJsonChecker(Checker):
    """RC301: non-literal JSON payloads must be ``jsonable``-sanitized."""

    name = "strict-json"
    code = "RC301"
    description = (
        "json.dump(s) outside util/jsonutil must serialize jsonable(...)-"
        "wrapped (or purely literal) payloads with allow_nan=False"
    )

    def check_module(self, module: Module) -> Iterable[Finding]:
        if module.rel.endswith(_JSONUTIL_REL_SUFFIX):
            return
        aliases = _jsonable_names(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _DUMP_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id == "json"
            ):
                continue
            if not node.args:
                continue
            payload = node.args[0]
            safe = _is_literal_safe(payload) or _is_jsonable_call(payload, aliases)
            if not safe and isinstance(payload, ast.Name):
                assigned = _enclosing_function_assignments(module, node).get(payload.id)
                safe = assigned is not None and (
                    _is_jsonable_call(assigned, aliases) or _is_literal_safe(assigned)
                )
            if not safe:
                yield self.finding(
                    module,
                    node.lineno,
                    f"json.{func.attr} serializes a payload that is not routed "
                    "through util.jsonutil.jsonable",
                    fix_hint=(
                        "wrap the payload in jsonable(...) so NaN and numpy "
                        "scalars are sanitized before serialization"
                    ),
                )
            has_allow_nan_false = any(
                kw.arg == "allow_nan"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in node.keywords
            )
            if not has_allow_nan_false and not _is_literal_safe(payload):
                yield self.finding(
                    module,
                    node.lineno,
                    f"json.{func.attr} does not pass allow_nan=False",
                    fix_hint=(
                        "strict artifacts must reject NaN/Infinity at the "
                        "emitter; add allow_nan=False"
                    ),
                )
