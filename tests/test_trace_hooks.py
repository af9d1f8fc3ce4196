"""The benchmark's trace hooks name layer boundaries that still exist.

``perfbench/tracehook/pbtrace.py`` times each layer by patching the
functions listed in its ``HOOKS`` table, resolved by module and attribute
name.  A rename in ``src/repro`` would otherwise surface only when the
traced benchmark runs.  The module is loaded from its file and only read:
``install()`` is never called, so nothing is patched.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

PBTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "tracehook" / "pbtrace.py"


def _load_hooks() -> tuple[tuple[str, str, str], ...]:
    spec = importlib.util.spec_from_file_location("_pbtrace_readonly", PBTRACE)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


HOOKS = _load_hooks()


def test_hook_table_is_not_empty():
    assert HOOKS


@pytest.mark.parametrize(
    "module_name,attr", sorted({(m, a) for m, a, _span in HOOKS}), ids=lambda v: v
)
def test_hook_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module_name}.{attr}: no attribute {part!r}"
        owner = getattr(owner, part)
    assert callable(owner)
