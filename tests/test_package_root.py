"""The lazy package root and the program's BLAS thread policy.

``import repro`` loads no numpy (PEP 562 exports), so ``python -m repro``
can set the BLAS thread variables of its own process before numpy loads
(:mod:`repro._blas`).  The entry-point tests run in a fresh interpreter: in
this one, numpy is long loaded.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro._blas import BLAS_THREAD_ENV

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

#: Runs ``python -m repro --help`` in-process and prints, as JSON, the BLAS
#: variables a ``sys.meta_path`` finder saw when numpy was first imported.
_RECORD_AT_NUMPY = """
import json, os, runpy, sys

seen = {}

class Recorder:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({k: os.environ.get(k) for k in %r})
        return None

sys.meta_path.insert(0, Recorder())
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(seen))
""" % (BLAS_THREAD_ENV,)

#: ``import repro`` as a library: numpy loaded? and the BLAS variables after.
_LIBRARY_IMPORT = """
import json, os, sys
import repro
print(json.dumps(["numpy" in sys.modules, {k: os.environ.get(k) for k in %r}]))
""" % (BLAS_THREAD_ENV,)


def _run(code: str, **blas: str) -> str:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_ENV}
    env.update(blas)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


class TestEntryPointBlasDefault:
    def test_numpy_loads_with_one_blas_thread(self):
        seen = json.loads(_run(_RECORD_AT_NUMPY))
        assert seen == dict.fromkeys(BLAS_THREAD_ENV, "1")

    def test_a_user_value_passes_through(self):
        seen = json.loads(_run(_RECORD_AT_NUMPY, OPENBLAS_NUM_THREADS="3"))
        assert seen == {**dict.fromkeys(BLAS_THREAD_ENV, "1"), "OPENBLAS_NUM_THREADS": "3"}

    def test_library_import_loads_no_numpy_and_sets_nothing(self):
        seen = json.loads(_run(_LIBRARY_IMPORT))
        assert seen == [False, dict.fromkeys(BLAS_THREAD_ENV)]


class TestLazyExports:
    @pytest.mark.parametrize("name", [n for n in repro.__all__ if n != "__version__"])
    def test_export_is_its_defining_modules_object(self, name):
        module = importlib.import_module(repro._MODULE_OF[name])
        obj = getattr(repro, name)
        assert obj is getattr(module, name)
        if isinstance(getattr(obj, "__module__", None), str):
            assert obj.__module__ == module.__name__

    def test_no_name_is_exported_from_two_modules(self):
        assert sum(map(len, repro._EXPORTS.values())) == len(repro._MODULE_OF)

    def test_dir_lists_every_export(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_star_import_binds_every_export(self):
        namespace: dict[str, object] = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            repro.no_such_name  # noqa: B018
        assert not hasattr(repro, "no_such_name")
