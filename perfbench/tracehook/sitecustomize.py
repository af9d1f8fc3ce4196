"""Interpreter-start hook of the benchmark's traced run.

This directory is on ``PYTHONPATH`` only for the traced run, so every
process it starts (client, pool workers, HTTP service) installs the span
wrappers before it does any work.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import pbtrace

    pbtrace.install()
