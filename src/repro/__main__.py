"""Entry point for ``python -m repro`` (see :mod:`repro.engine.cli`).

The program runs with one BLAS thread per process: unset BLAS thread
variables become ``1`` here, before the CLI imports numpy (see
:mod:`repro._blas`).
"""

if __name__ == "__main__":
    from repro._blas import default_blas_threads

    default_blas_threads()

    from repro.engine.cli import main

    raise SystemExit(main())
