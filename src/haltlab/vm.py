"""Kernel selection: compiled extension when available, pure Python otherwise.

The compiled kernel is the C extension haltlab._stepper, built from
_stepper.c by setup.py; the pure kernel is haltlab._stepper_py. Set
HALTLAB_KERNEL=pure or HALTLAB_KERNEL=compiled to force a choice (the latter
raises if the extension was not built). Both kernels implement the
instruction set and the argument contract in docs/machine-isa.md with
identical observable behavior. The pure kernel answers a call that agrees
with its last run on the bytes that run read without stepping, with an
unchanged (status, steps, output); the compiled one keeps no state.
"""

from __future__ import annotations

import os

_forced = os.environ.get("HALTLAB_KERNEL")

if _forced == "pure":
    from haltlab import _stepper_py as _impl
elif _forced == "compiled":
    from haltlab import _stepper as _impl  # type: ignore[no-redef]
elif _forced:
    raise ImportError(f"HALTLAB_KERNEL must be 'pure' or 'compiled', got {_forced!r}")
else:
    try:
        from haltlab import _stepper as _impl  # type: ignore[no-redef]
    except ImportError:
        from haltlab import _stepper_py as _impl

KERNEL_NAME: str = "pure" if _impl.__name__.endswith("_py") else "compiled"

run_stream = _impl.run_stream

HALTED: int = _impl.HALTED
DIVERGED: int = _impl.DIVERGED
OUTPUT_LIMIT: int = _impl.OUTPUT_LIMIT
