"""Fusion kernel backends.

The hot per-sample loops exist twice: a Cython extension (``_core``) built at
install time, and a pure-Python mirror (``_pyref``) used when the extension
is missing or when ``NAVFUSE_PURE_PYTHON=1`` is set. Both produce
bit-identical outputs; ``python3 navbench/run.py --trace 1`` reports each
backend's kernel time per op (``attitude.run_s.<backend>`` and
``navigation.run_s.<backend>``).
"""

from __future__ import annotations

import os

_compiled = None
_compiled_checked = False


def _load_compiled():
    global _compiled, _compiled_checked
    if not _compiled_checked:
        _compiled_checked = True
        try:
            from . import _core

            _compiled = _core
        except ImportError:
            _compiled = None
    return _compiled


def available_backends() -> tuple[str, ...]:
    return ("compiled", "python") if _load_compiled() is not None else ("python",)


def select(backend: str = "auto"):
    """Return the kernel module for ``backend`` (auto/compiled/python)."""
    from . import _pyref

    if backend == "python":
        return _pyref
    if backend == "compiled":
        core = _load_compiled()
        if core is None:
            raise RuntimeError("compiled kernel extension is not available")
        return core
    if backend == "auto":
        if os.environ.get("NAVFUSE_PURE_PYTHON"):
            return _pyref
        core = _load_compiled()
        return core if core is not None else _pyref
    raise ValueError(f"unknown backend {backend!r}")
