"""The engine's array backend gate: NumPy when present, pure Python otherwise.

NumPy is an *optional* accelerator, never a dependency: every stage of the
columnar winnow has a NumPy leg and an interpreted leg over the same
rank-encoded integer codes, so results — and plans — are identical with or
without it.  :func:`repro.engine.columnar.columnar_winnow` picks the leg
once per winnow and hands it to every stage as ``np`` (:data:`DETECT` is
the stages' default for direct callers).  All NumPy access in
:mod:`repro.engine` funnels through :func:`get_numpy` so that

* a missing installation runs the interpreted leg, silently,
* tests can force that leg by monkeypatching :data:`_numpy` (or by
  reloading this module with a blocked import),
* operators can force it fleet-wide with ``REPRO_NO_NUMPY=1`` when chasing
  a suspected NumPy-specific discrepancy.
"""

from __future__ import annotations

import os
from typing import Any

try:  # pragma: no cover - exercised via reload in the fallback tests
    import numpy as _numpy_module
except ImportError:  # pragma: no cover
    _numpy_module = None

#: The imported numpy module, or None.  Tests monkeypatch this to simulate
#: a NumPy-less environment without uninstalling anything.
_numpy: Any = _numpy_module


def numpy_disabled_by_env() -> bool:
    """True when ``REPRO_NO_NUMPY`` is set to a non-empty, non-"0" value."""
    flag = os.environ.get("REPRO_NO_NUMPY", "")
    return flag not in ("", "0")


def get_numpy() -> Any:
    """The numpy module when importable and not disabled, else ``None``."""
    if _numpy is None or numpy_disabled_by_env():
        return None
    return _numpy


#: Default ``np`` of the kernels and encoders: "ask :func:`get_numpy` now".
#: The module, or ``None`` (interpreted leg), is a decision made upstream.
DETECT: Any = object()


def numpy_available() -> bool:
    """Whether the NumPy leg of the kernels can run at all."""
    return get_numpy() is not None


def backend_label() -> str:
    """Human-readable backend tag for ``explain()`` output."""
    return "numpy" if numpy_available() else "python-fallback"
