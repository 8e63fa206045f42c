"""The array library of the simulator: numpy, and only numpy.

Every numeric surface imports numpy directly.  :func:`active` remains
so callers that check which library the hot path runs on (such as a
benchmark's environment-hygiene check) keep a stable answer.
"""

from __future__ import annotations

from types import SimpleNamespace

_NUMPY = SimpleNamespace(name="numpy")


def active() -> SimpleNamespace:
    """The array backend in use; its ``name`` is always ``"numpy"``."""
    return _NUMPY
