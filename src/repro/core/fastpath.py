"""The lifetime hot loop has one production path: the vectorized one.

The per-device Eq. (5) pulse loop that tests diff it against lives in
``tests/tuning/reference.py`` (DESIGN.md §11).  :func:`vectorized_enabled`
remains so callers that check which hot loop runs (such as a
benchmark's environment-hygiene check) keep a stable answer.
"""

from __future__ import annotations


def vectorized_enabled() -> bool:
    """Whether the vectorized hot loop is active; always ``True``."""
    return True
