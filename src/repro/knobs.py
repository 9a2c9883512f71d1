"""The one place the ``REPRO_*`` environment knobs are read.

Each knob's ``*_ENV`` name, grammar and resolver live in the module
that owns the feature; only the read of ``os.environ`` — and the
"integer >= 1" rule two of the knobs share — lives here, so every knob
treats unset, empty and whitespace-only alike: as "use the default".
"""

from __future__ import annotations

import os


def env_default(name: str) -> str:
    """The stripped value of environment variable ``name`` ('' if unset)."""
    return os.environ.get(name, "").strip()


def positive_int(value, knob: str) -> int:
    """``value`` as an integer >= 1, or a ``ValueError`` naming ``knob``
    — a typo in a CI matrix must not quietly run the default suite."""
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise ValueError(f"{knob} must be an integer >= 1, got {value!r}")
    return number
