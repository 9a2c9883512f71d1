"""The "integer >= 1" rule the integer knobs share.

A knob is set in one place — its constructor argument or its ``repro
demo`` flag — and the integer ones (``concurrency``, ``write_batch``,
the CLI's counts) validate what they are given here, so a malformed
value fails where it is passed instead of deep inside a query.
"""

from __future__ import annotations


def positive_int(value, knob: str) -> int:
    """``value`` as an integer >= 1, or a ``ValueError`` naming ``knob``.

    Accepts an ``int``, an integral ``float`` or a decimal string (a CLI
    flag); a ``bool`` or a fractional float is rejected rather than
    truncated.
    """
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        number = 0
    else:
        try:
            number = int(value)
        except (TypeError, ValueError):
            number = 0
    if number < 1:
        raise ValueError(f"{knob} must be an integer >= 1, got {value!r}")
    return number
