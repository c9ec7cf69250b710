"""Small shared utilities (text tables, byte formatting, ASCII plots, the
output-file writer, the usage-error type)."""

import os

from repro.utils.asciiplot import line_plot
from repro.utils.tables import format_bytes, format_table

__all__ = [
    "format_table", "format_bytes", "line_plot", "write_text", "require_writable", "UsageError"
]


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``, creating the parent directory first: the
    one writer of every file a ``repro`` command emits."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


class UsageError(ValueError):
    """Bad input to a command, named as the user gave it (a flag, a value,
    an input file), raised before any work: ``python -m repro`` prints it
    as ``error: …`` on stderr and exits 2."""


def require_writable(flag: str, path: str) -> None:
    """Raise :class:`UsageError` before any work unless :func:`write_text`
    can create ``path``, ``flag``'s value, in its nearest existing folder."""
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise UsageError(f"{flag}: cannot write {path}")
