"""Small shared utilities: the output-file writer and the usage-error type
here, text tables and byte formatting in :mod:`repro.utils.tables`, ASCII
plots in :mod:`repro.utils.asciiplot`."""

import os


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
