"""Deterministic on-disk storage of arrays and JSON documents, swapped in whole.

Arrays are stored as individual ``.npy`` files in a directory (the .npy
format carries no timestamps, so unchanged inputs reproduce byte-identical
artifacts, unlike zip-based ``.npz``).  JSON documents are written with
sorted keys and a two-space indent, ending in a newline.

No output is rewritten in place.  :func:`replacing` writes a file or a
directory as ``<path>.tmp``, moves the previous ``path`` aside to
``<path>.old``, renames the new one into place and only then deletes the
old one, so no rename lands on an existing name and no existing file is
truncated.  Besides surviving a kill, this avoids a stall: with ext4's
``auto_da_alloc`` (its default), truncating a file that an earlier run
wrote, or renaming over it, waits for that file's writeback (54-66 ms
for an 800 kB ``.npy``, against 0.5 ms to unlink it and write a new
one).  A kill between the two renames leaves only ``<path>.old``, which
:func:`current` reads.  :func:`check_replaceable` refuses a path whose
swap would destroy data that is not a previous output.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import shutil

import numpy as np

from litrel.errors import ConfigError, ParseError

logger = logging.getLogger(__name__)


def _remove(path: str) -> None:
    """Delete the file, link or directory tree at ``path``, if there is one."""
    if os.path.isdir(path) and not os.path.islink(path):
        shutil.rmtree(path)
    elif os.path.lexists(path):
        os.unlink(path)


@contextlib.contextmanager
def replacing(path: str):
    """Yield ``<path>.tmp`` to write a file or directory into, then swap it in for ``path``.

    On success the previous ``path``, if any, is renamed to
    ``<path>.old``, the new one to ``path``, and ``<path>.old`` is
    deleted.  If the block raises, ``<path>.tmp`` is deleted and
    ``path`` is left as it was.  A ``.tmp`` or ``.old`` left by an
    interrupted swap is deleted before its name is needed, so no rename
    targets an existing path.  The siblings are named from ``os.path.abspath(path)``, so a
    trailing ``/`` or a relative path still names them next to ``path``.
    """
    path = os.path.abspath(path)
    tmp, old = path + ".tmp", path + ".old"
    _remove(tmp)
    try:
        yield tmp
    except BaseException:
        _remove(tmp)
        raise
    if os.path.lexists(path):
        _remove(old)
        os.rename(path, old)
    os.rename(tmp, path)
    _remove(old)


def current(directory: str) -> str | None:
    """``directory``, or the ``<directory>.old`` a swap cut between its renames left; None if neither."""
    if os.path.isdir(directory):
        return directory
    old = os.path.abspath(directory) + ".old"
    if os.path.lexists(directory) or not os.path.isdir(old):
        return None
    logger.warning("%s is missing; reading %s, left by an interrupted write", directory, old)
    return old


def check_replaceable(directory: str, marker: str, what: str) -> None:
    """Raise ConfigError unless :func:`replacing` may replace ``directory`` as a whole.

    ``directory`` may be missing, an empty directory, or a previous
    output of the same kind, which holds ``marker``.  It may not be or
    contain the working directory, which a rename cannot move aside.
    """
    real = os.path.realpath(directory)
    if os.path.commonpath([real, os.getcwd()]) == real:
        raise ConfigError(f"{what} {directory!r} is or contains the working directory; "
                          "name a directory of its own")
    if not os.path.lexists(directory):
        return
    if not os.path.isdir(directory):
        raise ConfigError(f"{what} {directory!r} is not a directory")
    if os.listdir(directory) and not os.path.exists(os.path.join(directory, marker)):
        raise ConfigError(f"{what} {directory!r} holds files but no {marker}; "
                          "refusing to replace what is not a previous output")


def save_arrays(directory: str, arrays: dict[str, np.ndarray]) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, array in arrays.items():
        np.save(os.path.join(directory, name + ".npy"), array)


def load_arrays(directory: str) -> dict[str, np.ndarray]:
    """The ``.npy`` arrays of ``directory`` by name; a truncated or malformed one is a ParseError."""
    out = {}
    for filename in sorted(os.listdir(directory)):
        if filename.endswith(".npy"):
            path = os.path.join(directory, filename)
            try:
                out[filename[:-4]] = np.load(path)
            except (EOFError, ValueError) as exc:
                raise ParseError(f"cannot read array file {path}: {exc}") from None
    return out


def array_fault(array: np.ndarray, dtype: str, shape: tuple) -> str | None:
    """How ``array`` departs from ``dtype`` and ``shape``, or None when it does not.

    ``dtype`` is a dtype name, or ``"integer"`` for any integer type.  A
    ``shape`` entry that is not an int, such as ``"|E|"``, names a length
    that any value matches.
    """
    if not (array.dtype.kind in "iu" if dtype == "integer" else array.dtype == dtype):
        return f"has dtype {array.dtype}, expected {dtype}"
    if array.ndim != len(shape) or any(isinstance(want, int) and got != want
                                       for got, want in zip(array.shape, shape)):
        return f"has shape {array.shape}, expected ({', '.join(map(str, shape))}{',' * (len(shape) == 1)})"
    return None


def save_json(path: str, document) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str, what: str = "JSON file"):
    """The document in ``path``; a truncated, malformed or non-UTF-8 file is a ParseError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError
        raise ParseError(f"cannot parse {what} {path}: {exc}") from None
