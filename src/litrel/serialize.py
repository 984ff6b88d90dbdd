"""Deterministic on-disk storage of arrays and JSON documents.

Arrays are stored as individual ``.npy`` files in a directory (the .npy
format carries no timestamps, so unchanged inputs reproduce byte-identical
artifacts, unlike zip-based ``.npz``).  JSON documents are written with
sorted keys and a two-space indent, ending in a newline.
"""

from __future__ import annotations

import json
import os

import numpy as np

from litrel.errors import ParseError


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
