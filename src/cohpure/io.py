"""JSON state files: a versioned schema for complex matrices with
explicit (re, im) entry pairs, safe for bit-identical round trips."""

from __future__ import annotations

import errno
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError, as_matrix
from .states import DensityMatrix, validate

__all__ = ["StateFile", "SCHEMA_VERSION", "write_state", "read_state", "atomic_write_text"]


def atomic_write_text(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never observe
    a partially written file."""
    path = os.fspath(path)
    if os.path.isdir(path):
        # os.replace would fail too, but naming the temp file
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cohpure-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise

SCHEMA_VERSION = "cohpure-state-1"


@dataclass(frozen=True)
class StateFile:
    matrix: np.ndarray
    dim: int
    label: str | None = None
    dims: tuple | None = None

    def state(self) -> DensityMatrix:
        return validate(self.matrix)


def _encode_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _decode_matrix(rows) -> np.ndarray:
    try:
        arr = np.asarray(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows], dtype=complex
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise ValidationError("statefile", message=f"malformed matrix entries: {exc}") from exc
    return arr


def write_state(path, state, label: str | None = None, dims=None) -> None:
    m = as_matrix(state)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "dim": int(m.shape[0]),
        "matrix": _encode_matrix(m),
    }
    if label is not None:
        doc["label"] = label
    if dims is not None:
        doc["dims"] = [int(dims[0]), int(dims[1])]
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def read_state(path) -> StateFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError("statefile", message=f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError("statefile", message=f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(
            "statefile", message=f"missing or unsupported schema_version (want {SCHEMA_VERSION!r})"
        )
    if "dim" not in doc or "matrix" not in doc:
        raise ValidationError("statefile", message="state file requires 'dim' and 'matrix'")
    dim = _integer(doc["dim"], "dim")
    m = _decode_matrix(doc["matrix"])
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != dim:
        raise ValidationError("statefile", message=f"matrix shape {m.shape} does not match dim {dim}")
    dims = None
    if "dims" in doc:
        raw = doc["dims"]
        dims = tuple(_integer(x, "dims") for x in raw) if isinstance(raw, list) else ()
        if len(dims) != 2 or min(dims) < 1 or dims[0] * dims[1] != dim:
            raise ValidationError(
                "statefile", message=f"dims {raw!r} must be two positive integers with product dim {dim}"
            )
    return StateFile(matrix=m, dim=dim, label=doc.get("label"), dims=dims)


def _integer(value, field: str) -> int:
    """A JSON integer, or a number with an integral value; booleans,
    strings and fractional or non-finite numbers are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError("statefile", message=f"'{field}' must be an integer, got {value!r}")
