"""Problem and table serialization.

Practitioners exchange constrained-matrix inputs as labeled CSV tables
(the classic I/O-table layout: first row = column labels, first column
= row labels, optional ``total`` margins) and archive solved problems
as NPZ bundles.  This module provides both, for every problem class in
the library, plus the JSON payload of the solve service.

In a JSON payload an array is either nested lists (the external wire
format clients send and receive) or a *packed array* (the internal
record format of the journal and the shard hop)::

    {"dtype": "<f8", "shape": [m, n], "b64": "<little-endian bytes>"}

A packed array is the array's raw little-endian bytes in base64, so it
is lossless by construction — NaN payloads, ±inf, −0.0, subnormals —
and still strict JSON.  ``|b1`` packs boolean masks.  Every decoder
here accepts both forms.
"""

from __future__ import annotations

import base64
import csv
import math
import pathlib

import numpy as np

from repro.errors import InvalidRequestError

from repro.core.problems import (
    ElasticProblem,
    FixedTotalsProblem,
    GeneralProblem,
    SAMProblem,
)

__all__ = [
    "read_table_csv",
    "write_table_csv",
    "save_problem",
    "load_problem",
    "problem_to_jsonable",
    "problem_from_jsonable",
    "pack_array",
    "unpack_array",
]

_KINDS = {
    "fixed": FixedTotalsProblem,
    "elastic": ElasticProblem,
    "sam": SAMProblem,
    "general": GeneralProblem,
}


def read_table_csv(path) -> tuple[np.ndarray, list[str], list[str]]:
    """Read a labeled table: header row of column labels, label-leading
    data rows.  Returns ``(matrix, row_labels, col_labels)``."""
    path = pathlib.Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one data row")
    col_labels = [c.strip() for c in rows[0][1:]]
    row_labels = []
    data = []
    for row in rows[1:]:
        row_labels.append(row[0].strip())
        values = row[1:]
        if len(values) != len(col_labels):
            raise ValueError(
                f"{path}: row {row[0]!r} has {len(values)} cells, "
                f"expected {len(col_labels)}"
            )
        data.append([float(v) for v in values])
    return np.array(data, dtype=np.float64), row_labels, col_labels


def write_table_csv(
    path,
    matrix: np.ndarray,
    row_labels: list[str] | None = None,
    col_labels: list[str] | None = None,
    fmt: str = "%.6g",
) -> None:
    """Write a labeled table in the same layout ``read_table_csv`` reads."""
    matrix = np.asarray(matrix)
    m, n = matrix.shape
    row_labels = row_labels or [f"r{i}" for i in range(m)]
    col_labels = col_labels or [f"c{j}" for j in range(n)]
    if len(row_labels) != m or len(col_labels) != n:
        raise ValueError("label counts must match the matrix shape")
    path = pathlib.Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + list(col_labels))
        for label, row in zip(row_labels, matrix):
            writer.writerow([label] + [fmt % v for v in row])


def save_problem(path, problem) -> None:
    """Archive a problem instance as an NPZ bundle."""
    kind = next(
        (k for k, cls in _KINDS.items() if type(problem) is cls), None
    )
    if kind is None:
        raise TypeError(f"cannot serialize {type(problem).__name__}")
    payload: dict[str, np.ndarray] = {
        "kind": np.array(kind),
        "name": np.array(problem.name),
        "x0": problem.x0,
        "mask": problem.mask,
    }
    if kind == "general":
        payload["general_kind"] = np.array(problem.kind)
        payload["G"] = problem.G
        payload["s0"] = problem.s0
        if problem.d0 is not None:
            payload["d0"] = problem.d0
        if problem.A is not None:
            payload["A"] = problem.A
        if problem.B is not None:
            payload["B"] = problem.B
    else:
        payload["gamma"] = problem.gamma
        payload["s0"] = problem.s0
        if kind in ("fixed", "elastic"):
            payload["d0"] = problem.d0
        if kind in ("elastic", "sam"):
            payload["alpha"] = problem.alpha
        if kind == "elastic":
            payload["beta"] = problem.beta
    np.savez_compressed(path, **payload)


def load_problem(path):
    """Restore a problem saved by :func:`save_problem`."""
    with np.load(path, allow_pickle=False) as bundle:
        kind = str(bundle["kind"])
        name = str(bundle["name"])
        if kind == "fixed":
            return FixedTotalsProblem(
                x0=bundle["x0"], gamma=bundle["gamma"],
                s0=bundle["s0"], d0=bundle["d0"],
                mask=bundle["mask"], name=name,
            )
        if kind == "elastic":
            return ElasticProblem(
                x0=bundle["x0"], gamma=bundle["gamma"],
                s0=bundle["s0"], d0=bundle["d0"],
                alpha=bundle["alpha"], beta=bundle["beta"],
                mask=bundle["mask"], name=name,
            )
        if kind == "sam":
            return SAMProblem(
                x0=bundle["x0"], gamma=bundle["gamma"],
                s0=bundle["s0"], alpha=bundle["alpha"],
                mask=bundle["mask"], name=name,
            )
        if kind == "general":
            files = set(bundle.files)
            return GeneralProblem(
                kind=str(bundle["general_kind"]),
                x0=bundle["x0"], G=bundle["G"], s0=bundle["s0"],
                d0=bundle["d0"] if "d0" in files else None,
                A=bundle["A"] if "A" in files else None,
                B=bundle["B"] if "B" in files else None,
                mask=bundle["mask"], name=name,
            )
    raise ValueError(f"unknown problem kind {kind!r} in {path}")


# ---------------------------------------------------------------------------
# JSON wire format (the solve service's request/response payloads)
# ---------------------------------------------------------------------------

def pack_array(arr, dtype: str = "<f8") -> dict | None:
    """An array as a packed object: ``dtype``, ``shape`` and its
    C-order little-endian bytes in base64 (any input layout or byte
    order is written back as ``dtype``).  ``None`` passes through."""
    if arr is None:
        return None
    a = np.asarray(arr, dtype=dtype)
    return {
        "dtype": dtype,
        "shape": list(a.shape),
        "b64": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def unpack_array(obj, dtype=np.float64, ndmin: int = 0) -> np.ndarray | None:
    """Nested lists or a packed array (:func:`pack_array`) as an array
    (``None`` passes through).

    A packed object must carry the dtype code ``dtype`` maps to
    (``<f8`` for floats, ``|b1`` for ``bool``), at most two
    non-negative dimensions and exactly ``prod(shape) × itemsize``
    bytes; anything else raises
    :class:`~repro.errors.InvalidRequestError`."""
    if obj is None:
        return None
    if not isinstance(obj, dict):
        return np.array(obj, dtype=dtype, ndmin=ndmin)
    code = "|b1" if dtype is bool else "<f8"
    shape, b64 = obj.get("shape"), obj.get("b64")
    if (
        obj.get("dtype") != code
        or not isinstance(shape, list)
        or len(shape) > 2
        or not all(type(k) is int and k >= 0 for k in shape)
        or not isinstance(b64, str)
    ):
        raise InvalidRequestError(
            f"malformed packed array: need dtype {code!r}, a shape of at "
            "most 2 non-negative ints and a base64 string"
        )
    try:
        raw = base64.b64decode(b64, validate=True)
    except ValueError as exc:
        raise InvalidRequestError(f"packed array is not base64 ({exc})")
    size = math.prod(shape) * np.dtype(code).itemsize
    if len(raw) != size:
        raise InvalidRequestError(
            f"packed array of shape {shape} needs {size} bytes, "
            f"got {len(raw)}"
        )
    if code == "|b1" and raw.translate(None, b"\x00\x01"):
        raise InvalidRequestError("packed mask bytes must be 0 or 1")
    return np.frombuffer(bytearray(raw), dtype=code).reshape(shape)


def problem_to_jsonable(problem, packed: bool = False) -> dict:
    """Encode a core problem as a JSON-serializable dict.

    The layout mirrors the NPZ bundle of :func:`save_problem` with
    nested lists in place of arrays (packed arrays with
    ``packed=True``); an all-``True`` mask is omitted.
    """
    kind = next((k for k, cls in _KINDS.items() if type(problem) is cls), None)
    if kind is None:
        raise TypeError(f"cannot encode {type(problem).__name__}")

    def enc(arr, dtype="<f8"):
        if packed or arr is None:
            return pack_array(arr, dtype)
        return np.asarray(arr).tolist()

    obj: dict = {
        "kind": kind,
        "name": problem.name,
        "x0": enc(problem.x0),
        "s0": enc(problem.s0),
    }
    if not problem.mask.all():
        obj["mask"] = enc(problem.mask, "|b1")
    if kind == "general":
        obj["general_kind"] = problem.kind
        for key in ("G", "d0", "A", "B"):
            obj[key] = enc(getattr(problem, key))
    else:
        obj["gamma"] = enc(problem.gamma)
        if kind in ("fixed", "elastic"):
            obj["d0"] = enc(problem.d0)
        if kind in ("elastic", "sam"):
            obj["alpha"] = enc(problem.alpha)
        if kind == "elastic":
            obj["beta"] = enc(problem.beta)
    return obj


def problem_from_jsonable(obj: dict):
    """Decode a dict produced by :func:`problem_to_jsonable` (arrays as
    nested lists or packed)."""
    kind = obj.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    common = {
        "x0": unpack_array(obj["x0"]),
        "s0": unpack_array(obj["s0"]),
        "mask": unpack_array(obj.get("mask"), dtype=bool),
        "name": obj.get("name", kind),
    }
    if kind == "general":
        return GeneralProblem(
            kind=obj["general_kind"], G=unpack_array(obj["G"]),
            d0=unpack_array(obj.get("d0")), A=unpack_array(obj.get("A")),
            B=unpack_array(obj.get("B")), **common,
        )
    gamma = unpack_array(obj["gamma"])
    if kind == "fixed":
        return FixedTotalsProblem(
            gamma=gamma, d0=unpack_array(obj["d0"]), **common
        )
    if kind == "elastic":
        return ElasticProblem(
            gamma=gamma, d0=unpack_array(obj["d0"]),
            alpha=unpack_array(obj["alpha"]),
            beta=unpack_array(obj["beta"]), **common,
        )
    return SAMProblem(gamma=gamma, alpha=unpack_array(obj["alpha"]), **common)
