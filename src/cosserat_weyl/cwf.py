"""CWF v1 field files: a one-line JSON header, a blank line, then raw
little-endian IEEE-754 values, row-major in (x1, x2, x3) with the
component index fastest. Complex values are stored as (re, im) pairs.
"""

from __future__ import annotations

import json

import numpy as np

from .geometry import TorusGrid

KIND_COMPONENTS = {
    "scalar": 1,
    "density": 1,
    "covector": 3,
    "twoform": 3,
    "threeform": 1,
    "spinor": 2,
    "coframe": 9,
}

_COMPLEX_KINDS = {"spinor"}


def _pack(kind: str, values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    comps = KIND_COMPONENTS[kind]
    if kind == "coframe":
        # (3, dims, 3) -> (dims, 9), frame index slowest within the point
        flat = np.moveaxis(values, 0, -2).reshape(grid.shape + (9,))
    else:
        flat = values.reshape(grid.shape + (comps,))
    return np.ascontiguousarray(flat)


def _unpack(kind: str, flat: np.ndarray, grid: TorusGrid) -> np.ndarray:
    if kind == "coframe":
        return np.moveaxis(flat.reshape(grid.shape + (3, 3)), -2, 0)
    if KIND_COMPONENTS[kind] == 1:
        return flat.reshape(grid.shape)
    return flat


def write_field(path, kind: str, values: np.ndarray, grid: TorusGrid) -> None:
    if kind not in KIND_COMPONENTS:
        raise ValueError(f"unknown field kind {kind!r}")
    complex_data = kind in _COMPLEX_KINDS or np.iscomplexobj(values)
    dtype = "<c16" if complex_data else "<f8"
    flat = _pack(kind, values, grid).astype(dtype, copy=False)
    header = {
        "kind": kind,
        "dims": list(grid.dims),
        "box": list(grid.box),
        "components": KIND_COMPONENTS[kind],
        "dtype": "c128" if complex_data else "f64",
        "byte_order": "little",
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("ascii"))
        handle.write(b"\n\n")
        handle.write(flat.tobytes())


def read_field(path):
    """Read a CWF v1 file; returns ``(kind, values, grid)``."""
    with open(path, "rb") as handle:
        blob = handle.read()
    head, _, payload = blob.partition(b"\n\n")
    header = json.loads(head.decode("ascii"))
    if header.get("byte_order") != "little":
        raise ValueError("only little-endian CWF files are supported")
    grid = TorusGrid(dims=tuple(header["dims"]), box=tuple(header["box"]))
    dtype = "<c16" if header["dtype"] == "c128" else "<f8"
    comps = header["components"]
    expected = KIND_COMPONENTS.get(header["kind"])
    if expected is not None and comps != expected:
        raise ValueError(f"kind {header['kind']!r} expects {expected} components, "
                         f"header says {comps}")
    flat = np.frombuffer(payload, dtype=dtype).reshape(grid.shape + (comps,))
    return header["kind"], _unpack(header["kind"], flat.copy(), grid), grid


def write_scalar_csv(path, field: np.ndarray, grid: TorusGrid) -> None:
    """Dump a scalar field as CSV rows (x1, x2, x3, value)."""
    x1, x2, x3 = grid.coords()
    data = np.column_stack([x1.ravel(), x2.ravel(), x3.ravel(),
                            np.asarray(field).ravel()])
    np.savetxt(path, data, delimiter=",", header="x1,x2,x3,value", comments="")
