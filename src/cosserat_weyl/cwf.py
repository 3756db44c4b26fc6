"""CWF v1 field files: a one-line JSON header, a blank line, then raw
little-endian IEEE-754 values, row-major in (x1, x2, x3) with the
component index fastest. Complex values are stored as (re, im) pairs.
"""

from __future__ import annotations

import json
import os

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

# header dtype -> numpy dtype of the payload
_DTYPES = {"c128": "<c16", "f64": "<f8"}


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
    return flat.reshape(_field_shape(kind, grid))


def _field_shape(kind: str, grid: TorusGrid) -> tuple:
    """Array shape of a field of ``kind``, as `read_field` returns it."""
    if kind == "coframe":
        return (3,) + grid.shape + (3,)
    comps = KIND_COMPONENTS[kind]
    return grid.shape if comps == 1 else grid.shape + (comps,)


def write_field(path, kind: str, values: np.ndarray, grid: TorusGrid) -> None:
    if kind not in KIND_COMPONENTS:
        raise ValueError(f"unknown field kind {kind!r}")
    expected = _field_shape(kind, grid)
    if np.shape(values) != expected:
        raise ValueError(f"a {kind} field on a {grid.dims} grid has shape "
                         f"{expected}, got {np.shape(values)}")
    dtype = "c128" if kind in _COMPLEX_KINDS or np.iscomplexobj(values) else "f64"
    flat = _pack(kind, values, grid).astype(_DTYPES[dtype], copy=False)
    header = {
        "kind": kind,
        "dims": list(grid.dims),
        "box": list(grid.box),
        "components": KIND_COMPONENTS[kind],
        "dtype": dtype,
        "byte_order": "little",
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("ascii"))
        handle.write(b"\n\n")
        handle.write(flat.data)


def read_field(path):
    """Read a CWF v1 file; returns ``(kind, values, grid)``. The payload
    is read once, straight into the returned array."""
    with open(path, "rb") as handle:
        head = handle.readline()
        if handle.readline() != b"\n":
            raise ValueError("the CWF header line is not followed by a blank line")
        header = json.loads(head.decode("ascii"))
        if header.get("byte_order") != "little":
            raise ValueError("only little-endian CWF files are supported")
        for key in ("kind", "dtype", "components", "dims", "box"):
            if key not in header:
                raise ValueError(f"CWF header has no {key!r} field")
        kind, dtype, comps = header["kind"], header["dtype"], header["components"]
        if kind not in KIND_COMPONENTS:
            raise ValueError(f"unknown field kind {kind!r} in the header")
        if dtype not in _DTYPES:
            raise ValueError(f"unknown dtype {dtype!r} in the header (use c128 or f64)")
        if comps != KIND_COMPONENTS[kind]:
            raise ValueError(f"kind {kind!r} expects {KIND_COMPONENTS[kind]} components, "
                             f"header says {comps}")
        grid = TorusGrid(dims=tuple(header["dims"]), box=tuple(header["box"]))
        expected = grid.num_points * comps * np.dtype(_DTYPES[dtype]).itemsize
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        if size == expected:
            flat = np.empty(grid.shape + (comps,), dtype=_DTYPES[dtype])
            size = handle.readinto(flat)  # short only if the file shrank meanwhile
        if size != expected:
            raise ValueError(f"payload is {size} bytes, the header implies "
                             f"{expected} ({grid.dims}, {comps} x {dtype})")
    return kind, _unpack(kind, flat, grid), grid


# "%.18e" of a float64 takes at most 26 bytes: a sign, 19 digits and a
# point, and an exponent of up to three digits
_E18 = "S26"


def _e18(values: list) -> list:
    """Each value as the bytes of ``%.18e``, all in one format call."""
    return (b"%.18e\n" * len(values) % tuple(values)).split()


def write_scalar_csv(path, field: np.ndarray, grid: TorusGrid) -> None:
    """Dump a real scalar field as CSV rows x1,x2,x3,value, one per grid
    point in C order (x1 slowest), every number as ``%.18e``: the bytes
    of ``np.savetxt`` on the stacked columns.

    Each x1 slab is written as one block of bytes: one record per row,
    whose fixed-width fields hold the numbers, each NUL-padded to the
    width of its column, and the separators; the NULs are then removed
    by one ``bytes.replace``. The (x2, x3) fields and the separators are
    filled once per file. Each distinct bit pattern of the field is
    formatted once per file (so -0.0 and 0.0 stay apart and NaNs need no
    special case): a density that is rounding noise around zero holds
    few distinct values. The formatted values are dropped before a slab
    would take them past one slab's count, so memory stays that of a few
    slabs.
    """
    values = np.asarray(field)
    if np.iscomplexobj(values):
        raise ValueError("write_scalar_csv takes a real field, got a complex one")
    if values.size != grid.num_points:
        raise ValueError(f"field has {values.size} values, the grid has "
                         f"{grid.num_points} points {grid.dims}")
    slabs = values.astype(np.float64, copy=False).reshape(grid.dims[0], -1)
    x1, x2, x3 = (np.array(_e18(grid.axis_coords(i).tolist())) for i in (1, 2, 3))
    columns = [("x1", x1.dtype), ("c1", "S1"), ("x2", x2.dtype), ("c2", "S1"),
               ("x3", x3.dtype), ("c3", "S1"), ("value", _E18), ("end", "S1")]
    block = np.empty(grid.dims[1:], dtype=columns)
    block["c1"] = block["c2"] = block["c3"] = b","
    block["end"] = b"\n"
    block["x2"] = x2[:, np.newaxis]
    block["x3"] = x3
    rows = block.reshape(-1)
    formatted = {}
    with open(path, "w", encoding="ascii") as handle:
        handle.write("x1,x2,x3,value\n")
        for a, row in zip(x1, slabs):
            bits, index = np.unique(row.view(np.uint64), return_inverse=True)
            if len(formatted) + bits.size > row.size:
                formatted.clear()
            keys = bits.tolist()
            new = [b for b in keys if b not in formatted]
            formatted.update(zip(new, _e18(np.array(new, np.uint64).view(np.float64).tolist())))
            rows["x1"] = a
            rows["value"] = np.array(list(map(formatted.__getitem__, keys)), dtype=_E18)[index]
            handle.write(block.tobytes().replace(b"\0", b"").decode("ascii"))
