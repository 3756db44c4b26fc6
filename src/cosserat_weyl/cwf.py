"""CWF v1 field files hold one spinor field, the one ``planewave
--eta-out`` writes: a one-line JSON header, a blank line, then the two
complex components of each point as little-endian float64 (re, im)
pairs, row-major in (x1, x2, x3) with the component index fastest.
The header's kind is always ``spinor``, its components 2 and its dtype
``c128``; a nonvanishing spinor determines the model's coframe and
density (`correspondence.spinor_to_frame`).
"""

from __future__ import annotations

import json
import os

import numpy as np

from .geometry import TorusGrid

def write_field(path, eta: np.ndarray, grid: TorusGrid) -> None:
    """Write a spinor field of shape ``grid.shape + (2,)``, in any layout,
    as CWF v1 ``c128``."""
    expected = grid.shape + (2,)
    if np.shape(eta) != expected:
        raise ValueError(f"a spinor field on a {grid.dims} grid has shape "
                         f"{expected}, got {np.shape(eta)}")
    header = {
        "kind": "spinor",
        "dims": list(grid.dims),
        "box": list(grid.box),
        "components": 2,
        "dtype": "c128",
        "byte_order": "little",
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode("ascii"))
        handle.write(b"\n\n")
        handle.write(np.ascontiguousarray(eta, dtype="<c16").data)


def read_field(path):
    """Read a CWF v1 file; returns ``(kind, eta, grid)``, the kind always
    ``"spinor"`` and eta C-contiguous. The payload is read once, straight
    into the returned array."""
    with open(path, "rb") as handle:
        head = handle.readline()
        if handle.readline() != b"\n":
            raise ValueError("the CWF header line is not followed by a blank line")
        header = json.loads(head.decode("ascii"))
        if not isinstance(header, dict):
            raise ValueError(f"the CWF header is not a JSON object: {header!r}")
        if header.get("byte_order") != "little":
            raise ValueError("only little-endian CWF files are supported")
        for key in ("kind", "dtype", "components", "dims", "box"):
            if key not in header:
                raise ValueError(f"CWF header has no {key!r} field")
        kind, dtype, comps = header["kind"], header["dtype"], header["components"]
        if kind != "spinor":
            raise ValueError(f"unknown field kind {kind!r} in the header")
        if dtype != "c128":
            raise ValueError(f"unknown dtype {dtype!r} in the header (use c128)")
        # JSON 2.0 equals 2, but no array has a float axis length
        if type(comps) is not int or comps != 2:
            raise ValueError(f"kind 'spinor' expects 2 components, header says {comps!r}")
        grid = TorusGrid(dims=header["dims"], box=header["box"])
        expected = grid.num_points * 32  # two 16-byte c128 values per point
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        if size == expected:
            eta = np.empty(grid.shape + (2,), dtype="<c16")
            size = handle.readinto(eta)  # short only if the file shrank meanwhile
        if size != expected:
            raise ValueError(f"payload is {size} bytes, the header implies "
                             f"{expected} ({grid.dims}, {comps} x {dtype})")
    return kind, eta, grid


# "%.18e" of a float64 takes at most 26 bytes: a sign, 19 digits and a
# point, and an exponent of up to three digits
_E18 = "S26"


def _e18(values: list) -> list:
    """Each value as the bytes of ``%.18e``, all in one format call."""
    return (b"%.18e\n" * len(values) % tuple(values)).split()


def write_scalar_csv(path, field: np.ndarray, grid: TorusGrid) -> None:
    """Dump a real scalar field of the grid's shape as CSV rows
    x1,x2,x3,value, one per grid point in C order (x1 slowest), every
    number as ``%.18e``: the bytes of ``np.savetxt`` on the stacked
    columns.

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
    if values.shape != grid.shape:
        raise ValueError(f"field has shape {values.shape}, the grid has "
                         f"{grid.num_points} points {grid.shape}")
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
