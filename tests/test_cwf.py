"""CWF v1 field files: bit-exact spinor round trips, header validation,
CSV dumps."""

import json
import re

import numpy as np
import pytest

from cosserat_weyl import (Metric3, TorusGrid, build_pauli, lagrangian_stationary,
                           planewave_solution, read_field, write_field, write_scalar_csv)


@pytest.fixture
def grid():
    return TorusGrid((4, 8, 4), (2 * np.pi, 1.0, 3.0))


def _spinor(grid, rng):
    return rng.normal(size=grid.shape + (2,)) + 1j * rng.normal(size=grid.shape + (2,))


def _write_zeros(path, grid):
    write_field(path, np.zeros(grid.shape + (2,), dtype=complex), grid)


def _rewrite_header(path, edit):
    """Rewrite the header of the CWF file at ``path`` as ``edit`` leaves
    its dict, keeping the payload."""
    head, _, payload = path.read_bytes().partition(b"\n\n")
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header).encode() + b"\n\n" + payload)


# the one kind CWF v1 holds
@pytest.mark.parametrize("kind", ["spinor"])
def test_round_trip_bit_exact(kind, grid, tmp_path):
    values = _spinor(grid, np.random.default_rng(5))
    path = tmp_path / f"{kind}.cwf"
    write_field(path, values, grid)
    kind2, values2, grid2 = read_field(path)
    assert kind2 == kind
    assert grid2.dims == grid.dims
    assert grid2.box == pytest.approx(grid.box)
    assert values2.shape == values.shape
    assert np.array_equal(values2, values)  # bit-exact


def test_header_layout(grid, tmp_path):
    path = tmp_path / "f.cwf"
    _write_zeros(path, grid)
    head, sep, payload = path.read_bytes().partition(b"\n\n")
    assert sep == b"\n\n"
    header = json.loads(head)
    # the six fields in the order every CWF v1 file has written them
    assert list(header) == ["kind", "dims", "box", "components", "dtype", "byte_order"]
    assert header["kind"] == "spinor"
    assert header["dims"] == list(grid.dims)
    assert header["components"] == 2
    assert header["dtype"] == "c128"
    assert header["byte_order"] == "little"
    assert len(payload) == grid.num_points * 2 * 16


def test_spinor_payload_is_complex128(grid, tmp_path):
    # (re, im) float64 pairs, the component index fastest
    values = _spinor(grid, np.random.default_rng(3))
    path = tmp_path / "s.cwf"
    write_field(path, values, grid)
    payload = path.read_bytes().partition(b"\n\n")[2]
    pairs = np.stack([values.real, values.imag], axis=-1)
    assert np.array_equal(np.frombuffer(payload, dtype="<f8"), pairs.ravel())


def test_unknown_kind_rejected(grid, tmp_path):
    # a scalar file as the writer wrote it before CWF v1 held spinors only
    header = {"kind": "scalar", "dims": list(grid.dims), "box": list(grid.box),
              "components": 1, "dtype": "f64", "byte_order": "little"}
    path = tmp_path / "x.cwf"
    path.write_bytes(json.dumps(header).encode() + b"\n\n" + bytes(grid.num_points * 8))
    with pytest.raises(ValueError, match="unknown field kind 'scalar'"):
        read_field(path)


# a field of each kind the writer took before CWF v1 held spinors only,
# in a wrong shape and in the kind's own one (expected), and a spinor
# field in a wrong shape (its own shape is the one that is written)
@pytest.mark.parametrize("kind, shape, expected", [
    ("covector", (3, 4, 8, 4), (4, 8, 4, 3)),   # component-first
    ("scalar", (129,), (4, 8, 4)),
    ("scalar", (4, 8, 4, 1), (4, 8, 4)),
    ("coframe", (4, 8, 4, 3, 3), (3, 4, 8, 4, 3)),
    ("spinor", (2, 4, 8, 4), (4, 8, 4, 2)),     # component-first
    ("spinor", (4, 8, 4, 2, 1), (4, 8, 4, 2)),
])
def test_wrong_shape_rejected_before_writing(kind, shape, expected, grid, tmp_path):
    path = tmp_path / "w.cwf"
    for got in [shape] if kind == "spinor" else [shape, expected]:
        message = f"a spinor field on a (4, 8, 4) grid has shape (4, 8, 4, 2), got {got}"
        with pytest.raises(ValueError, match=re.escape(message)):
            write_field(path, np.zeros(got, dtype=complex), grid)
        assert not path.exists()


def test_wrong_byte_order_rejected(grid, tmp_path):
    path = tmp_path / "b.cwf"
    _write_zeros(path, grid)
    path.write_bytes(path.read_bytes().replace(b'"little"', b'"big"'))
    with pytest.raises(ValueError, match="little-endian"):
        read_field(path)


def test_component_count_mismatch_rejected(grid, tmp_path):
    path = tmp_path / "c.cwf"
    _write_zeros(path, grid)
    _rewrite_header(path, lambda header: header.update(components=3))
    with pytest.raises(ValueError, match="expects 2 components, header says 3"):
        read_field(path)


@pytest.mark.parametrize("field, value", [
    ("kind", "foo"), ("dtype", "f32"), ("kind", ["scalar"]), ("dtype", {"f": 64}),
    ("dims", 8), ("box", None),
    # 128 points, as the (4, 8, 4) grid: int() would read it as (8, 4, 4)
    ("dims", [8.0, 4, 4.9]),
    # float() would read "579" and the strings as (5, 7, 9), true as 1
    ("box", "579"), ("box", ["5", "7", "9"]), ("box", [True, 1, 1]),
    ("components", True), ("components", 1.0),
    ("dims", [8, 8]),
    # a real payload, or one component: what the writer no longer writes
    ("dtype", "f64"), ("components", 1),
    # equal to 2, but not an integer axis length
    ("components", 2.0),
])
def test_unreadable_header_field_rejected(field, value, grid, tmp_path):
    path = tmp_path / "h.cwf"
    _write_zeros(path, grid)
    _rewrite_header(path, lambda header: header.update({field: value}))
    with pytest.raises(ValueError, match=field):
        read_field(path)


@pytest.mark.parametrize("field", ["kind", "dtype", "components", "dims", "box"])
def test_missing_header_field_rejected(field, grid, tmp_path):
    path = tmp_path / "m.cwf"
    _write_zeros(path, grid)
    _rewrite_header(path, lambda header: header.pop(field))
    with pytest.raises(ValueError, match=f"no '{field}' field"):
        read_field(path)


@pytest.mark.parametrize("head", [b"[1, 2]", b'"spinor"'])
def test_header_that_is_not_an_object_rejected(head, grid, tmp_path):
    path = tmp_path / "o.cwf"
    _write_zeros(path, grid)
    _, _, payload = path.read_bytes().partition(b"\n\n")
    path.write_bytes(head + b"\n\n" + payload)
    with pytest.raises(ValueError, match="not a JSON object"):
        read_field(path)


@pytest.mark.parametrize("separator", [b"\n", b"\nx", b""])
def test_header_without_blank_line_rejected(separator, grid, tmp_path):
    path = tmp_path / "n.cwf"
    _write_zeros(path, grid)
    head, _, payload = path.read_bytes().partition(b"\n\n")
    path.write_bytes(head + separator + payload)
    with pytest.raises(ValueError, match="not followed by a blank line"):
        read_field(path)


@pytest.mark.parametrize("extra", [-8, 8])
def test_payload_size_mismatch_rejected(extra, tmp_path):
    grid = TorusGrid((4, 4, 4), (2 * np.pi,) * 3)
    path = tmp_path / "p.cwf"
    _write_zeros(path, grid)
    blob = path.read_bytes()
    path.write_bytes(blob[:extra] if extra < 0 else blob + bytes(extra))
    with pytest.raises(ValueError, match=f"payload is {2048 + extra} bytes, "
                                         f"the header implies 2048"):
        read_field(path)


def _savetxt_csv(path, field, grid):
    """The writer's former body: the byte oracle for ``write_scalar_csv``."""
    x1, x2, x3 = grid.coords()
    data = np.column_stack([x1.ravel(), x2.ravel(), x3.ravel(),
                            np.asarray(field).ravel()])
    np.savetxt(path, data, delimiter=",", header="x1,x2,x3,value", comments="")


_SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e300]


@pytest.mark.parametrize("dims, box", [
    ((4, 4, 4), (2 * np.pi,) * 3),
    ((12, 16, 8), (1.0, 2.5, 7.0)),
    ((6, 4, 10), (2 * np.pi,) * 3),
])
def test_scalar_csv_matches_savetxt_bytes(dims, box, tmp_path):
    grid = TorusGrid(dims, box)
    rng = np.random.default_rng(grid.num_points)
    field = rng.normal(size=grid.shape) * 10.0 ** rng.integers(-300, 300, grid.shape)
    # spread over the slabs, the first and the last point included
    spots = np.linspace(0, grid.num_points - 1, len(_SPECIAL_VALUES)).astype(int)
    field.flat[spots] = _SPECIAL_VALUES
    write_scalar_csv(tmp_path / "new.csv", field, grid)
    _savetxt_csv(tmp_path / "old.csv", field, grid)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _assert_csv_matches_savetxt(field, grid, tmp_path):
    write_scalar_csv(tmp_path / "new.csv", field, grid)
    _savetxt_csv(tmp_path / "old.csv", field, grid)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_scalar_csv_planewave_density_matches_savetxt(tmp_path):
    # an exact solution's density is rounding noise around zero: few
    # distinct values per slab, each formatted once
    grid = TorusGrid((12, 16, 8), (1.0, 2.5, 7.0))
    metric = Metric3.diagonal(1.0, 4.0, 9.0)
    spec, field = planewave_solution((1, 2, 0), 1, build_pauli(metric), grid)
    density = lagrangian_stationary(field, spec.p0, field.pauli, metric, grid)
    assert np.unique(density).size < grid.num_points // 10
    _assert_csv_matches_savetxt(density, grid, tmp_path)


def test_scalar_csv_few_distinct_special_values_match_savetxt(tmp_path):
    grid = TorusGrid((4, 6, 8), (2 * np.pi,) * 3)
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000001], dtype=np.uint64).view(np.float64)
    palette = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 5e-324, 1.5, -2.25e-17], nans])
    rng = np.random.default_rng(7)
    field = palette[rng.integers(palette.size, size=grid.shape)]
    # 0.0 and -0.0 in one slab, and both NaN bit patterns in another
    field[1, 0, :2] = 0.0, -0.0
    field[2, 3, :2] = nans
    _assert_csv_matches_savetxt(field, grid, tmp_path)


def test_scalar_csv_strided_input_matches_savetxt(tmp_path):
    grid = TorusGrid((6, 4, 10), (1.0, 2.0, 3.0))
    rng = np.random.default_rng(11)
    values = rng.choice([0.0, -0.0, 1e-16, -3e-17, 2.0], size=(6, 4, 20))
    field = values[..., ::2]
    assert not field.flags.c_contiguous
    _assert_csv_matches_savetxt(field, grid, tmp_path)


def test_scalar_csv_float32_input_matches_savetxt(tmp_path):
    grid = TorusGrid((4, 8, 4), (2 * np.pi, 1.0, 3.0))
    rng = np.random.default_rng(13)
    field = rng.choice(np.array([0.1, -0.0, 0.0, 3.0e-8, np.nan], dtype=np.float32),
                       size=grid.shape)
    assert field.dtype == np.float32
    _assert_csv_matches_savetxt(field, grid, tmp_path)


@pytest.mark.parametrize("field, message", [
    (np.zeros((4, 8, 4), dtype=complex), "real field"),
    (np.zeros((4, 8, 3)), "the grid has 128 points"),
    (np.zeros(129), "the grid has 128 points"),
    # the grid's point count, but not its shape
    (np.zeros((8, 4, 4)), "field has shape (8, 4, 4), the grid has 128 points (4, 8, 4)"),
    (np.zeros(128), "field has shape (128,), the grid has 128 points (4, 8, 4)"),
])
def test_scalar_csv_rejects_unwritable_field(field, message, grid, tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_scalar_csv(path, field, grid)
    assert not path.exists()


def test_scalar_csv(grid, tmp_path):
    x1, x2, x3 = grid.coords()
    field = np.sin(x1) + x2
    path = tmp_path / "f.csv"
    write_scalar_csv(path, field, grid)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,x3,value"
    assert len(lines) == 1 + grid.num_points
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.abs(data[:, 3] - field.ravel()).max() <= 1e-12
    assert np.abs(data[:, 0] - x1.ravel()).max() <= 1e-12
