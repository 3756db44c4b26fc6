"""CWF v1 field files: bit-exact round trips, header validation, CSV
dumps."""

import json

import numpy as np
import pytest

from cosserat_weyl import TorusGrid, read_field, write_field, write_scalar_csv
from cosserat_weyl.cwf import KIND_COMPONENTS


@pytest.fixture
def grid():
    return TorusGrid((4, 8, 4), (2 * np.pi, 1.0, 3.0))


def _sample(kind, grid, rng):
    comps = KIND_COMPONENTS[kind]
    if kind == "spinor":
        return rng.normal(size=grid.shape + (2,)) + 1j * rng.normal(
            size=grid.shape + (2,))
    if kind == "coframe":
        return rng.normal(size=(3,) + grid.shape + (3,))
    if comps == 1:
        return rng.normal(size=grid.shape)
    return rng.normal(size=grid.shape + (comps,))


@pytest.mark.parametrize("kind", sorted(KIND_COMPONENTS))
def test_round_trip_bit_exact(kind, grid, tmp_path):
    rng = np.random.default_rng(hash(kind) % 2**31)
    values = _sample(kind, grid, rng)
    path = tmp_path / f"{kind}.cwf"
    write_field(path, kind, values, grid)
    kind2, values2, grid2 = read_field(path)
    assert kind2 == kind
    assert grid2.dims == grid.dims
    assert grid2.box == pytest.approx(grid.box)
    assert values2.shape == values.shape
    assert np.array_equal(values2, values)  # bit-exact


def test_header_layout(grid, tmp_path):
    path = tmp_path / "f.cwf"
    write_field(path, "scalar", np.zeros(grid.shape), grid)
    blob = path.read_bytes()
    head, sep, payload = blob.partition(b"\n\n")
    assert sep == b"\n\n"
    header = json.loads(head)
    assert header["kind"] == "scalar"
    assert header["dims"] == list(grid.dims)
    assert header["dtype"] == "f64"
    assert header["byte_order"] == "little"
    assert len(payload) == grid.num_points * 8


def test_spinor_payload_is_complex128(grid, tmp_path):
    path = tmp_path / "s.cwf"
    write_field(path, "spinor", np.zeros(grid.shape + (2,), dtype=complex), grid)
    header = json.loads(path.read_bytes().partition(b"\n\n")[0])
    assert header["dtype"] == "c128"
    assert header["components"] == 2


def test_unknown_kind_rejected(grid, tmp_path):
    with pytest.raises(ValueError):
        write_field(tmp_path / "x.cwf", "tensor", np.zeros(grid.shape), grid)


def test_wrong_byte_order_rejected(grid, tmp_path):
    path = tmp_path / "b.cwf"
    write_field(path, "scalar", np.zeros(grid.shape), grid)
    blob = path.read_bytes().replace(b'"little"', b'"big"')
    path.write_bytes(blob)
    with pytest.raises(ValueError):
        read_field(path)


def test_component_count_mismatch_rejected(grid, tmp_path):
    path = tmp_path / "c.cwf"
    write_field(path, "covector", np.zeros(grid.shape + (3,)), grid)
    blob = path.read_bytes()
    head, _, payload = blob.partition(b"\n\n")
    header = json.loads(head)
    header["components"] = 2
    path.write_bytes(json.dumps(header).encode() + b"\n\n" + payload)
    with pytest.raises(ValueError):
        read_field(path)


@pytest.mark.parametrize("field, value", [("kind", "foo"), ("dtype", "f32")])
def test_unreadable_header_field_rejected(field, value, grid, tmp_path):
    path = tmp_path / "h.cwf"
    write_field(path, "scalar", np.zeros(grid.shape), grid)
    head, _, payload = path.read_bytes().partition(b"\n\n")
    header = json.loads(head)
    header[field] = value
    path.write_bytes(json.dumps(header).encode() + b"\n\n" + payload)
    with pytest.raises(ValueError, match=field):
        read_field(path)


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
