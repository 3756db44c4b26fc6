"""Scalar-expression parser for CLI-supplied fields."""

import numpy as np
import pytest

from cosserat_weyl import ConfigError, TorusGrid
from cosserat_weyl.minilang import parse_scalar_expr


@pytest.fixture
def grid():
    return TorusGrid((8, 8, 8), (2 * np.pi, 2 * np.pi, 2 * np.pi))


def test_single_cosine(grid):
    x2 = grid.coords()[1]
    field = parse_scalar_expr("0.3*cos(x2)", grid)
    assert np.abs(field - 0.3 * np.cos(x2)).max() <= 1e-15


def test_default_coefficient_and_mode(grid):
    x1 = grid.coords()[0]
    assert np.abs(parse_scalar_expr("sin(x1)", grid) - np.sin(x1)).max() <= 1e-15


def test_sum_with_constant_and_signs(grid):
    x1, _, x3 = grid.coords()
    field = parse_scalar_expr("1.5 + 0.5*cos(2*x1) - sin(x3)", grid)
    expected = 1.5 + 0.5 * np.cos(2 * x1) - np.sin(x3)
    assert np.abs(field - expected).max() <= 1e-14


def test_leading_minus(grid):
    x1 = grid.coords()[0]
    field = parse_scalar_expr("-0.25*cos(x1)", grid)
    assert np.abs(field + 0.25 * np.cos(x1)).max() <= 1e-15


def test_non_2pi_box_accepts_matching_frequency():
    grid = TorusGrid((8, 8, 8), (1.0, 2 * np.pi, 2 * np.pi))
    x1 = grid.coords()[0]
    # frequency 2 pi gives exactly one period over box length 1
    field = parse_scalar_expr(f"cos({2 * np.pi}*x1)", grid)
    assert np.abs(field - np.cos(2 * np.pi * x1)).max() <= 1e-12


@pytest.mark.parametrize("bad", [
    "",
    "cos(x4)",
    "tan(x1)",
    "x1",
    "0.5*",
    "cos(x1)*cos(x2)",
    "exp(x1)",
    "cos(x1)+",
])
def test_rejects_out_of_grammar(grid, bad):
    with pytest.raises(ConfigError):
        parse_scalar_expr(bad, grid)


def test_rejects_non_integer_period(grid):
    with pytest.raises(ConfigError):
        parse_scalar_expr("cos(1.5*x1)", grid)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", ["1e999", "1e999*cos(x1)", f"cos({'9' * 400}*x1)",
                                 "1e308+1e308"], ids=["const", "coef", "mode", "sum"])
def test_rejects_non_finite_values(grid, bad):
    with pytest.raises(ConfigError, match="finite|overflows"):
        parse_scalar_expr(bad, grid)
