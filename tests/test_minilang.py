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
    "cos(x1)-+",
    "--",
    "cos(-x1)",
    "cos(2e*x1)",
    "cos(1.e0*x1)",
    # at or above the Nyquist mode 4 of an 8-point axis, which would alias
    "cos(5*x1)",
    "0.1*sin(4*x2)",
    "1+cos(4e0*x3)",
])
def test_rejects_out_of_grammar(grid, bad):
    with pytest.raises(ConfigError):
        parse_scalar_expr(bad, grid)


def test_rejects_non_integer_period(grid):
    with pytest.raises(ConfigError):
        parse_scalar_expr("cos(1.5*x1)", grid)


@pytest.mark.parametrize("bad", ["1e999", "1e999*cos(x1)", f"cos({'9' * 400}*x1)",
                                 "1e308+1e308", "1e308*cos(x1)+1e308*cos(x1)"],
                         ids=["const", "coef", "mode", "sum", "trig-sum"])
def test_rejects_non_finite_values(grid, bad):
    with pytest.raises(ConfigError, match="finite|overflows"):
        parse_scalar_expr(bad, grid)


@pytest.mark.parametrize("text,expected", [
    ("1e-3*cos(x1)", lambda x1, x2, x3: 1e-3 * np.cos(x1)),
    ("2E+1*sin(x3)", lambda x1, x2, x3: 20.0 * np.sin(x3)),
    ("0.5*cos(x1)-1e-2", lambda x1, x2, x3: 0.5 * np.cos(x1) - 0.01),
    ("1.5e-1", lambda x1, x2, x3: np.full_like(x1, 0.15)),
    ("-2.5e+0*cos(2*x2)+1E-1*sin(x1)", lambda x1, x2, x3: -2.5 * np.cos(2 * x2)
     + 0.1 * np.sin(x1)),
    ("cos(x1)-2", lambda x1, x2, x3: np.cos(x1) - 2.0),
    ("1e1-cos(x3)", lambda x1, x2, x3: 10.0 - np.cos(x3)),
    ("cos(2e0*x1)", lambda x1, x2, x3: np.cos(2 * x1)),
    ("0.5*sin(3E+0*x3)", lambda x1, x2, x3: 0.5 * np.sin(3 * x3)),
    ("cos(x1)--2", lambda x1, x2, x3: np.cos(x1) + 2.0),
    ("cos(x1)+-1", lambda x1, x2, x3: np.cos(x1) - 1.0),
    ("1-+-2", lambda x1, x2, x3: np.full_like(x1, 3.0)),
    ("--cos(x1)", lambda x1, x2, x3: np.cos(x1)),
    ("-+-sin(x2)---0.5", lambda x1, x2, x3: np.sin(x2) - 0.5),
    ("0.1*cos(1e0*x2)--0.05", lambda x1, x2, x3: 0.1 * np.cos(x2) + 0.05),
])
def test_signed_exponents_stay_in_their_number(grid, text, expected):
    # a sign right after the e of a number is the exponent's, not an
    # operator; one number pattern serves coefficient, mode and constant,
    # and any run of signs may precede any term, its minus signs multiplying
    assert np.abs(parse_scalar_expr(text, grid) - expected(*grid.coords())).max() <= 1e-14


@pytest.mark.parametrize("dims,box", [((8, 8, 8), (2 * np.pi,) * 3),
                                      ((12, 16, 8), (5.0, 7.0, 9.0)),
                                      ((16, 16, 16), (1.0, 2.0, 3.0))])
@pytest.mark.parametrize("terms", [
    [(0.3, "cos", 1, 2)],
    [(0.5, "cos", 2, 1), (-1.0, "sin", 1, 3)],
    [(-0.25, "cos", 1, 1), (0.1, "sin", 2, 2), (2.0, "cos", 1, 3)],
    [(1.0, "cos", 3, 3), (0.7, "sin", 2, 1)],
])
def test_matches_full_grid_evaluation(dims, box, terms):
    # the full-grid c * cos(n x) that the plane-wave evaluation replaced,
    # for (coefficient, function, cycles over the box, axis) terms; that
    # body rounds its argument n x, up to 2 pi times the cycle count, at
    # every point, hence a bound that grows with the modes
    grid = TorusGrid(dims, box)
    coords = grid.coords()
    text = "".join(f"{c:+}*{fn}({2 * np.pi * n / box[a - 1]!r}*x{a})"
                   for c, fn, n, a in terms)
    oracle = sum(c * getattr(np, fn)(2 * np.pi * n / box[a - 1] * coords[a - 1])
                 for c, fn, n, a in terms)
    tol = max(1e-15, np.finfo(float).eps * sum(abs(c) * 2 * np.pi * n
                                               for c, _, n, _ in terms))
    assert np.abs(parse_scalar_expr(text, grid) - oracle).max() <= tol


def test_frequency_near_an_integer_cycle_count_gives_the_exact_mode(grid):
    # within the 1e-9 periodicity check, the term is the grid's mode
    np.testing.assert_array_equal(parse_scalar_expr("cos(1.0000000001*x1)", grid),
                                  parse_scalar_expr("cos(x1)", grid))
