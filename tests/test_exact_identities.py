"""The pointwise algebra of the model, checked exactly in Gaussian-rational
arithmetic, and the package's float kernels pinned to the exact values.

The evaluator below is written from the definitions the README states,
not from the package code:

* g_ab = (L L^T)_ab for a rational lower-triangular L with a positive
  diagonal, and sigma^a = F[a, i] sigma_i for the standard Pauli triple
  sigma_i with F = L^-T R, R a rational rotation, so g^ab = (F F^T)^ab
  and sqrt(det g) = det L are rational; the index is lowered with g_ab,
  and sigma_0 is the identity;
* s = etabar sigma_0 eta, v_a = etabar sigma_a eta and
  A = (i/2)(etabar D - c.c.), where D = sigma^a d_a eta is drawn at the
  point like eta, since none of these needs more of the derivative;
* L = 16/(9 s)(A^2 - p0^2 s^2) sqrt(det g), L_pm = (A pm p0 s) sqrt(det g);
* xihat = (conj xi_2, -conj xi_1), w_a = xihatbar sigma_a xi, the
  coframe theta = (Re w, Im w, v) / s and the density rho = s sqrt(det g).

Once its denominators are cleared, each identity is a polynomial in the
real and imaginary parts of (eta, D) and in p0. Checking it with == at
seeded random rational points is polynomial identity testing: a nonzero
polynomial of degree d vanishes at a point drawn uniformly from S^n
with probability at most d/|S| (Schwartz, J. ACM 27 (1980) 701).
"""

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from cosserat_weyl import (
    FACTORIZATION_SIGN,
    PHASE_RATE,
    Metric3,
    PauliSet,
    TorusGrid,
    build_pauli,
    spinor_to_frame,
)
from cosserat_weyl.correspondence import _quadratic_map
from cosserat_weyl.spinor import (
    _axial_density,
    _covector,
    _scalar_density,
    _stationary_density,
    _weyl_density,
)


class Gauss:
    """An exact Gaussian rational re + i im."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, Gauss) else Gauss(x)

    def __add__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re + other.re, self.im + other.im)

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-Gauss.of(other))

    def __mul__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def conj(self):
        return Gauss(self.re, -self.im)

    def __eq__(self, other):
        other = Gauss.of(other)
        return self.re == other.re and self.im == other.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))


STANDARD_PAULI = (((0, 1), (1, 0)), ((0, Gauss(0, -1)), (Gauss(0, 1), 0)), ((1, 0), (0, -1)))


def _real(z: Gauss) -> Fraction:
    assert z.im == 0
    return z.re


def _combine(coefficients, matrices):
    """sum_i coefficients[i] matrices[i] for 2x2 matrices."""
    return tuple(tuple(sum((c * Gauss.of(m[r][col]) for c, m in zip(coefficients, matrices)),
                           Gauss(0)) for col in (0, 1)) for r in (0, 1))


def _sandwich(left, matrix, right):
    """conj(left) . matrix . right for 2-spinors."""
    return sum((left[r].conj() * matrix[r][col] * right[col]
                for r in (0, 1) for col in (0, 1)), Gauss(0))


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _inverse3(m):
    det = _det3(m)
    return [[(m[(col + 1) % 3][(row + 1) % 3] * m[(col + 2) % 3][(row + 2) % 3]
              - m[(col + 1) % 3][(row + 2) % 3] * m[(col + 2) % 3][(row + 1) % 3]) / det
             for col in range(3)] for row in range(3)]


def _transpose(m):
    return [list(column) for column in zip(*m)]


def _matmul3(a, b):
    return [[sum(a[row][i] * b[i][col] for i in range(3)) for col in range(3)]
            for row in range(3)]


@dataclass
class Point:
    """Every exact quantity of the model at one point."""

    eta: tuple
    slash: tuple
    s: Fraction
    v: list
    A: Fraction
    L: Fraction
    L_plus: Fraction
    L_minus: Fraction
    w: list
    theta: list


@dataclass
class Case:
    """A rational metric, its Pauli set, p0, a unit phase and the points."""

    g_upper: list
    g_lower: list
    factor: list
    sqrt_det: Fraction
    sigma_upper: list
    sigma_lower: list
    p0: Fraction
    phase: Gauss
    points: list

    def w(self, eta) -> list:
        hat = (eta[1].conj(), -eta[0].conj())
        return [_sandwich(hat, m, eta) for m in self.sigma_lower]

    def evaluate(self, eta, slash) -> Point:
        s = _real(_sandwich(eta, ((1, 0), (0, 1)), eta))
        v = [_real(_sandwich(eta, m, eta)) for m in self.sigma_lower]
        z = _sandwich(eta, ((1, 0), (0, 1)), slash)
        A = _real(Gauss(0, Fraction(1, 2)) * (z - z.conj()))
        root = self.sqrt_det
        L = Fraction(16, 9) / s * (A**2 - self.p0**2 * s**2) * root
        w = self.w(eta)
        theta = [[c.re / s for c in w], [c.im / s for c in w], [c / s for c in v]]
        return Point(eta, slash, s, v, A, L, (A + self.p0 * s) * root,
                     (A - self.p0 * s) * root, w, theta)

    def metric(self) -> Metric3:
        return Metric3(g_lower=_as_array(self.g_lower), factor=_as_array(self.factor))

    def pauli(self) -> PauliSet:
        return PauliSet(sigma_upper=_as_array(self.sigma_upper),
                        sigma_lower=_as_array(self.sigma_lower))

    def array(self, name) -> np.ndarray:
        return _as_array([getattr(p, name) for p in self.points])


def _as_array(values) -> np.ndarray:
    """Nested lists of exact numbers as a float or complex array."""
    flat = np.array(values, dtype=object)
    if any(isinstance(x, Gauss) for x in flat.flat):
        return np.vectorize(lambda x: complex(Gauss.of(x)), otypes=[complex])(flat)
    return flat.astype(float)


def _fraction(rng, top=9):
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def _gauss(rng):
    return Gauss(_fraction(rng), _fraction(rng))


N_POINTS = 64  # the points of a 4^3 grid


def _rotation(rng):
    """A rational rotation: the Cayley transform (I + S)(I - S)^-1 of a
    rational skew-symmetric S, orthogonal with determinant +1."""
    x, y, z = (_fraction(rng, 5) for _ in range(3))
    skew = [[Fraction(0), -z, y], [z, Fraction(0), -x], [-y, x, Fraction(0)]]
    plus, minus = ([[int(a == b) + sign * skew[a][b] for b in range(3)] for a in range(3)]
                   for sign in (1, -1))
    return _matmul3(plus, _inverse3(minus))


@functools.cache
def _case(kind: str) -> Case:
    """``standard``: the identity metric and the standard set;
    ``cholesky``: a rational L, lower triangular with a positive diagonal,
    and F = L^-T, the set `build_pauli` takes; ``full``: such an L and
    F = L^-T R with R a rational rotation, a full F with det F > 0."""
    rng = random.Random(f"exact-{kind}")
    one = [[Fraction(int(a == b)) for b in range(3)] for a in range(3)]
    factor = one if kind == "standard" else [
        [Fraction(rng.randint(1, 5), rng.randint(1, 5)) if a == b
         else _fraction(rng, 5) if b < a else Fraction(0) for b in range(3)] for a in range(3)]
    f = _matmul3(_transpose(_inverse3(factor)), _rotation(rng) if kind == "full" else one)
    g_lower = _matmul3(factor, _transpose(factor))
    g_upper = _matmul3(f, _transpose(f))
    sigma_upper = [_combine(f[a], STANDARD_PAULI) for a in range(3)]
    sigma_lower = [_combine(g_lower[a], sigma_upper) for a in range(3)]
    p0 = Fraction(0)
    while p0 == 0:
        p0 = _fraction(rng)
    t = _fraction(rng)
    phase = Gauss((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))  # |phase| = 1
    case = Case(g_upper, g_lower, factor, _det3(factor), sigma_upper, sigma_lower,
                p0, phase, [])
    while len(case.points) < N_POINTS:
        eta = (_gauss(rng), _gauss(rng))
        if eta[0] == 0 and eta[1] == 0:
            continue
        case.points.append(case.evaluate(eta, (_gauss(rng), _gauss(rng))))
    return case


KINDS = ("standard", "cholesky", "full")


def _contract(g_upper, x, y):
    return sum(g_upper[a][b] * x[a] * y[b] for a in range(3) for b in range(3))


@pytest.mark.parametrize("kind", KINDS)
class TestExactIdentities:
    def test_fierz(self, kind):
        case = _case(kind)
        for p in case.points:
            assert _contract(case.g_upper, p.v, p.v) == p.s**2

    def test_factorization_holds_with_the_package_sign_only(self, kind):
        case = _case(kind)
        for p in case.points:
            quotient = (-32 * case.p0 / 9) * p.L_plus * p.L_minus / (p.L_plus - p.L_minus)
            assert p.L == -1 * quotient
            assert p.L - quotient != 0  # kappa = +1 leaves 2L
        assert FACTORIZATION_SIGN == -1

    def test_frame_is_orthonormal_and_right_handed(self, kind):
        case = _case(kind)
        for p in case.points:
            for j in range(3):
                for k in range(3):
                    assert _contract(case.g_upper, p.theta[j], p.theta[k]) == int(j == k)
            assert _det3(p.theta) == case.sqrt_det  # tau = +sqrt(det g)

    def test_phase_law(self, kind):
        # theta^1 + i theta^2 = w / s picks up phase^2 under eta -> phase eta
        case = _case(kind)
        u = case.phase
        assert u * u.conj() == 1
        for p in case.points:
            # s is phase-invariant, so the law holds for w itself
            assert case.w((u * p.eta[0], u * p.eta[1])) == [u * u * c for c in p.w]
        # so the frame of e^{-i p0 x0} eta turns at -2 p0
        assert PHASE_RATE == -2


def _assert_close(value, exact, rtol=1e-14):
    """max |value - exact| within rtol of max |exact|, as `_relative_max`."""
    assert value.shape == exact.shape
    assert np.abs(value - exact).max() <= rtol * np.abs(exact).max()


@pytest.mark.parametrize("kind", KINDS)
class TestFloatKernelsAtExactPoints:
    def test_pointwise_kernels(self, kind):
        case = _case(kind)
        metric, pauli = case.metric(), case.pauli()
        eta, slash = case.array("eta"), case.array("slash")
        s, axial = case.array("s"), case.array("A")
        p0 = float(case.p0)
        _assert_close(_scalar_density(eta), s)
        _assert_close(_covector(eta, pauli), case.array("v"))
        squares = np.stack([eta[:, 0]**2, eta[:, 0] * eta[:, 1], eta[:, 1]**2], axis=-1)
        _assert_close(squares @ _quadratic_map(pauli).T, case.array("w"))
        _assert_close(_axial_density(eta, slash), axial)
        _assert_close(_stationary_density(s, axial, p0, metric), case.array("L"))
        _assert_close(_weyl_density(s, axial, p0, 1, metric), case.array("L_plus"))
        _assert_close(_weyl_density(s, axial, p0, -1, metric), case.array("L_minus"))

    def test_spinor_to_frame(self, kind):
        # the map is pointwise, so a grid filled with the points needs no
        # derivative of them
        case = _case(kind)
        grid = TorusGrid((4, 4, 4), (1.0, 1.0, 1.0))
        theta, rho = spinor_to_frame(case.array("eta").reshape(4, 4, 4, 2), case.pauli(),
                                     case.metric(), grid)
        exact = np.moveaxis(case.array("theta"), 0, 1).reshape(3, 4, 4, 4, 3)
        _assert_close(theta, exact)
        exact = _as_array([p.s * case.sqrt_det for p in case.points]).reshape(4, 4, 4)
        _assert_close(rho, exact)


@pytest.mark.parametrize("kind", ("standard", "cholesky"))
def test_build_pauli_is_the_exact_set(kind):
    # build_pauli takes sigma^a = (L^-T)[a, j] sigma_j from the Cholesky
    # factor L of g, which is the case's own L, and F = L^-T
    case = _case(kind)
    pauli = build_pauli(case.metric())
    _assert_close(pauli.sigma_upper, case.pauli().sigma_upper)
    _assert_close(pauli.sigma_lower, case.pauli().sigma_lower)
