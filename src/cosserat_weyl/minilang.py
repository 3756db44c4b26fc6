"""Tiny scalar-expression language for CLI-supplied test fields.

Only sums of terms ``c*cos(n*xi)``, ``c*sin(n*xi)`` and constants are
accepted, which guarantees band-limited fields (so identity checks
stay exact on the grid). Mode numbers must correspond to integer
Fourier modes of the grid box, below the Nyquist mode of their axis.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError
from .geometry import TorusGrid, _highest_mode, _plane_wave

# coefficient, mode and constant; a sign before a term is `_split_terms`'s
_NUMBER = r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?"
_TRIG_TERM = re.compile(
    rf"^(?:(?P<coef>{_NUMBER})\*)?"
    r"(?P<fn>cos|sin)\("
    rf"(?:(?P<mode>{_NUMBER})\*)?"
    r"(?P<var>x[123])\)$")
_CONST_TERM = re.compile(rf"^{_NUMBER}$")
# a term ending like this ("1e", "2.E") is a number whose exponent's sign comes next
_OPEN_EXPONENT = re.compile(r"[0-9.][eE]$")


def _split_terms(text: str):
    """(sign, term) pairs; a run of signs may precede any term."""
    text = text.replace(" ", "")
    if not text:
        raise ConfigError("empty field expression")
    terms = []
    sign = 1.0
    buf = ""
    for ch in text:
        if ch in "+-" and not _OPEN_EXPONENT.search(buf):
            if buf:
                terms.append((sign, buf))
                sign, buf = 1.0, ""
            if ch == "-":
                sign = -sign
        else:
            buf += ch
    if not buf:
        raise ConfigError(f"trailing operator in expression {text!r}")
    terms.append((sign, buf))
    return terms


@np.errstate(over="ignore")  # a sum that overflows is rejected as not finite
def parse_scalar_expr(text: str, grid: TorusGrid) -> np.ndarray:
    """Evaluate an expression like ``0.5*cos(2*x1)+sin(x3)-0.25`` on
    the grid. Raises ConfigError on anything outside the grammar, not
    finite, or at or above the Nyquist mode of its axis.
    c*cos(n*xi) is Re c e^{i m xi'} (sin: Im) with m = round(n L_i / 2 pi)."""
    field = np.zeros(grid.shape)
    highest = _highest_mode(grid)
    for sign, term in _split_terms(text):
        if _CONST_TERM.match(term):
            field += sign * float(term)
            continue
        match = _TRIG_TERM.match(term)
        if not match:
            raise ConfigError(
                f"term {term!r} not in the c*cos/sin(n*xi) + const grammar")
        coef = float(match.group("coef") or 1.0)
        freq = float(match.group("mode") or 1.0)
        axis = int(match.group("var")[1])
        # require an integer number of periods over the box
        cycles = freq * grid.box[axis - 1] / (2.0 * np.pi)
        # inf * e^{i0} is nan, and round(inf) raises
        if not (np.isfinite(coef) and np.isfinite(cycles)):
            raise ConfigError(f"term {term!r}: coefficient or frequency is not finite")
        if abs(cycles - round(cycles)) > 1e-9:
            raise ConfigError(
                f"term {term!r}: frequency {freq} is not periodic on box "
                f"length {grid.box[axis - 1]}")
        mode = round(cycles)
        if mode > highest[axis - 1]:
            raise ConfigError(
                f"term {term!r}: mode {mode} is at or above the Nyquist mode "
                f"{highest[axis - 1] + 1} of axis {axis} and would alias")
        modes = [mode if a == axis else 0 for a in (1, 2, 3)]
        wave = _plane_wave(grid, modes, sign * coef)
        field += wave.real if match.group("fn") == "cos" else wave.imag
    if not np.all(np.isfinite(field)):
        raise ConfigError(f"field expression {text!r} is not finite")
    return field
