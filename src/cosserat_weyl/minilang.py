"""Tiny scalar-expression language for CLI-supplied test fields.

Only sums of terms ``c*cos(n*xi)``, ``c*sin(n*xi)`` and constants are
accepted, which guarantees band-limited fields (so identity checks
stay exact on the grid). Mode numbers must correspond to integer
Fourier modes of the grid box.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError
from .geometry import TorusGrid

_TRIG_TERM = re.compile(
    r"^(?:(?P<coef>[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\*)?"
    r"(?P<fn>cos|sin)\("
    r"(?:(?P<mode>[0-9]*\.?[0-9]+)\*)?"
    r"(?P<var>x[123])\)$")
_CONST_TERM = re.compile(r"^[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?$")
# a term ending like this ("1e", "2.E") is a number whose exponent's sign comes next
_OPEN_EXPONENT = re.compile(r"[0-9.][eE]$")


def _split_terms(text: str):
    text = text.replace(" ", "")
    if not text:
        raise ConfigError("empty field expression")
    terms = []
    sign = 1.0
    buf = ""
    for ch in text:
        if ch in "+-" and buf and not _OPEN_EXPONENT.search(buf):
            terms.append((sign, buf))
            sign = -1.0 if ch == "-" else 1.0
            buf = ""
        elif ch == "-" and not buf and not terms:
            sign = -sign
        elif ch == "+" and not buf:
            continue
        else:
            buf += ch
    if not buf:
        raise ConfigError(f"trailing operator in expression {text!r}")
    terms.append((sign, buf))
    return terms


def parse_scalar_expr(text: str, grid: TorusGrid) -> np.ndarray:
    """Evaluate an expression like ``0.5*cos(2*x1)+sin(x3)-0.25`` on
    the grid. Raises ConfigError on anything outside the grammar or not finite."""
    coords = grid.coords()
    field = np.zeros(grid.shape)
    for sign, term in _split_terms(text):
        const = _CONST_TERM.match(term)
        if const:
            field += sign * float(term)
            continue
        match = _TRIG_TERM.match(term)
        if not match:
            raise ConfigError(
                f"term {term!r} not in the c*cos/sin(n*xi) + const grammar")
        coef = float(match.group("coef") or 1.0)
        freq = float(match.group("mode") or 1.0)
        if not np.isfinite(freq):  # round() below would raise on it
            raise ConfigError(f"term {term!r}: frequency is not finite")
        axis = int(match.group("var")[1])
        # require an integer number of periods over the box
        cycles = freq * grid.box[axis - 1] / (2.0 * np.pi)
        if abs(cycles - round(cycles)) > 1e-9:
            raise ConfigError(
                f"term {term!r}: frequency {freq} is not periodic on box "
                f"length {grid.box[axis - 1]}")
        fn = np.cos if match.group("fn") == "cos" else np.sin
        field += sign * coef * fn(freq * coords[axis - 1])
    if not np.all(np.isfinite(field)):
        raise ConfigError(f"field expression {text!r} is not finite")
    return field
