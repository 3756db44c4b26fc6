import numpy as np
import pytest

from cosserat_weyl import Metric3, TorusGrid, build_pauli

TWO_PI = 2.0 * np.pi


@pytest.fixture
def grid8():
    return TorusGrid((8, 8, 8), (TWO_PI, TWO_PI, TWO_PI))


@pytest.fixture
def grid16():
    return TorusGrid((16, 16, 16), (TWO_PI, TWO_PI, TWO_PI))


@pytest.fixture
def identity_metric():
    return Metric3.identity()


@pytest.fixture
def pauli_identity(identity_metric):
    return build_pauli(identity_metric)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(name, *modules)`` replaces the function ``name`` in
    each of ``modules`` (every module that binds it) by one wrapper, and
    returns the list that wrapper appends one ``(args, kwargs)`` entry
    to per call."""
    def patch(name, *modules):
        calls = []
        original = getattr(modules[0], name)
        wrapper = lambda *args, **kwargs: (calls.append((args, kwargs))
                                           or original(*args, **kwargs))
        for module in modules:
            monkeypatch.setattr(module, name, wrapper)
        return calls
    return patch
