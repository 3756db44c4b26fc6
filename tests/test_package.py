"""The package namespace: what ``from cosserat_weyl import *`` binds,
and the one spinor object its kernels take."""

import inspect
import types
import typing

import cosserat_weyl
from cosserat_weyl import SpinorField

# The public functions that take a `SpinorField` first and still take a
# Pauli set and grid beside it, each with the benchmark's call
# (perfbench/workload.py) that pins its signature. The next benchmark
# change (ROADMAP item 29) empties this.
PINNED = {
    "lagrangian_stationary": "_claim6: lagrangian_stationary(eta, p0, pauli, metric, grid)",
    "weyl_residual_norm": "_check_planewave: weyl_residual_norm(eta, p0, sign, "
                          "build_pauli(metric), grid)",
    "stationary_frame_path": "_claim6: stationary_frame_path(eta, p0, pauli, metric, grid)",
}


def test_all_lists_api_names_only():
    # every entry resolves, and none is one of the submodules that the
    # package's own imports bind in its namespace
    assert cosserat_weyl.__all__
    for name in cosserat_weyl.__all__:
        assert not isinstance(getattr(cosserat_weyl, name), types.ModuleType), name


def test_star_import_keeps_a_callers_names():
    namespace = {"errors": "mine", "weyl": "mine"}
    exec("from cosserat_weyl import *", namespace)
    assert namespace["errors"] == namespace["weyl"] == "mine"
    assert namespace["frame_to_spinor"] is cosserat_weyl.frame_to_spinor


def _takes_a_field_first(function) -> bool:
    parameters = list(inspect.signature(function, eval_str=True).parameters.values())
    first = parameters[0].annotation if parameters else None
    return first is SpinorField or SpinorField in typing.get_args(first)


def test_a_field_carries_its_pauli_set_and_grid():
    # only the pinned functions take `pauli` or `grid` beside a field
    takers = {name: inspect.signature(getattr(cosserat_weyl, name)).parameters
              for name in cosserat_weyl.__all__
              if inspect.isfunction(getattr(cosserat_weyl, name))
              and _takes_a_field_first(getattr(cosserat_weyl, name))}
    assert set(PINNED) <= set(takers) and len(takers) == 14
    assert {name for name, parameters in takers.items()
            if {"pauli", "grid"} & set(parameters)} == set(PINNED)
