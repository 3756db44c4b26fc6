"""The package namespace: what ``from cosserat_weyl import *`` binds."""

import types

import cosserat_weyl


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
