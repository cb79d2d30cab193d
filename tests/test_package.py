import inspect
import types

import graywyner as gw

SUBMODULES = {"codec_sim", "common_information", "distributions", "errors",
              "infotheory", "region"}


def test_all_lists_functions_classes_and_constants():
    assert gw.__all__ == sorted(gw.__all__)
    assert not SUBMODULES & set(gw.__all__)
    for name in gw.__all__:
        value = getattr(gw, name)
        assert (inspect.isfunction(value) or inspect.isclass(value)
                or isinstance(value, (int, float, str))), name


def test_star_import_binds_no_module():
    namespace = {}
    exec("from graywyner import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == gw.__all__
    assert not [v for v in namespace.values() if isinstance(v, types.ModuleType)]
