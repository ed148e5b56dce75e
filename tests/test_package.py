"""The package exports every layer's `__all__` and every error class."""

import importlib
import inspect

import multinv
from multinv import errors

LAYERS = ("classify", "groups", "lattice", "laurent", "monoid", "roots")


def test_the_package_exports_each_layer_and_every_error():
    names = []
    for layer in LAYERS:
        module = importlib.import_module(f"multinv.{layer}")
        for name in module.__all__:
            assert getattr(multinv, name) is getattr(module, name), name
        names += module.__all__
    # a name two layers export would be shadowed by the later import
    assert len(set(names)) == len(names)
    error_classes = [value for value in vars(errors).values()
                     if inspect.isclass(value)
                     and issubclass(value, errors.MultInvError)]
    assert len(error_classes) == 15
    for cls in error_classes:
        assert getattr(multinv, cls.__name__) is cls
