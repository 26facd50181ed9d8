"""Every annotation in the package resolves: no name is used in a type hint
without being importable from the module that uses it."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import fourier_contours

MODULES = sorted(
    f"fourier_contours.{info.name}" for info in pkgutil.iter_modules(fourier_contours.__path__)
)


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", MODULES)
def test_public_function_hints_resolve(name):
    for fn in _public_functions(importlib.import_module(name)):
        typing.get_type_hints(fn)
