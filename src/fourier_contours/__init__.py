"""Fourier contour embeddings for arbitrarily shaped text regions.

Closed text outlines are resampled to uniform speed, put into a canonical
start point and direction, and compressed into a short vector of complex
Fourier coefficients.  The package covers the full round trip: annotation
parsing, embedding, reconstruction, multi-scale ground-truth map generation,
map decoding with polygon NMS, training losses, and IoU-based evaluation.

Each module's __all__ is the one declaration of its public names; the
package re-exports them all.  Importing the package compiles none of them:
each module below is registered in sys.modules as a lazy module, loaded on
its first attribute use, and a package-level name is looked up in the
modules' __all__, in the order listed, on first use.  So a command loads
only the modules it runs.  Before Python 3.12 two threads that first touch
one lazy module at once can race, so a caller loads every module it needs
before it starts threads (fctool imports each command's names at the top of
the command).  cli, svg, synth, records and contours are imported by module
path and not registered: runpy warns when `python -m fourier_contours.cli`
finds cli in sys.modules already.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

_MODULES = ["annotations", "config", "decode", "errors", "evaluation", "fourier", "geometry", "losses", "mapdir",
            "serialize", "targets"]


def _register(name: str) -> None:
    """Bind the module `name` in sys.modules and in this package as a lazy
    module: its source is compiled and run on its first attribute use."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _MODULES:
    _register(_name)
del _name


def __getattr__(name: str):
    """__all__, or a public name from the first module whose __all__ holds
    it; bound in the package on first use, as a star import would bind it.
    A submodule not imported yet is no attribute: `from fourier_contours
    import synth` asks for it here first and imports it when this raises, so
    that spelling loads no module that `import fourier_contours.synth` does
    not."""
    if "." not in name and find_spec(f"{__name__}.{name}") is not None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if name == "__all__":
        value = [public for module in _MODULES for public in globals()[module].__all__]
    else:
        home = next((globals()[module] for module in _MODULES if name in globals()[module].__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value
