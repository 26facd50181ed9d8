"""Fourier contour embeddings for arbitrarily shaped text regions.

Closed text outlines are resampled to uniform speed, put into a canonical
start point and direction, and compressed into a short vector of complex
Fourier coefficients.  The package covers the full round trip: annotation
parsing, embedding, reconstruction, multi-scale ground-truth map generation,
map decoding with polygon NMS, training losses, and IoU-based evaluation.

Each module's __all__ is the one declaration of its public names; the
package re-exports them all.  svg and synth are imported by module path.
"""

from .annotations import *
from .config import *
from .decode import *
from .errors import *
from .evaluation import *
from .fourier import *
from .geometry import *
from .losses import *
from .mapdir import *
from .serialize import *
from .targets import *

__version__ = "0.1.0"

# each star import above also binds its submodule in this package
__all__ = [
    *annotations.__all__,
    *config.__all__,
    *decode.__all__,
    *errors.__all__,
    *evaluation.__all__,
    *fourier.__all__,
    *geometry.__all__,
    *losses.__all__,
    *mapdir.__all__,
    *serialize.__all__,
    *targets.__all__,
]
