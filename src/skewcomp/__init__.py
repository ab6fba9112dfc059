"""Clock-skew compensation with guaranteed floating-point error bounds.

The package computes integer candidate intervals for the skew-compensated
clock j ~ i*D/A under three interval constructions, refines them with an
integer-only walk up from the lower bound, and checks everything against
an exact rational oracle.  See the README for the experiment reproduction
commands.  Each module's __all__ is its public API; the package exports
their union.
"""

from . import bounds, compensator, experiment, formats, rationals
from .rationals import *
from .formats import *
from .bounds import *
from .compensator import *
from .experiment import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *rationals.__all__,
    *formats.__all__,
    *bounds.__all__,
    *compensator.__all__,
    *experiment.__all__,
]
