"""Clock-skew compensation with guaranteed floating-point error bounds.

The package computes integer candidate intervals for the skew-compensated
clock j ~ i*D/A under three interval constructions, refines them with an
integer-only walk up from the lower bound, and checks everything against
an exact rational oracle.  See the README for the experiment reproduction
commands.  Each module's __all__ is its public API; the package exports
their union.  The table pipeline loads late: the experiment module on
first access to any of its names but the table defaults, and its numpy
kernel, the kernel module, only for a CaseTable or sample_cases.
Importing the package, compensating a reading or reading a table
default such as skewcomp.DEFAULT_N loads neither.
"""

import importlib

from . import bounds, compensator, formats, rationals
from .rationals import *
from .formats import *
from .bounds import *
from .compensator import *

__version__ = "0.1.0"

DEFAULT_D = 10**6
DEFAULT_N = 10**5
DEFAULT_SEED = 42
DEFAULT_RANGE_PPM = 100
DEFAULT_I_LIST = (10**6, 10**7, 10**8, 10**9)

# experiment's __all__, named here so the package can export them without importing it
_EXPERIMENT_NAMES = (
    "CaseTable", "ClockSample", "StatSummary", "BoundsRow", "CompRow",
    "generate_samples", "sample_cases", "bounds_experiment", "compensation_experiment",
    "TABLE2_CONFIGS", "TABLE3_ALGORITHMS",
    "DEFAULT_I_LIST", "DEFAULT_D", "DEFAULT_N", "DEFAULT_SEED", "DEFAULT_RANGE_PPM",
)  # fmt: skip

__all__ = [
    "__version__",
    *rationals.__all__,
    *formats.__all__,
    *bounds.__all__,
    *compensator.__all__,
    *_EXPERIMENT_NAMES,
]


def __getattr__(name):
    # importing the submodule binds skewcomp.experiment; its names are not
    # cached here, so a function replaced in experiment is seen through the package
    if name == "experiment" or name in _EXPERIMENT_NAMES:
        experiment = importlib.import_module(".experiment", __name__)
        return experiment if name == "experiment" else getattr(experiment, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, "experiment"})
