"""ecolab: simulation and analysis of ecological interaction models.

Continuous and discrete antagonistic dynamics, epidemic spreading on
contact networks with transmission thresholds, cooperation and mimicry
payoff rules, and the multivariate trait-selection recursion, behind a
scenario-file driven CLI (`ecolab`).

Each module's `__all__` names its public interface; this package
republishes those names, and `__all__` here joins the lists in import order.
"""

from .core import *
from .continuous import *
from .discrete import *
from .epidemic import *
from .selection import *
from .analysis import *
from .scenario_io import *
from .svg import *
from .cli import *
from . import core, continuous, discrete, epidemic, selection, analysis, scenario_io, svg, cli

__all__ = [
    name for module in (core, continuous, discrete, epidemic, selection, analysis, scenario_io, svg, cli)
    for name in module.__all__
]

__version__ = "0.1.0"
