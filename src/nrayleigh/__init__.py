"""Outage, diversity and amount-of-fading analytics for TAS/MRC and TAS/SC
antenna selection over cascaded (n*) Rayleigh fading channels, validated by
a seeded Monte-Carlo channel simulator.

The public names are those of each library module's ``__all__``."""

from . import fading, moments, montecarlo, schemes
from .fading import *
from .moments import *
from .montecarlo import *
from .schemes import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += fading.__all__
__all__ += moments.__all__
__all__ += montecarlo.__all__
__all__ += schemes.__all__
