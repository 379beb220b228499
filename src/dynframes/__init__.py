"""Frame analysis for continuous-power orbits of normal operators.

The package studies families {A^t g : g in G, t in [0, L]} built from a
normal operator A on C^d: whether they span, whether they frame the space,
how the window length matters, how to replace the continuum of times by
finitely many samples, and how to recover a state from those samples.
"""

from . import errors, spectral, gram, analysis, discretize, reconstruct, catalog

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += spectral.__all__
__all__ += gram.__all__
__all__ += analysis.__all__
__all__ += discretize.__all__
__all__ += reconstruct.__all__
__all__ += catalog.__all__

# the lists come first: `from .reconstruct import *` rebinds `reconstruct` to the function
from .errors import *
from .spectral import *
from .gram import *
from .analysis import *
from .discretize import *
from .reconstruct import *
from .catalog import *

__version__ = "0.1.0"
