"""Author-productivity power laws for bibliographic corpora.

Count papers per author from publication records, fit the inverse power
law y = C / x**n, test the fit with Kolmogorov-Smirnov statistics,
summarize collaboration patterns, and generate synthetic corpora with
known exponents.

Each module's ``__all__`` is its public surface; the package re-exports
all of them, so a public name is declared in one place.
"""

from . import collab, corpus, gof, lotka, synth
from .collab import *
from .corpus import *
from .errors import DataError, LotkaLawError, NumericError
from .gof import *
from .lotka import *
from .synth import *

__version__ = "0.1.0"

__all__ = ["DataError", "LotkaLawError", "NumericError", "__version__"]
__all__ += collab.__all__
__all__ += corpus.__all__
__all__ += gof.__all__
__all__ += lotka.__all__
__all__ += synth.__all__
