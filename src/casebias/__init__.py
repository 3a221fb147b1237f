"""Error calculus for epidemic case counts under selective testing.

Exact finite-population error decompositions, effective-sample-size bounds,
SIR-driven bias predictions for rate-of-change and reproduction-number
estimators, cross-population comparison statistics, survey-anchored
data-quality inversion, stratified design, and a seeded Monte Carlo engine
that brute-forces every analytic identity.
"""

# Each module's __all__ is the one list of its public names.
from .population import *
from .decomposition import *
from .effsize import *
from .epidemic import *
from .estimators import *
from .compare import *
from .sampling import *
from .series import *

__version__ = "0.1.0"
