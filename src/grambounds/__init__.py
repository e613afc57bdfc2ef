"""Gram-matrix bounds on inner-product sums.

Evaluate a family of upper bounds on Σ|(x, y_i)|², ‖Σ α_i y_i‖², and
|Σ c_i (x, y_i)|² over real or complex coordinate spaces, verify them in
batch on random inputs, and compare the tightness of the classical
row-sum bound against the power-mean bound.
"""

from . import bounds, compare, core, errors, norms, verify
from .bounds import *  # noqa: F401,F403
from .compare import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .norms import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *(name for m in (errors, core, norms, bounds, compare, verify) for name in m.__all__)]
