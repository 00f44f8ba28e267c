"""Precision-weighted fusion of paired LVEF measurements with survival
uncertainty propagation.

The package combines a cardiologist's visual LVEF reading with the Simpson's
biplane measurement by inverse-error weighting, calibrates the instrument
error figures by exact posterior sampling, and propagates measurement noise
through stratified Kaplan-Meier and Cox analyses as replicate credible bands.
"""

from . import (
    calibration,
    cohort,
    errors,
    fusion,
    propagation,
    report,
    simulate,
    stochastics,
    survival,
)

# Each module's __all__ is its share of the package API.  The list is built
# before the star imports, because `from .simulate import *` rebinds the name
# `simulate` from the module to the function.
__all__ = [
    "__version__",
    *calibration.__all__,
    *cohort.__all__,
    *errors.__all__,
    *fusion.__all__,
    *propagation.__all__,
    *report.__all__,
    *simulate.__all__,
    *stochastics.__all__,
    *survival.__all__,
]

from .calibration import *
from .cohort import *
from .errors import *
from .fusion import *
from .propagation import *
from .report import *
from .report import TOOL_VERSION as __version__
from .simulate import *
from .stochastics import *
from .survival import *
