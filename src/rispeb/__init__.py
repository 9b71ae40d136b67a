"""Fisher-information position error bounds for RIS-aided localization.

A base station localizes a user from downlink time-of-arrival measurements
over a line-of-sight path plus wall-mounted re-radiators: phase-controlled
reflecting surfaces, a specular reflector, or a point scatterer. The
package computes the delay-only position error bound, optimizes surface
phase profiles and activation subsets, and sweeps deployment regions.
"""

from .allocation import build_allocation, select_ris
from .channel import build_pathset
from .config import default_config
from .fim import fim_total, peb

__version__ = "0.1.0"

__all__ = ["build_allocation", "build_pathset", "default_config", "fim_total", "peb",
           "select_ris"]
