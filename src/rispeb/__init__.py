"""Fisher-information position error bounds for RIS-aided localization.

A base station localizes a user from downlink time-of-arrival measurements
over a line-of-sight path plus wall-mounted re-radiators: phase-controlled
reflecting surfaces, a specular reflector, or a point scatterer. The
package computes the delay-only position error bound, optimizes surface
phase profiles and activation subsets, and sweeps deployment regions.
"""

from .allocation import (
    MAX_EXHAUSTIVE_RIS,
    Allocation,
    SelectionConstraints,
    build_allocation,
    d_min,
    feasible_activations,
    gap_threshold,
    optimal_phases,
    robust_select,
    select_ris,
)
from .channel import (
    MODES,
    Path,
    PathSet,
    build_pathset,
    gain_los,
    gain_reflector,
    gain_ris,
    gain_scatter,
)
from .config import (
    ConfigError,
    RunConfig,
    default_config,
    dump_config,
    dumps_config,
    load_config,
    loads_config,
)
from .fim import (
    Fim2,
    PebValue,
    count_resolvable_paths,
    fim_direct,
    fim_interference,
    fim_numerical,
    fim_total,
    peb,
)
from .geometry import (
    BS_POSITION,
    SPEED_OF_LIGHT,
    DegeneratePositionError,
    ReflectorDescriptor,
    RisDescriptor,
    ScatterDescriptor,
    Scene,
    incidence_point,
    ris_angles,
    ris_center,
    scatter_position,
    virtual_anchor,
)
from .sweep import (
    DEFAULT_PEB_CAP,
    CdfResult,
    GridSpec,
    MapResult,
    info_directions,
    path_count_map,
    peb_cdf,
    peb_map,
    write_cdf_csv,
    write_map_csv,
)
from .waveform import (
    THERMAL_NOISE_PSD,
    WaveformConfig,
    delay_kernel,
    delay_kernel_peak,
    delay_resolution,
    noise_psd_from_figure,
    unambiguous_range,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
