"""Position-block Fisher information, error bounds, and resolvability.

The 2x2 position FIM splits into a direct part (each path contributes
information |alpha|^2 * kernel(0) along its own direction) and an
interference part coupling every pair of paths through the kernel at
their delay difference. Path gains are treated as known constants: their
dependence on position is deliberately not exploited, matching the
bound's definition. fim_total and peb broadcast over the leading axes
of the PathSet's arrays, so a batch of positions and activation
patterns is one call with one kernel evaluation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import PathSet
from .geometry import SPEED_OF_LIGHT
from .waveform import (
    WaveformConfig,
    delay_kernel,
    delay_kernel_peak,
    delay_resolution,
    unambiguous_range,
)

# A 2x2 information matrix with a condition number beyond this is treated
# as rank-deficient: the weak direction carries no usable information.
CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class Fim2:
    """2x2 position FIM with its direct/interference provenance split."""

    direct: np.ndarray
    interference: np.ndarray
    total: np.ndarray  # symmetrized sum of the two parts


@dataclass(frozen=True)
class PebValue:
    """Position error bound in meters; math.inf when the FIM is degenerate."""

    value: float


def _direct(alpha, directions, cfg: WaveformConfig) -> np.ndarray:
    weights = np.abs(alpha) ** 2 * delay_kernel_peak(cfg)
    return (np.swapaxes(directions, -1, -2) * weights[..., None, :]) @ directions


@functools.lru_cache(maxsize=32)
def _pairs(count: int) -> np.ndarray:
    """The index pairs k < k' of count paths as the rows (first, second)
    of a read-only (2 x pairs) array, built once per path count."""
    pairs = itertools.combinations(range(count), 2)
    pairs = np.array(list(pairs), dtype=np.intp).reshape(-1, 2).T.copy()
    pairs.flags.writeable = False
    return pairs


def _interference(alpha, tau, directions, cfg: WaveformConfig) -> np.ndarray:
    # Sum over ordered pairs k != k' of
    # Re{alpha_k * conj(alpha_k')} * kernel(tau_k - tau_k') * e_k e_k'^T.
    # The kernel is real and even, so the summand is symmetric in the
    # pair: the kernel is evaluated on the pairs k < k' only.
    first, second = _pairs(alpha.shape[-1])
    kernel = delay_kernel(cfg, tau[..., first] - tau[..., second])
    upper = (alpha[..., first] * alpha[..., second].conj()).real * kernel
    cross = np.zeros(upper.shape[:-1] + (alpha.shape[-1],) * 2)
    cross[..., first, second] = upper
    cross[..., second, first] = upper
    return np.swapaxes(directions, -1, -2) @ cross @ directions


def fim_total(paths: PathSet, cfg: WaveformConfig) -> Fim2:
    """Direct plus interference FIM. A PathSet whose arrays carry leading
    axes gives a stack of 2x2 matrices over those axes, with one delay_kernel
    call for the whole stack."""
    direct = _direct(paths.alpha, paths.direction, cfg)
    interference = _interference(paths.alpha, paths.tau, paths.direction, cfg)
    total = direct + interference
    return Fim2(direct=direct, interference=interference,
                total=0.5 * (total + np.swapaxes(total, -1, -2)))


def peb(fim) -> PebValue:
    """sqrt(trace(J^-1)) through the closed-form 2x2 adjugate inverse.

    Accepts a Fim2 or a raw 2x2 array, or a stack of them (..., 2, 2), for
    which value is an array over the leading axes. Returns infinity when
    the symmetrized matrix has nonpositive determinant or a condition
    number beyond CONDITION_LIMIT.
    """
    j = fim.total if isinstance(fim, Fim2) else np.asarray(fim, dtype=float)
    a = j[..., 0, 0]
    d = j[..., 1, 1]
    b = 0.5 * (j[..., 0, 1] + j[..., 1, 0])
    det = a * d - b * b
    trace = a + d
    # Symmetric 2x2 eigenvalues; the small one via det for numerical safety.
    lam_max = 0.5 * (trace + np.hypot(a - d, 2.0 * b))
    with np.errstate(divide="ignore", invalid="ignore"):
        lam_min = det / lam_max
        deficient = (det <= 0.0) | (trace <= 0.0) | (lam_max > CONDITION_LIMIT * lam_min)
        value = np.where(deficient, math.inf, np.sqrt(trace / det))
    return PebValue(float(value) if value.ndim == 0 else value)


class _AliasedDelays(ValueError):
    """Delays spanning more than the kernel separates; row is the first
    such row of the batch."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def count_resolvable_paths(paths: PathSet, cfg: WaveformConfig) -> int:
    """Number of separable delay clusters among the nonzero-gain paths.

    Paths closer than 1/W in delay cannot be separated. Over the sorted
    delays, the closest pair of adjacent clusters (the first such pair
    on a tie) is merged repeatedly, a cluster's delay being the mean of
    its members' delays, until every adjacent pair is at least 1/W
    apart; in 1-D the closest pair of clusters is always adjacent.
    Zero-gain paths (a missed reflector) do not exist in the channel and
    are not counted.

    The delay kernel repeats every (N+1)/W, so delays that span more than
    (N+1)/W - 1/W may alias onto each other: such path sets raise
    ValueError instead of being counted. Sweeps count whole blocks of
    cells at once through the same merge.
    """
    return int(_count_clusters(paths.tau[None], (paths.alpha != 0)[None], cfg)[0])


def _require_unaliased(tau: np.ndarray, exists: np.ndarray, cfg: WaveformConfig) -> None:
    """Raise _AliasedDelays naming the first row of tau (rows x paths)
    whose delays, over the entries where exists, span more path length
    than the delay kernel separates without aliasing: (N+1)/W - 1/W."""
    # -inf for a row where no path exists.
    span = (np.where(exists, tau, -np.inf).max(axis=1)
            - np.where(exists, tau, np.inf).min(axis=1)) * SPEED_OF_LIGHT
    allowed = unambiguous_range(cfg) - delay_resolution(cfg)
    aliased = span > allowed
    if aliased.any():
        row = int(np.argmax(aliased))
        raise _AliasedDelays(f"path lengths span {span[row]:.6g} m, more than the "
                             f"{allowed:.6g} m the delay kernel separates without aliasing",
                             row)


def _count_clusters(tau: np.ndarray, exists: np.ndarray, cfg: WaveformConfig) -> np.ndarray:
    """count_resolvable_paths of every row of tau (rows x paths), over the
    entries where exists; a row with no such entry counts 0. Raises
    _AliasedDelays, a ValueError, naming the first row that aliases."""
    _require_unaliased(tau, exists, cfg)
    count = exists.sum(axis=1)
    ordered = np.sort(np.where(exists, tau, np.inf), axis=1)
    # Cluster totals and sizes in sorted order, stacked on a first axis,
    # the first count of each row in use; merging the pair (j, j+1)
    # shifts the later ones left. The columns past count only need a
    # finite total and a nonzero size (their gaps are masked): they start
    # at total 0, size 1, and the last column shifts onto itself. Merging
    # adjacent clusters keeps their means sorted, so the gaps in use are
    # never negative.
    column = np.arange(tau.shape[1])
    clusters = np.ones((2,) + tau.shape)
    clusters[0] = np.where(column < count[:, None], ordered, 0.0)
    following = np.minimum(column + 1, tau.shape[1] - 1)
    rows = np.arange(len(tau))
    limit = 1.0 / cfg.bandwidth_hz
    while tau.shape[1] > 1:
        means = clusters[0] / clusters[1]
        gaps = means[:, 1:] - means[:, :-1]
        gaps[column[1:] >= count[:, None]] = np.inf
        j = np.argmin(gaps, axis=1)
        merge = gaps[rows, j] < limit
        if not merge.any():
            break
        j = np.where(merge, j, tau.shape[1])[:, None]
        later = clusters[..., following]
        clusters = np.where(column < j, clusters,
                            np.where(column == j, clusters + later, later))
        count = count - merge
    return count
