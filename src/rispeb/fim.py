"""Position-block Fisher information, error bounds, and resolvability.

fim_total returns the 2x2 position FIM as a plain array, and peb takes
it. The FIM is one weighted sum of outer products, made twice: over the
paths, each adding |alpha_k|^2 kernel(0) on e_k e_k^T (the direct sum),
and over the pairs k < l, each adding 2 Re{alpha_k conj(alpha_l)}
kernel(tau_k - tau_l) on e_k e_l^T (the interference), which
symmetrizing the sum halves onto e_k e_l^T + e_l e_k^T. Path gains are
treated as known constants: their dependence on position is
deliberately not exploited, matching the bound's definition. Both
broadcast over the leading axes of the PathSet's arrays: a batch of
positions and activation patterns is one (..., 2, 2) stack, made with
one kernel evaluation. Every delay is an absolute time of arrival, which
assumes the user's clock is locked to the BS's; an unknown clock offset
would add one more unknown for the same delays.

Resolvability is a count of delay clusters: paths closer than 1/W merge.
The merge is written twice, once for each size of input, and each
checks the other in the tests. count_resolvable_paths counts one
position on Python floats, a few list operations per merge, where numpy
would spend a call on each of its few entries. _count_clusters counts a
block of rows (sweep cells) at once with the sorted delays held paths
first, so each step across a row's few paths is one elementwise
operation over all rows, and each row leaves the merge loop at its first
pass without a merge. Both make the same floating-point operations in
the same order, so every count, and every aliasing error, is the same.
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
class PebValue:
    """Position error bound in meters; math.inf when the FIM is degenerate.
    Compares by value only, so a subclass's bound equals a plain one."""

    value: float

    def __eq__(self, other):
        if not isinstance(other, PebValue):
            return NotImplemented
        # The dataclass comparison, without its test of the exact class.
        return (self.value,) == (other.value,)


@functools.lru_cache(maxsize=32)
def _pairs(count: int) -> np.ndarray:
    """The index pairs k < k' of count paths as the rows (first, second)
    of a read-only (2 x pairs) array, built once per path count."""
    pairs = itertools.combinations(range(count), 2)
    pairs = np.array(list(pairs), dtype=np.intp).reshape(-1, 2).T.copy()
    pairs.flags.writeable = False
    return pairs


def _outer_sum(weights, left, right) -> np.ndarray:
    """sum_i weights_i l_i r_i^T over the last axis of weights: the l_i are
    the columns of left (..., 2, terms), the r_i the rows of right."""
    return (left * weights[..., None, :]) @ right


def fim_total(paths: PathSet, cfg: WaveformConfig) -> np.ndarray:
    """The symmetrized 2x2 position FIM, direct sum plus interference, as
    a (..., 2, 2) array. A PathSet whose arrays carry leading axes gives a
    stack of matrices over those axes, with one delay_kernel call for the
    whole stack."""
    alpha, tau, e = paths.alpha, paths.tau, paths.direction
    # C-ordered operands (np.take, not indexing) halve the products' time.
    columns = np.ascontiguousarray(np.swapaxes(e, -1, -2))
    direct = _outer_sum(np.abs(alpha) ** 2 * delay_kernel_peak(cfg), columns, e)
    # The kernel is real and even, so each pair's two ordered terms are
    # one weight 2 Re{alpha_k conj(alpha_k')} kernel(tau_k - tau_k').
    first, second = _pairs(alpha.shape[-1])
    kernel = delay_kernel(cfg, tau[..., first] - tau[..., second])
    weights = 2.0 * (alpha[..., first] * alpha[..., second].conj()).real * kernel
    interference = _outer_sum(weights, np.take(columns, first, axis=-1),
                              np.take(e, second, axis=-2))
    total = direct + interference
    return 0.5 * (total + np.swapaxes(total, -1, -2))


def peb(fim) -> PebValue:
    """sqrt(trace(J^-1)) through the closed-form 2x2 adjugate inverse.

    Takes a 2x2 FIM, such as fim_total's, or a stack of them (..., 2, 2),
    for which value is an array over the leading axes. Returns infinity
    when the symmetrized matrix has nonpositive determinant or a condition
    number beyond CONDITION_LIMIT.
    """
    j = np.asarray(fim, dtype=float)
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
    """Delays whose span covers span meters of path length, more than
    the allowed meters the delay kernel separates without aliasing; row
    is the first such row of a batch."""

    def __init__(self, span: float, allowed: float, row: int = 0):
        super().__init__(f"path lengths span {span:.6g} m, more than the "
                         f"{allowed:.6g} m the delay kernel separates without aliasing")
        self.row = row


def count_resolvable_paths(paths: PathSet, cfg: WaveformConfig) -> int:
    """Number of separable delay clusters among the nonzero-gain paths of
    one position.

    Paths closer than 1/W in delay cannot be separated. Over the sorted
    delays, the closest pair of adjacent clusters (the first such pair
    on a tie) is merged repeatedly, a cluster's delay being the mean of
    its members' delays, until every adjacent pair is at least 1/W
    apart; in 1-D the closest pair of clusters is always adjacent.
    Zero-gain paths (a missed reflector) do not exist in the channel and
    are not counted.

    The delay kernel repeats every (N+1)/W, so delays that span more than
    (N+1)/W - 1/W may alias onto each other: such path sets raise
    ValueError instead of being counted. So does a PathSet whose arrays
    carry leading axes (a batch of positions or designs): sweeps count a
    block of cells with _count_clusters, the same merge over rows.
    """
    tau, alpha = paths.tau, paths.alpha
    if tau.shape != (len(paths),) or alpha.shape != tau.shape:
        raise ValueError(f"count_resolvable_paths takes one position's {len(paths)} paths, "
                         f"not delays {tau.shape} and gains {alpha.shape}")
    delays = sorted(t for t, a in zip(tau.tolist(), alpha.tolist()) if a)
    if delays:
        span = (delays[-1] - delays[0]) * SPEED_OF_LIGHT
        allowed = unambiguous_range(cfg) - delay_resolution(cfg)
        if span > allowed:
            raise _AliasedDelays(span, allowed)
    limit = 1.0 / cfg.bandwidth_hz
    # (total, size) of each cluster; a cluster of one is its own mean.
    clusters, means = [(t, 1) for t in delays], delays
    while len(means) > 1:
        gaps = [b - a for a, b in zip(means, means[1:])]
        gap = min(gaps)
        if gap >= limit:
            break
        i = gaps.index(gap)
        (left, m), (right, n) = clusters[i:i + 2]
        clusters[i:i + 2] = [(left + right, m + n)]
        means = [total / size for total, size in clusters]
    return len(means)


def _require_unaliased(span: np.ndarray, cfg: WaveformConfig) -> None:
    """Raise _AliasedDelays naming the first row whose delay span (s), one
    entry per row, covers more path length than the delay kernel
    separates without aliasing: (N+1)/W - 1/W. A span is a row's largest
    existing delay minus its smallest."""
    span = span * SPEED_OF_LIGHT
    allowed = unambiguous_range(cfg) - delay_resolution(cfg)
    aliased = span > allowed
    if aliased.any():
        row = int(np.argmax(aliased))
        raise _AliasedDelays(span[row], allowed, row)


# Stand-in delays (s) for missing paths, 2^1000 s apart. Beyond every real
# delay and farther than 1/W from it and from each other (for any bandwidth
# above 2^-1000 Hz), they sort last and are never merged.
_MISSING_STEP = 2.0 ** 1000


def _count_clusters(tau: np.ndarray, exists: np.ndarray, cfg: WaveformConfig) -> np.ndarray:
    """count_resolvable_paths of every row of tau (rows x paths), over the
    entries where exists, for a block of cells; a row with no such entry
    counts 0. Raises _AliasedDelays, a ValueError, naming the first row
    that aliases.

    Each row is sorted once, and the sorted delays are held paths first
    (paths x rows, C-ordered): a row has only a few paths, so every step
    across them is one elementwise operation over long contiguous rows.
    A missing path sorts last as a stand-in delay that never merges
    (_MISSING_STEP), so rows with any number of paths share one layout.
    A row's span is its last existing delay minus its first, the same
    floats as max - min. Each pass merges, in every row still in the
    loop, its closest adjacent pair (the first on a tie) and shifts the
    later clusters left, so the clusters shrink by one column a pass; a
    merged cluster's total is left plus right and its delay total/size.
    Merging adjacent clusters keeps their means sorted, so no gap is
    negative and a gap needs no absolute value. A row leaves at its first
    pass without a gap below 1/W: with nothing merged it would stay as it
    is on every later pass, so dropping it changes no count. The first
    pass reads the gaps off the sorted delays (a cluster of one is its
    own mean), so a row with no gap below 1/W never builds cluster
    arrays.
    """
    width = tau.shape[1]
    ordered = np.where(exists, tau, _MISSING_STEP * np.arange(1.0, width + 1))
    ordered.sort(axis=1)
    ordered = ordered.T.copy()
    # Summed over the leading axis, like every reduction below: elementwise
    # over rows, where one over each row's few paths is several times slower.
    count = exists.T.copy().sum(axis=0)
    rows = np.arange(len(tau))
    _require_unaliased(ordered[np.maximum(count - 1, 0), rows] - ordered[0], cfg)
    limit = 1.0 / cfg.bandwidth_hz
    # Cluster totals and sizes stacked on a first axis, over the columns
    # of the rows in the loop (live).
    means, live, clusters = ordered, rows, None
    while len(means) > 1:
        gaps = means[1:] - means[:-1]
        keep = np.flatnonzero(gaps.min(axis=0) < limit)
        if not keep.size:
            break
        live = live[keep]
        count[live] -= 1
        if clusters is None:
            clusters = np.ones((2, width, keep.size))
            clusters[0] = ordered.take(keep, axis=1)
        else:
            clusters = clusters.take(keep, axis=2)
        j = gaps.take(keep, axis=1).argmin(axis=0)
        column = np.arange(len(means) - 1)[:, None]
        left, right = clusters[:, :-1], clusters[:, 1:]
        clusters = np.where(column < j, left, np.where(column == j, left + right, right))
        means = clusters[0] / clusters[1]
    return count
