"""Statistical domain-alignment losses and measurement-only discrepancies.

The training losses (mean matching, covariance matching, higher-order
moment matching and the combined form) are differentiable through the
tape.  The RBF-kernel MMD and the sliced Wasserstein distance are
measurement statistics for post-hoc reports and work on plain arrays.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from .errors import (
    ConfigError,
    DegenerateBatchError,
    DomainError,
    ResourceGuardError,
    ShapeError,
)
from .tensor import Tensor, as_tensor

METHODS = ("noadapt", "ddc", "coral", "homm", "mmda")

# moment order above which a wide feature's outer-product tensor explodes
_HOMM_FEATURE_LIMIT = 16

DEFAULT_BANDWIDTH_SCALES = (0.5, 1.0, 2.0)
DEFAULT_NUM_PROJECTIONS = 50


def _check_features(src, tgt, min_rows=1):
    src, tgt = as_tensor(src), as_tensor(tgt)
    if src.ndim != 2 or tgt.ndim != 2:
        raise ShapeError("feature batches must be [N, F]")
    if src.shape[1] != tgt.shape[1]:
        raise ShapeError(
            f"feature widths differ: {src.shape[1]} vs {tgt.shape[1]}"
        )
    if src.shape[0] < min_rows or tgt.shape[0] < min_rows:
        raise DegenerateBatchError(f"need at least {min_rows} samples per batch")
    if not (np.all(np.isfinite(src.data)) and np.all(np.isfinite(tgt.data))):
        raise DomainError("feature batches must be finite")
    return src, tgt


def mmd_linear(src, tgt):
    """Euclidean distance between feature means (the DDC-style loss).

    Computed as s / sqrt(max(s, 1e-12)) with s the squared distance, which
    equals the norm whenever s >= 1e-12 yet keeps the gradient finite and
    the value exactly zero on identical batches.
    """
    src, tgt = _check_features(src, tgt)
    gap = src.mean(axis=0) - tgt.mean(axis=0)
    sq = (gap * gap).sum()
    return sq / tz.clip_min(sq, 1e-12) ** 0.5


def _covariance(features):
    n = features.shape[0]
    centered = features - features.mean(axis=0, keepdims=True)
    return tz.matmul(centered.transpose(), centered) * (1.0 / (n - 1))


def coral(src, tgt):
    """Squared Frobenius gap of unbiased covariances, scaled by 1/(4 d^2)."""
    src, tgt = _check_features(src, tgt, min_rows=2)
    d = src.shape[1]
    diff = _covariance(src) - _covariance(tgt)
    return (diff * diff).sum() * (1.0 / (4.0 * d * d))


def _mean_outer_moment(features, order):
    n, width = features.shape
    moment = features
    for level in range(2, order + 1):
        lhs = moment.reshape(moment.shape + (1,))
        rhs = features.reshape((n,) + (1,) * (level - 1) + (width,))
        moment = lhs * rhs
    return moment.mean(axis=0)


def homm(src, tgt, order=3):
    """Higher-order moment matching on p-fold outer-product tensors."""
    src, tgt = _check_features(src, tgt)
    if order < 1:
        raise ConfigError("homm needs order >= 1")
    width = src.shape[1]
    if order >= 4 and width > _HOMM_FEATURE_LIMIT:
        raise ResourceGuardError(
            f"homm with order {order} on width {width} would allocate "
            f"{width}^{order} entries"
        )
    diff = _mean_outer_moment(src, order) - _mean_outer_moment(tgt, order)
    return (diff * diff).sum() * (1.0 / width ** order)


def mmda(src, tgt):
    """Mean matching plus covariance matching, equal weights."""
    return mmd_linear(src, tgt) + coral(src, tgt)


def alignment_loss(method, src, tgt):
    """Dispatch a training alignment loss by its method tag."""
    if method == "ddc":
        return mmd_linear(src, tgt)
    if method == "coral":
        return coral(src, tgt)
    if method == "homm":
        return homm(src, tgt)
    if method == "mmda":
        return mmda(src, tgt)
    raise ConfigError(f"no alignment loss for method {method!r}")


# -- measurement statistics (plain numpy) ---------------------------------------


def _as_array(features):
    arr = features.data if isinstance(features, Tensor) else np.asarray(features, float)
    if arr.ndim != 2:
        raise ShapeError("feature batches must be [N, F]")
    return arr


def _pairwise_sq_dists(a, b):
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def median_heuristic_bandwidths(src, tgt, scales=DEFAULT_BANDWIDTH_SCALES):
    """Median pairwise distance over the pooled sample, scaled by `scales`."""
    pooled = np.vstack([_as_array(src), _as_array(tgt)])
    dists = np.sqrt(_pairwise_sq_dists(pooled, pooled))
    off_diag = dists[~np.eye(len(pooled), dtype=bool)]
    median = float(np.median(off_diag)) if off_diag.size else 0.0
    if median <= 0.0:
        median = 1.0
    return [median * s for s in scales]


def mmd_rbf(src, tgt, bandwidths=None):
    """Biased V-statistic MMD^2 under Gaussian kernels, summed over bandwidths."""
    a, b = _as_array(src), _as_array(tgt)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"feature widths differ: {a.shape[1]} vs {b.shape[1]}")
    if bandwidths is None:
        bandwidths = median_heuristic_bandwidths(a, b)
    bandwidths = [float(w) for w in bandwidths]
    if not bandwidths:
        raise ConfigError("mmd_rbf needs a non-empty bandwidth list")
    if any(w <= 0 for w in bandwidths):
        raise ConfigError("bandwidths must be positive")
    d_ss = _pairwise_sq_dists(a, a)
    d_tt = _pairwise_sq_dists(b, b)
    d_st = _pairwise_sq_dists(a, b)
    total = 0.0
    for width in bandwidths:
        scale = -0.5 / (width * width)
        total += (np.exp(scale * d_ss).mean()
                  + np.exp(scale * d_tt).mean()
                  - 2.0 * np.exp(scale * d_st).mean())
    return max(total, 0.0)


def _quantile_coupling_w1(a_sorted, b_sorted):
    na, nb = len(a_sorted), len(b_sorted)
    if na == nb:
        return float(np.abs(a_sorted - b_sorted).mean())
    grid_n = max(na, nb)
    grid = (np.arange(grid_n) + 0.5) / grid_n
    qa = np.interp(grid, (np.arange(na) + 0.5) / na, a_sorted)
    qb = np.interp(grid, (np.arange(nb) + 0.5) / nb, b_sorted)
    return float(np.abs(qa - qb).mean())


def sliced_wd(src, tgt, n_projections=DEFAULT_NUM_PROJECTIONS, rng=None):
    """Sliced 1-D Wasserstein-1 averaged over random unit directions.

    Each projection's distance comes from the sorted-sample quantile
    coupling, interpolated linearly when the batch sizes differ.
    """
    a, b = _as_array(src), _as_array(tgt)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"feature widths differ: {a.shape[1]} vs {b.shape[1]}")
    if n_projections < 1:
        raise ConfigError("sliced_wd needs n_projections >= 1")
    if rng is None:
        raise ConfigError("sliced_wd needs a seeded generator")
    directions = rng.standard_normal((n_projections, a.shape[1]))
    norms = np.maximum(np.linalg.norm(directions, axis=1, keepdims=True), 1e-30)
    directions /= norms
    total = 0.0
    for direction in directions:
        pa = np.sort(a @ direction)
        pb = np.sort(b @ direction)
        total += _quantile_coupling_w1(pa, pb)
    return total / n_projections
