"""Statistical domain-alignment losses and measurement-only discrepancies.

The training losses (mean matching, covariance matching, higher-order
moment matching and the combined form) differentiate through the tape:
the first three are one tape node each, whose forward runs in plain
numpy and whose backward is the closed form in its docstring.  The
combined form is the sum of two such nodes.  Higher-order moment
matching is the biased MMD^2 under the polynomial kernel
(x . y)^p = <x^(x)p, y^(x)p>, summed from the pooled batch Gram matrix;
it may come out a few ulp below zero (not clamped).
The RBF-kernel MMD and the sliced Wasserstein distance are measurement
statistics for post-hoc reports and work on plain arrays; they check their
inputs as the training losses do, so non-finite features raise DomainError.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateBatchError, DomainError, ShapeError
from .tensor import _accumulate, _node, as_tensor

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
    the value exactly zero on identical batches.  One tape node:
    d/d src = 2 (d out/d s) gap / n on every row, and -... / m for the
    target, with d out/d s = 1 / (2 sqrt(s)), or 1e6 on the clip branch.
    """
    src, tgt = _check_features(src, tgt)
    n, m = src.shape[0], tgt.shape[0]
    gap = src.data.sum(axis=0) * (1.0 / n) - tgt.data.sum(axis=0) * (1.0 / m)
    sq = (gap * gap).sum()
    unclipped = sq >= 1e-12
    root = np.sqrt(np.maximum(sq, 1e-12))

    def bwd(g):
        step = (2.0 * g * (1.0 - 0.5 * unclipped) / root) * gap
        _accumulate(src, np.broadcast_to(step * (1.0 / n), src.shape).copy())
        _accumulate(tgt, np.broadcast_to(step * (-1.0 / m), tgt.shape).copy())

    return _node(sq / root, (src, tgt), bwd, "mmd_linear")


def coral(src, tgt):
    """Squared Frobenius gap of unbiased covariances, scaled by 1/(4 d^2).

    One tape node: with diff = cov(src) - cov(tgt) and Xc the centered
    rows, d/d src = g Xc diff / (d^2 (n - 1)), and the negative over
    (m - 1) for the target (centering drops out: the rows of Xc sum to 0).
    """
    src, tgt = _check_features(src, tgt, min_rows=2)
    d = src.shape[1]
    centered, covs = [], []
    for x in (src.data, tgt.data):
        xc = x - x.sum(axis=0, keepdims=True) * (1.0 / x.shape[0])
        centered.append(xc)
        # the transposed copy keeps the rounding of the tensor-primitive
        # form the tests compare against: numpy sends xc.T @ xc, a view
        # times its own base, to another BLAS routine
        covs.append(xc.T.copy() @ xc * (1.0 / (x.shape[0] - 1)))
    diff = covs[0] - covs[1]

    def bwd(g):
        scale = g / (d * d)
        _accumulate(src, centered[0] @ diff * (scale / (src.shape[0] - 1)))
        _accumulate(tgt, centered[1] @ diff * (-scale / (tgt.shape[0] - 1)))

    return _node((diff * diff).sum() * (1.0 / (4.0 * d * d)), (src, tgt), bwd, "coral")


def homm(src, tgt, order=3):
    """Higher-order moment matching: ||mean x^(x)p - mean y^(x)p||^2 / d^p.

    That squared gap is the biased MMD^2 under the kernel (x . y)^p, so it
    is summed from the p-th power of the pooled Gram matrix X X^T, weighted
    1/n^2 on the source block, 1/m^2 on the target block and -1/(n m) on
    the cross blocks; besides the stacked input no array is larger than
    (n+m)^2.  On identical batches the value can come out a few ulp below
    zero; it is not clamped, because a clamp would change the gradient.
    One tape node: d/d X = (2 p g / d^p) (gram^(p-1) o W) X, split by rows.
    """
    src, tgt = _check_features(src, tgt)
    if order < 1:
        raise ConfigError("homm needs order >= 1")
    n, m = src.shape[0], tgt.shape[0]
    weights = np.full((n + m, n + m), -1.0 / (n * m))
    weights[:n, :n] = 1.0 / (n * n)
    weights[n:, n:] = 1.0 / (m * m)
    pooled = np.concatenate([src.data, tgt.data], axis=0)
    gram = pooled @ pooled.T.copy()  # the copy: see `coral`
    scale = 1.0 / src.shape[1] ** order

    def bwd(g):
        grad = (gram ** (order - 1.0) * weights) @ pooled * (2.0 * order * g * scale)
        _accumulate(src, grad[:n])
        _accumulate(tgt, grad[n:])

    return _node((gram ** float(order) * weights).sum() * scale, (src, tgt), bwd, "homm")


def mmda(src, tgt):
    """Mean matching plus covariance matching, equal weights."""
    return mmd_linear(src, tgt) + coral(src, tgt)


LOSSES = {"ddc": mmd_linear, "coral": coral, "homm": homm, "mmda": mmda}
METHODS = ("noadapt",) + tuple(LOSSES)


def alignment_loss(method, src, tgt):
    """Dispatch a training alignment loss by its method tag."""
    if method not in LOSSES:
        raise ConfigError(f"no alignment loss for method {method!r}")
    return LOSSES[method](src, tgt)


# -- measurement statistics (plain numpy) ---------------------------------------


def _pooled_sq_dists(src, tgt):
    """Squared distances between all rows of `src` stacked over `tgt`."""
    pooled = np.vstack([src, tgt])
    norms = (pooled * pooled).sum(axis=1)
    sq = norms[:, None] + norms[None, :]
    cross = pooled @ pooled.T
    cross *= 2.0
    sq -= cross
    return np.maximum(sq, 0.0, out=sq)


def _median_bandwidths(sq):
    """The median heuristic from the pooled squared distances `sq`: one copy
    of the off-diagonal entries (a strided view that skips each diagonal
    step), partitioned in place.  Only the middle two get a square root,
    which gives np.median's rooted value bit for bit: sqrt is monotone."""
    n = len(sq)
    off = sq.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].reshape(-1)
    median = 0.0
    if off.size:  # n (n - 1) entries, an even count
        mid = off.size // 2
        off.partition((mid - 1, mid))
        median = float((np.sqrt(off[mid - 1]) + np.sqrt(off[mid])) / 2)
    if median <= 0.0:
        median = 1.0
    return [median * s for s in DEFAULT_BANDWIDTH_SCALES]


def mmd_rbf(src, tgt, bandwidths=None):
    """Biased V-statistic MMD^2 under Gaussian kernels, summed over bandwidths;
    one pooled distance matrix serves the median heuristic and all blocks."""
    return _mmd_rbf(src, tgt, bandwidths)[0]


def _mmd_rbf(src, tgt, bandwidths=None):
    """`mmd_rbf` and the bandwidths it used, as (value, [float])."""
    a, b = (t.data for t in _check_features(src, tgt))
    sq = _pooled_sq_dists(a, b)
    if bandwidths is None:
        bandwidths = _median_bandwidths(sq)
    bandwidths = [float(w) for w in bandwidths]
    if not bandwidths:
        raise ConfigError("mmd_rbf needs a non-empty bandwidth list")
    if any(w <= 0 for w in bandwidths):
        raise ConfigError("bandwidths must be positive")
    n = len(a)
    d_ss, d_tt, d_st = sq[:n, :n], sq[n:, n:], sq[:n, n:]
    total = 0.0
    for width in bandwidths:
        scale = -0.5 / (width * width)
        total += (np.exp(scale * d_ss).mean()
                  + np.exp(scale * d_tt).mean()
                  - 2.0 * np.exp(scale * d_st).mean())
    return max(float(total), 0.0), bandwidths


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
    a, b = (t.data for t in _check_features(src, tgt))
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
