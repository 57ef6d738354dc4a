"""Log-gamma family special functions, vectorized over float64 arrays.

Each function uses the Stirling-type asymptotic expansion above a cutoff
and climbs smaller arguments up with the recurrence for that function.
Accuracy on [1e-3, 1e6] is ~1e-13 absolute for moderate values and a few
ulp in the large-argument regime where float64 spacing dominates.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_CUTOFF = 10.0
# upward recurrence steps needed to push 1e-3 past the cutoff
_MAX_SHIFTS = 10

_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)

# B_{2n} / (2n (2n-1)) for the lnGamma series in x^{-(2n-1)}
_LGAMMA_TERMS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

# B_{2n} / (2n) for the digamma series in x^{-2n}
_DIGAMMA_TERMS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)

# B_{2n} for the trigamma series in x^{-(2n+1)}
_TRIGAMMA_TERMS = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
)


def _validated(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{name} requires positive finite arguments")
    return arr


def _poly_in_inverse_square(z, coeffs):
    # evaluates sum coeffs[n] * r^n with r = 1/z^2, Horner order
    r = 1.0 / (z * z)
    acc = np.zeros_like(z)
    for c in reversed(coeffs):
        acc = (acc + c) * r
    return acc


def lgamma(x):
    """Natural log of the Gamma function for positive arguments."""
    arr = _validated(x, "lgamma")
    z = np.atleast_1d(arr).copy()
    shift = np.zeros_like(z)
    for _ in range(_MAX_SHIFTS):
        low = z < _CUTOFF
        if not low.any():
            break
        shift[low] += np.log(z[low])
        z[low] += 1.0
    out = (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI
    out += _poly_in_inverse_square(z, _LGAMMA_TERMS) * z
    out -= shift
    return out.reshape(arr.shape) if arr.ndim else float(out[0])


def digamma(x):
    """Logarithmic derivative of Gamma for positive arguments."""
    arr = _validated(x, "digamma")
    z = np.atleast_1d(arr).copy()
    shift = np.zeros_like(z)
    for _ in range(_MAX_SHIFTS):
        low = z < _CUTOFF
        if not low.any():
            break
        shift[low] += 1.0 / z[low]
        z[low] += 1.0
    out = np.log(z) - 0.5 / z - _poly_in_inverse_square(z, _DIGAMMA_TERMS)
    out -= shift
    return out.reshape(arr.shape) if arr.ndim else float(out[0])


def trigamma(x):
    """Derivative of digamma; backs the gradient of digamma-bearing losses."""
    arr = _validated(x, "trigamma")
    z = np.atleast_1d(arr).copy()
    shift = np.zeros_like(z)
    for _ in range(_MAX_SHIFTS):
        low = z < _CUTOFF
        if not low.any():
            break
        shift[low] += 1.0 / (z[low] * z[low])
        z[low] += 1.0
    out = 1.0 / z + 0.5 / (z * z) + _poly_in_inverse_square(z, _TRIGAMMA_TERMS) / z
    out += shift
    return out.reshape(arr.shape) if arr.ndim else float(out[0])
