"""Central finite differences: every difference quotient in conedeform is
formed here.

richardson=True replaces each difference d(h) by (4 d(h/2) - d(h)) / 3,
raising the truncation order from 2 to 4.  Points and steps are scalars
or arrays (a step per point).  At scalar points f is called once per
stencil point and may return a number or a matrix; at array points f must
be vectorized, and it is called once on the whole stencil, concatenated.
"""

from __future__ import annotations

import numpy as np


def _check_step(h):
    h = np.asarray(h, dtype=float)
    bad = h[~(np.isfinite(h) & (h > 0))]
    if bad.size:
        raise ValueError("finite-difference step must be finite and "
                         f"positive, got {bad[0]:g}")


def _at(f, points):
    """f at each stencil point; one call on the stacked points for arrays."""
    if np.ndim(points[0]) == 0:
        return [f(p) for p in points]
    shape = np.shape(points[0])
    vals = f(np.concatenate([np.ravel(p) for p in points]))
    return np.reshape(vals, (len(points),) + shape)


def _extrapolate(d, h, richardson):
    """d(h), or (4 d(h/2) - d(h)) / 3 for each difference d returns."""
    if not richardson:
        return d(h)
    return tuple((4 * a - b) / 3 for a, b in zip(d(h / 2), d(h)))


def _central(f, w, h, units):
    """(f(w + u h) - f(w - u h)) / (2 h) for each direction u in units."""
    vals = _at(f, [p for u in units for p in (w + u * h, w - u * h)])
    return tuple((vals[2 * i] - vals[2 * i + 1]) / (2 * h)
                 for i in range(len(units)))


def _wirtinger(f, w, h, richardson):
    fx, fy = _extrapolate(lambda h: _central(f, w, h, (1, 1j)), h, richardson)
    return 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


def second(f, x, h, richardson=True):
    """Central second difference d^2f/dx^2 at x, along the real axis."""
    _check_step(h)

    def d(h):
        fp, f0, fm = _at(f, [x + h, x, x - h])
        return ((fp - 2 * f0 + fm) / (h * h),)

    return _extrapolate(d, h, richardson)[0]


def wirtinger(f, w, h, richardson=True):
    """(df/dw, df/dwbar) at w of f: C -> C^k, from central differences
    along the real and imaginary axes."""
    _check_step(h)
    return _wirtinger(f, w, h, richardson)


def mixed_wirtinger(f, w, v, h, richardson=True):
    """d^2f/dw dvbar at (w, v) of f(w, v): d/dw of the d/dvbar difference."""
    _check_step(h)

    def dbar_v(s):
        return _wirtinger(lambda u: f(s, u), v, h, richardson)[1]

    return _wirtinger(dbar_v, w, h, richardson)[0]
