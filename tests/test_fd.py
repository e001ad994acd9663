import math

import numpy as np
import pytest

from conedeform import fd


# ---------------------------------------------------------------------------
# oracles: polynomials in (w, wbar) with known derivatives.  A central
# difference is exact on quadratics, and with Richardson on quartics, so
# only roundoff (~ eps |f| / h) remains.


def quadratic(w):
    return 2 * w * w - 3j * w * np.conj(w) + (1 - 1j) * np.conj(w) ** 2 + w


def quartic(w):
    wb = np.conj(w)
    return w ** 4 + 2 * w ** 3 * wb - 1j * w * wb ** 3 + 0.5 * wb ** 2


POINTS = [0.3 - 0.7j, -1.2 + 0.4j, 0.05j]


def _first(f, x, h, richardson=True):
    """Central difference df/dx at x, along the real axis, from the stencil
    layer's own pieces (no caller in conedeform needs the 1-D first
    derivative)."""
    fd._check_step(h)
    return fd._extrapolate(lambda h: fd._central(f, x, h, (1,)), h,
                           richardson)[0]


@pytest.mark.parametrize("w", POINTS)
def test_wirtinger_quadratic_plain(w):
    wb = np.conj(w)
    dw, dwb = fd.wirtinger(quadratic, w, 1e-3, richardson=False)
    assert abs(dw - (4 * w - 3j * wb + 1)) < 1e-10
    assert abs(dwb - (-3j * w + 2 * (1 - 1j) * wb)) < 1e-10


@pytest.mark.parametrize("w", POINTS)
def test_wirtinger_quartic_richardson(w):
    wb = np.conj(w)
    dw, dwb = fd.wirtinger(quartic, w, 1e-2)
    assert abs(dw - (4 * w ** 3 + 6 * w ** 2 * wb - 1j * wb ** 3)) < 1e-10
    assert abs(dwb - (2 * w ** 3 - 3j * w * wb ** 2 + wb)) < 1e-10


@pytest.mark.parametrize("w, v", [(0.3 - 0.7j, 0.2 + 0.1j),
                                  (-0.5 + 0.4j, -0.9j)])
def test_mixed_wirtinger_polynomial(w, v):
    def f(w, v):
        vb = np.conj(v)
        return w ** 2 * vb ** 2 + 3 * w * vb - 2j * np.conj(w) * v + vb

    want = 4 * w * np.conj(v) + 3
    assert abs(fd.mixed_wirtinger(f, w, v, 1e-2) - want) < 1e-10
    # d/dw and d/dvbar of the same variable: the Laplacian / 4
    g = lambda w, v: quadratic(w + v)
    assert abs(fd.mixed_wirtinger(g, w, 0.0, 1e-2) - (-3j)) < 1e-10


def test_first_and_second_polynomial():
    p = lambda x: 2 * x ** 4 - x ** 3 + 0.5 * x
    x = 0.7
    assert abs(_first(p, x, 1e-2) - (8 * x ** 3 - 3 * x ** 2 + 0.5)) < 1e-10
    assert abs(fd.second(p, x, 1e-2) - (24 * x ** 2 - 6 * x)) < 1e-10
    q = lambda x: 3 * x * x - x
    assert abs(_first(q, x, 1e-3, richardson=False) - (6 * x - 1)) < 1e-10
    assert abs(fd.second(q, x, 1e-2, richardson=False) - 6) < 1e-10


# ---------------------------------------------------------------------------
# measured order on exp: truncation ~ h^2 plain, ~ h^4 with Richardson


def _order(error, h):
    return math.log(error(h) / error(h / 2)) / math.log(2)


@pytest.mark.parametrize("richardson, p", [(False, 2), (True, 4)])
def test_measured_order_on_exp(richardson, p):
    x = 0.3
    first = lambda h: abs(_first(math.exp, x, h, richardson) - math.exp(x))
    second = lambda h: abs(fd.second(math.exp, x, h, richardson) - math.exp(x))
    # not holomorphic: for holomorphic f the h^2 terms of d/dw cancel
    g = lambda w: np.exp(w + 2 * np.conj(w))
    w = 0.3 + 0.2j
    wirt = lambda h: abs(fd.wirtinger(g, w, h, richardson)[0] - g(w))
    for error in (first, second, wirt):
        assert abs(_order(error, 0.1) - p) < 0.1


# ---------------------------------------------------------------------------
# array points, per-point steps


def test_array_points_per_point_steps():
    w = np.array([0.3 - 0.7j, -1.2 + 0.4j, 0.05j, 2.0])
    h = 1e-2 * np.array([1.5, 2.0, 0.5, 4.0])
    calls = []

    def f(pts):
        calls.append(pts.size)
        return quartic(pts)

    dw, dwb = fd.wirtinger(f, w, h, richardson=False)
    assert calls == [4 * w.size]          # one call on the stacked stencil
    # each point carries its own step: the O(h^2) truncation (~1e-4 here)
    # matches the scalar path at that step, up to roundoff, and differs
    # from the one at a shared step
    for k in range(w.size):
        sk = fd.wirtinger(quartic, w[k], h[k], richardson=False)
        assert abs(dw[k] - sk[0]) < 1e-10 and abs(dwb[k] - sk[1]) < 1e-10
    shared, _ = fd.wirtinger(quartic, w, 1e-2, richardson=False)
    assert np.all(np.abs(dw - shared) > 1e-6)
    calls.clear()
    dw, dwb = fd.wirtinger(f, w, h)
    assert calls == [4 * w.size, 4 * w.size]   # steps h/2 and h
    wb = np.conj(w)
    assert np.abs(dw - (4 * w ** 3 + 6 * w ** 2 * wb - 1j * wb ** 3)).max() \
        < 1e-10


def test_scalar_point_array_value():
    # scalar points with matrix values, as the metric stencils use them
    M = np.array([[1.0, 2j], [0.5, -1.0]])
    dw, dwb = fd.wirtinger(lambda w: M * w * np.conj(w), 0.4 + 0.1j, 1e-3,
                           richardson=False)
    assert np.abs(dw - M * (0.4 - 0.1j)).max() < 1e-10
    assert np.abs(dwb - M * (0.4 + 0.1j)).max() < 1e-10


# ---------------------------------------------------------------------------
# step validation


BAD_STEPS = [0.0, -1e-3, float("nan"), float("inf"),
             np.array([1e-3, 0.0, 1e-3])]


@pytest.mark.parametrize("h", BAD_STEPS, ids=["zero", "negative", "nan",
                                              "inf", "array-with-zero"])
def test_bad_step_raises(h):
    w = np.array([0.1, 0.2, 0.3]) if np.ndim(h) else 0.1
    with pytest.raises(ValueError, match="finite and positive"):
        _first(np.exp, w, h)
    with pytest.raises(ValueError, match="finite and positive"):
        fd.second(np.exp, w, h)
    with pytest.raises(ValueError, match="finite and positive"):
        fd.wirtinger(np.exp, w, h)
    with pytest.raises(ValueError, match="finite and positive"):
        fd.mixed_wirtinger(lambda a, b: a * b, w, w, h)
