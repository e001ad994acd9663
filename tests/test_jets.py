"""jets.Batch replays CPython's complex arithmetic point by point, bit for
bit: every operation on a Batch gives, at each point, the bytes of the
same Python expression on that point's complex number (a NaN matches any
NaN)."""

import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from conedeform.jets import Batch, MixedZeros, pointwise

SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300, -1e-300, 1e300,
           -1e300, 1e154, float("inf"), -float("inf"), float("nan")]


def _part(rng):
    if rng.random() < 0.3:
        return rng.choice(SPECIAL)
    return rng.uniform(-3, 3) * 10.0 ** rng.randint(-3, 3)


def _points(rng, size):
    return [complex(_part(rng), _part(rng)) for _ in range(size)]


def _bits(value):
    """The bytes of each part; a NaN only as NaN, since the sign and payload
    of a NaN depend on operand order inside the C compiler's code, in
    CPython as in numpy."""
    value = complex(value)
    return tuple(b"nan" if math.isnan(x) else struct.pack("<d", x)
                 for x in (value.real, value.imag))


def _same(batch, want):
    """batch holds, point by point, the bytes of the complex numbers want."""
    assert isinstance(batch, Batch)
    assert batch.real.dtype == batch.imag.dtype == np.float64
    assert [_bits(v) for v in batch.points()] == [_bits(v) for v in want]


def _scalars(rng):
    """One operand of each type a jet meets."""
    return [complex(_part(rng), _part(rng)), complex(-0.0, _part(rng)),
            _part(rng), -0.0, rng.randint(-5, 5), 0,
            Fraction(rng.randint(-9, 9), rng.randint(1, 9))]


def test_batch_replays_complex_arithmetic():
    rng = random.Random(27)
    for _ in range(300):
        size = rng.randint(1, 60)
        xs, ys = _points(rng, size), _points(rng, size)
        _check_arithmetic(rng, xs, ys)


def _check_arithmetic(rng, xs, ys):
    a, b = Batch.of(xs), Batch.of(ys)
    with np.errstate(all="ignore"):
        _same(a + b, [x + y for x, y in zip(xs, ys)])
        _same(a - b, [x - y for x, y in zip(xs, ys)])
        _same(a * b, [x * y for x, y in zip(xs, ys)])
        _same(-a, [-x for x in xs])
        _same(a.conjugate(), [x.conjugate() for x in xs])
        for c in _scalars(rng):
            _same(a + c, [x + c for x in xs])
            _same(c + a, [c + x for x in xs])
            _same(a - c, [x - c for x in xs])
            _same(c - a, [c - x for x in xs])
            _same(a * c, [x * c for x in xs])
            _same(c * a, [c * x for x in xs])


def _outcome(f, *args):
    """f(*args), or the type of the ArithmeticError it raises."""
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc)


def test_batch_powers_and_reciprocals_replay_python():
    rng = random.Random(28)
    for _ in range(100):
        _check_powers(_points(rng, rng.randint(1, 60)))


def _check_powers(xs):
    a = Batch.of(xs)
    with np.errstate(all="ignore"):
        for k in range(1, 7):
            want = [_outcome(pow, x, k) for x in xs]
            errors = {w for w in want if isinstance(w, type)}
            if errors:
                # Python raises at some point, and so does the batch
                assert _outcome(pow, a, k) in errors
            else:
                _same(a ** k, want)
        want = [_outcome(lambda x: 1.0 / x, x) for x in xs]
        if ZeroDivisionError in want:
            with pytest.raises(ZeroDivisionError):
                1.0 / a
        else:
            _same(1.0 / a, want)


def test_batch_power_replays_the_unit_product():
    # CPython's integer power multiplies 1 + 0j by the first factor; that
    # product clears a -0.0 imaginary part and a -0.0 real part next to a
    # negative imaginary one, so skipping it would change the bits
    xs = [complex(-0.0, -1.0), complex(-3.0, 0.0), complex(-0.0, -0.0),
          complex(2.0, -0.0)]
    for k in range(1, 7):
        _same(Batch.of(xs) ** k, [x ** k for x in xs])
    assert _bits(complex(-3.0, 0.0) ** 2) != _bits(
        complex(-3.0, 0.0) * complex(-3.0, 0.0))


def test_batch_comparison_needs_every_point_to_agree():
    assert Batch.of([1, 2j, complex(-0.0, 1.0)]) != 0
    assert not Batch.of([0.0, -0.0, complex(-0.0, 0.0)]) != 0
    assert Batch.of([0.0, complex(0.0, -0.0)]) == 0
    assert Batch.of([float("nan")]) != 0
    with pytest.raises(MixedZeros):
        Batch.of([0.0, 1.0]) != 0
    with pytest.raises(MixedZeros):
        Batch.of([1.0, -0.0]) == 0


def test_pointwise_runs_the_scalar_code():
    xs = [complex(3.0, -4.0), complex(-0.0, 2.0), complex(1e100, 1e100)]
    _same(pointwise(lambda x: abs(x) ** 2, Batch.of(xs)),
          [abs(x) ** 2 for x in xs])
    assert pointwise(lambda x: abs(x) ** 2, 3 + 4j) == 25.0
