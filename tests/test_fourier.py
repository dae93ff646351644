"""The transform under the paraxial layer: round trip, Parseval, DFT oracle.

`paraxial.propagate` multiplies the numpy.fft spectrum by exp(-i k^2 dz / 2k)
and transforms back, so its sign of propagation and its energy conservation
rest on numpy.fft's convention: forward kernel exp(-2 pi i k n / N), inverse
scaled by 1/N.  These checks pin that convention.
"""

import numpy as np
import pytest


def dft_oracle(x):
    n = x.size
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


@pytest.mark.parametrize("n", [2, 8, 64, 256])
def test_matches_direct_dft(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.abs(np.fft.fft(x) - dft_oracle(x)).max() < 1e-10 * n


def test_round_trip_2d():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(32, 128)) + 1j * rng.normal(size=(32, 128))
    assert np.abs(np.fft.ifft2(np.fft.fft2(a)) - a).max() < 1e-12


def test_parseval_2d():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    spec = np.fft.fft2(a)
    lhs = np.sum(np.abs(a) ** 2)
    rhs = np.sum(np.abs(spec) ** 2) / a.size
    assert abs(lhs - rhs) < 1e-12 * lhs


def test_linearity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=128) + 1j * rng.normal(size=128)
    b = rng.normal(size=128) + 1j * rng.normal(size=128)
    lhs = np.fft.fft(2.0 * a - 1.5j * b)
    rhs = 2.0 * np.fft.fft(a) - 1.5j * np.fft.fft(b)
    assert np.abs(lhs - rhs).max() < 1e-12
