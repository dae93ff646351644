"""Blocked pair kernel and its jacobian: agreement with explicit double loops, and
bounded memory; the shared damped Newton loop."""

import tracemalloc

import numpy as np
import pytest

from vortexkit import stieltjes
from vortexkit.backgrounds import (
    _BLOCK, HermiteLinear, JacobiCharges, log_abs, min_separation, newton, pair_jacobian, pair_sum,
)
from vortexkit.vortex import VortexConfiguration, conserved, rhs

SIZES = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]
EPS = np.finfo(float).eps


def loop_pair_sum(z, c, g, upper=False):
    """Reference: s_i = sum over j != i (j > i if upper) of c_j g(z_i - z_j), and sum_j |term|."""
    n = z.size
    s = np.zeros(n, dtype=complex)
    scale = np.zeros(n)
    for i in range(n):
        for j in range(i + 1 if upper else 0, n):
            if j != i:
                term = c[j] * g(z[i] - z[j])
                s[i] += term
                scale[i] += abs(term)
    return s, scale


def assert_sums_match(got, ref, scale):
    # Summation order differs from the loop: allow n rounding errors per unit of term magnitude.
    assert np.all(np.abs(got - ref) <= ref.size * EPS * scale)


def mixed_weights(rng, n):
    """Complex weights of both signs."""
    return rng.choice([-1.0, 1.0], size=n) * (rng.uniform(0.5, 2.0, n) + 1j * rng.uniform(-1.0, 1.0, n))


@pytest.mark.parametrize("n", SIZES)
def test_cauchy_sum_matches_loop(n):
    rng = np.random.default_rng(n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    c = mixed_weights(rng, n)
    ref, scale = loop_pair_sum(z, c, lambda d: 1.0 / d)
    assert_sums_match(pair_sum(z, c), ref, scale)


@pytest.mark.parametrize("n", SIZES)
def test_upper_log_sums_match_loop(n):
    rng = np.random.default_rng(100 + n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    c = mixed_weights(rng, n)
    for g in (log_abs, np.log):
        ref, scale = loop_pair_sum(z, c, g, upper=True)
        assert_sums_match(pair_sum(z, c, g, upper=True), ref, scale)


@pytest.mark.parametrize("n", SIZES)
def test_real_line_residual_matches_loop(n):
    rng = np.random.default_rng(200 + n)
    x = np.sort(rng.uniform(-0.99, 0.99, n))
    bg = JacobiCharges(1.0, 1.5)
    ref, scale = loop_pair_sum(x, np.ones(n), lambda d: 1.0 / d)
    assert_sums_match(pair_sum(x), ref, scale)
    w = np.real(bg.w(x))
    assert_sums_match(stieltjes.residual(x, bg), ref - w, scale + np.abs(w))


@pytest.mark.parametrize("n", SIZES)
def test_min_separation_matches_loop(n):
    rng = np.random.default_rng(300 + n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    ref = min(abs(z[i] - z[j]) for i in range(n) for j in range(n) if i != j)
    assert min_separation(z) == pytest.approx(ref, rel=4 * EPS)  # numpy's |.| may differ by an ulp
    z[-1] = z[0]  # in different row blocks once n > _BLOCK
    assert min_separation(z) == 0.0


def test_fewer_than_two_points():
    assert min_separation(np.array([1.0 + 2.0j])) == np.inf
    assert pair_sum(np.array([1.0 + 2.0j]), 3.0).tolist() == [0.0]


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_pair_jacobian_matches_loop(n):
    rng = np.random.default_rng(400 + n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    c = mixed_weights(rng, n)
    ref = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for k in range(n):
            if k != i:
                ref[i, k] = c[k] / (z[i] - z[k]) ** 2
        ref[i, i] = -ref[i].sum()
    scale = np.abs(ref).sum(axis=1, keepdims=True)
    assert np.all(np.abs(pair_jacobian(z, c) - ref) <= 4 * EPS * scale)


class TestNewton:
    def test_one_residual_per_iteration(self):
        calls = []

        def residual(z):
            calls.append(z)
            return z**3 - 2.0

        z, res, steps = newton(residual, lambda z, r: -r / (3.0 * z**2), np.array([1.5]), 1e-14, 50)
        assert res <= 1e-14 and z == pytest.approx([2.0 ** (1 / 3)], abs=1e-14)
        assert 0 < steps and len(calls) == steps + 1  # every full step was accepted

    def test_undefined_trials_are_halved(self):
        def residual(z):
            if np.any(z <= 0):
                raise ValueError("outside the domain")
            return np.log(z)

        # the first full step lands at 8 - 8 ln 8 < 0
        z, res, steps = newton(residual, lambda z, r: -r * z, np.array([8.0]), 1e-12, 50)
        assert res <= 1e-12 and z == pytest.approx([1.0], abs=1e-12)

    def test_stops_when_no_halving_decreases(self):
        calls = []

        def residual(z):
            calls.append(z)
            return z - 1.0

        # an uphill step: no trial decreases |r|
        z, res, steps = newton(residual, lambda z, r: r, np.array([3.0]), 1e-12, 50)
        assert (z.tolist(), res, steps) == ([3.0], 2.0, 0)
        assert len(calls) == 1 + 31  # the full step and 30 halvings

    def test_max_iter_and_met_tolerance(self):
        cube = (lambda z: z**3 - 2.0, lambda z, r: -r / (3.0 * z**2))
        z, res, steps = newton(*cube, np.array([1.5]), 1e-14, 2)
        assert steps == 2 and res > 1e-14
        assert newton(*cube, z, res, 50)[1:] == (res, 0)


def peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_memory_stays_blocked_at_n5000():
    # A full n x n complex matrix at n = 5000 is 381 MiB.
    n = 5000
    rng = np.random.default_rng(5)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    kappa = rng.choice([-1.0, 1.0], size=n)
    cfg = VortexConfiguration(z, kappa)
    x = np.linspace(-50.0, 50.0, n)
    peaks = {
        "rhs": peak_mib(lambda: rhs(cfg)),
        "conserved": peak_mib(lambda: conserved(cfg)),
        "VortexConfiguration": peak_mib(lambda: VortexConfiguration(z, kappa)),
        "stieltjes.energy": peak_mib(lambda: stieltjes.energy(x, HermiteLinear())),
    }
    assert all(p < 100.0 for p in peaks.values()), peaks
