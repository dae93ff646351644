"""Blocked pair kernel and its jacobian: agreement with explicit double loops, and
bounded memory; the Kirchhoff field's damped Newton solver, and its jacobian and
solutions off the line; the background families against their closed forms; the
one check of where the field is defined."""

import tracemalloc

import numpy as np
import pytest

import vortexkit
from vortexkit import backgrounds, orthopoly, stieltjes, vortex
from vortexkit.backgrounds import (
    _BLOCK, CollisionError, ConjugateLinear, Coulomb, CustomRational, DomainError, HermiteLinear, JacobiCharges, NoFlow,
    kirchhoff_energy, kirchhoff_field, kirchhoff_jacobian, log_abs, min_separation, newton, pair_jacobian, pair_sum,
)
from vortexkit.landau import LaughlinParams, laughlin_stationarity_residual
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
        assert_sums_match(pair_sum(z, c, g), ref, scale)


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


def masked_pair_sum(z, c=1.0, g=np.reciprocal, upper=False, eps=None):
    """Reference: the masked block pass `pair_sum` replaced, which it must reproduce byte for byte.

    Each block's self pairs (and j < i when `upper`) are set to inf for the check, to 1.0
    before g and to 0.0 after it, through boolean masks; the weights are broadcast.
    """
    z = np.asarray(z)
    c = np.broadcast_to(c, z.shape)
    parts = []
    for i0 in range(0, z.size, _BLOCK):
        j0 = i0 if upper else 0
        d = z[i0:i0 + _BLOCK, None] - z[None, j0:]
        b = d.shape[0]
        square = np.s_[:, i0 - j0:i0 - j0 + b]
        drop = np.tri(b, dtype=bool) if upper else np.eye(b, dtype=bool)
        if eps is not None:
            d[square][drop] = np.inf
            if np.fmin.reduce(np.abs(d), axis=None, initial=np.inf) <= eps:
                raise CollisionError("pairwise distance")
        d[square][drop] = 1.0
        t = c[j0:] * g(d)
        t[square][drop] = 0.0
        parts.append(t.sum(axis=1))
    return np.concatenate(parts) if parts else np.zeros(0)


def assert_same_bytes(got, ref):
    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()  # signed zeros included


@pytest.mark.parametrize("n", [1, 2] + SIZES)
def test_pair_sum_is_bit_exact_to_the_masked_pass(n):
    rng = np.random.default_rng(500 + n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = np.sort(rng.uniform(-0.99, 0.99, n))  # the real positions of the Stieltjes residual
    signs = rng.choice([-1.0, 1.0], size=n)
    for c in (1.0, -2.5, signs * rng.uniform(0.5, 2.0, n), mixed_weights(rng, n)):
        for points in (z, x):
            for eps in (None, 0.0, 1e-12):
                assert_same_bytes(pair_sum(points, c, eps=eps), masked_pair_sum(points, c, eps=eps))
            assert_same_bytes(pair_sum(points, c, log_abs), masked_pair_sum(points, c, log_abs, upper=True))
        assert_same_bytes(pair_sum(z, c, np.log), masked_pair_sum(z, c, np.log, upper=True))
    kappa = signs * rng.uniform(0.5, 2.0, n)
    h = float(np.sum(kappa * masked_pair_sum(z, kappa, log_abs, upper=True)))
    assert_same_bytes(np.float64(conserved(VortexConfiguration(z, kappa)).interaction_energy), np.float64(h))


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


# One point: no pairs, F = w.  w = z^3 - 2 makes the step -F / (3 z^2).
CUBE = CustomRational(poly=(-2.0, 0.0, 0.0, 1.0))


def cube(z):
    return kirchhoff_field(z, 1.0, CUBE)


class TestNewton:
    def test_one_residual_per_iteration(self):
        calls = []

        def field(z):
            calls.append(z)
            return cube(z)

        sol = newton(field, np.array([1.5]), 1.0, CUBE, 1e-14, 50)
        assert sol.converged and sol.residual_inf <= 1e-14
        assert sol.positions == pytest.approx([2.0 ** (1 / 3)], abs=1e-14)
        assert 0 < sol.iterations and len(calls) == sol.iterations + 1  # every full step was accepted

    def test_undefined_trials_are_halved(self):
        bg = Coulomb(1.0)  # w = 1/2 - 2/x, zero at x = 4

        def field(z):
            if np.any(z <= 0):
                raise ValueError("outside the domain")
            return kirchhoff_field(z, 1.0, bg)

        # the first full step lands at 20 - 80 < 0
        sol = newton(field, np.array([20.0]), 1.0, bg, 1e-12, 50)
        assert sol.converged and sol.residual_inf <= 1e-12 and sol.positions == pytest.approx([4.0], abs=1e-12)

    def test_stops_when_no_halving_decreases(self):
        calls = []
        bg = CustomRational(poly=(-1.0, 1.0))

        def field(z):
            calls.append(z)
            return -kirchhoff_field(z, 1.0, bg)  # the sign opposite to the jacobian's

        # an uphill step: no trial decreases |F|
        sol = newton(field, np.array([3.0]), 1.0, bg, 1e-12, 50)
        assert (sol.positions.tolist(), sol.residual_inf, sol.iterations, sol.converged) == ([3.0], 2.0, 0, False)
        assert len(calls) == 1 + 31  # the full step and 30 halvings

    def test_max_iter_and_met_tolerance(self):
        sol = newton(cube, np.array([1.5]), 1.0, CUBE, 1e-14, 2)
        assert sol.iterations == 2 and sol.residual_inf > 1e-14 and not sol.converged
        met = newton(cube, sol.positions, 1.0, CUBE, sol.residual_inf, 50)
        assert (met.residual_inf, met.iterations, met.converged) == (sol.residual_inf, 0, True)

    @pytest.mark.parametrize("x", [[0.3], [-1.0, 1.0], [-1.0, 0.5, 2.0]])
    def test_singular_step_stops(self, x):
        # a constant field: the F_i sum to n w, so there is no equilibrium, and the
        # jacobian's rows sum to zero (exactly so at the first two; at the third LU
        # leaves a pivot of 1e-16, whose step would move every point to -1.35e16)
        bg = CustomRational(poly=(0.5,))
        x = np.array(x)
        sol = newton(lambda z: kirchhoff_field(z, -1.0, bg), x, -1.0, bg, 1e-12, 50)
        assert (sol.positions.tolist(), sol.iterations, sol.converged) == (x.tolist(), 0, False)
        assert sol.residual_inf == np.abs(kirchhoff_field(x, -1.0, bg)).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_residual_never_converges(self, bad):
        # NaN > tol is false, so the loop stops at once; converged must not read that as
        # max|F| <= tol.  An infinite max|F| tries a step, and no trial decreases it.
        sol = newton(lambda z: np.full(z.shape, bad), np.array([1.0, 2.0]), 1.0, CUBE, 1e-12, 50)
        assert (sol.iterations, sol.converged) == (0, False)
        np.testing.assert_equal(sol.residual_inf, bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z, bg", [
        # the CLI's N = 3 ring guess (less its jitter) at l_B = 4e-155: F is finite, a ± diag(b) overflows
        (7.2e-155 * np.exp(2j * np.pi * np.arange(3) / 3), ConjugateLinear(LaughlinParams(3, 1, 4e-155).omega)),
        # on the line, an entry 1/(z_i - z_k)^2 of a overflows: (1e-170)^2 is 0
        (np.array([-1.0, 0.0, 1e-170]), HermiteLinear()),
    ], ids=["planar-assembly", "line-entry"])
    def test_non_finite_jacobian_is_a_singular_step(self, z, bg):
        # refused before LAPACK sees it, without a RuntimeWarning, on both branches
        sol = newton(lambda z: kirchhoff_field(z, 1.0, bg), z, 1.0, bg, 1e-12, 50)
        assert np.isfinite(sol.residual_inf)
        assert (sol.positions.tolist(), sol.iterations, sol.converged) == (z.tolist(), 0, False)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_step_refuses_a_non_finite_jacobian_before_lapack(self, monkeypatch):
        # scipy.linalg is imported inside the step, after the norm check: LAPACK is never asked
        import scipy.linalg.lapack

        def reached(*args, **kwargs):
            raise AssertionError("LAPACK reached")

        monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", reached)
        z, bg = np.array([-1.0, 0.0, 1e-170]), HermiteLinear()
        with pytest.raises(np.linalg.LinAlgError, match="^non-finite Newton Jacobian$"):
            backgrounds._newton_step(z, 1.0, bg, kirchhoff_field(z, 1.0, bg))

    def test_step_refuses_rcond_below_eps(self):
        # the constant field at [-1, 0.5, 2]: LU leaves a pivot of 1e-16, gecon gives rcond 2.1e-17
        bg, z = CustomRational(poly=(0.5,)), np.array([-1.0, 0.5, 2.0])
        assert kirchhoff_jacobian(z, -1.0, bg)[1] == 0  # the n x n branch
        with pytest.raises(np.linalg.LinAlgError, match="^singular Newton step$"):
            backgrounds._newton_step(z, -1.0, bg, kirchhoff_field(z, -1.0, bg))

    def test_record_holds_python_scalars(self):
        sol = newton(cube, np.array([1.5]), 1.0, CUBE, 1e-14, 50)
        assert [type(v) for v in (sol.residual_inf, sol.iterations, sol.converged)] == [float, int, bool]


class TestKirchhoff:
    def test_jacobian_matches_central_differences_off_the_line(self):
        # complex positions, strengths of both signs, two poles and a polynomial part
        bg = CustomRational(poles=(1.5, -0.5 + 1.0j), residues=(-2.0, 0.75), poly=(0.3, -1.0, 0.5))
        rng = np.random.default_rng(23)
        worst = 0.0
        for n in (2, 5, 8):
            while True:
                z = 1.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
                far = np.abs(z[:, None] - np.array(bg.poles)[None, :]).min() > 0.3
                if min_separation(z) > 0.3 and far:
                    break
            kappa = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, n)
            a, b = kirchhoff_jacobian(z, kappa, bg)
            assert not np.any(b)  # a rational field is analytic
            h = 1e-6
            for k in range(n):
                for col, step in ((a[:, k], h), (1j * a[:, k], 1j * h)):  # dF/dx, dF/dy
                    zp, zm = z.copy(), z.copy()
                    zp[k] += step
                    zm[k] -= step
                    fd = (kirchhoff_field(zp, kappa, bg) - kirchhoff_field(zm, kappa, bg)) / (2 * h)
                    worst = max(worst, np.abs(col - fd).max())
        assert worst < 1e-6

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_plus_one_hermite_equilibria_are_imaginary(self, n):
        # sum_j 1/(z_i - z_j) + z_i = 0 at z = i x, x the Hermite zeros: the analytic
        # step from a complex guess finds them
        bg = HermiteLinear()
        x = orthopoly.zeros(orthopoly.PolynomialSpec("hermite", n))
        rng = np.random.default_rng(n)
        guess = 1j * x + 0.05 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        sol = newton(lambda z: kirchhoff_field(z, 1.0, bg), guess, 1.0, bg, 1e-13, 50)
        assert sol.converged and sol.residual_inf <= 1e-13 and sol.iterations < 50
        z = sol.positions
        assert np.abs(z[np.argsort(z.imag)] - 1j * x).max() <= 1e-14 * np.abs(x).max()

    @pytest.mark.parametrize("n", [5, 30, 100])
    def test_rotation_identity(self, n):
        # F(e^{it} z) = e^{-it} F(z) in ConjugateLinear, so d/dt at t = 0: a (iz) + b conj(iz) = -iF.
        # The rotation is a null vector of the planar Jacobian only where F = 0.
        rng = np.random.default_rng(n)
        z = np.sqrt(n) * (rng.normal(size=n) + 1j * rng.normal(size=n))
        bg = ConjugateLinear(0.3)
        for kappa in (3.0, rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, n)):
            a, b = kirchhoff_jacobian(z, kappa, bg)
            err = a @ (1j * z) + b * np.conj(1j * z) + 1j * kirchhoff_field(z, kappa, bg)
            scale = np.abs(a) @ np.abs(z) + np.abs(b) * np.abs(z)  # the size of the terms
            assert np.all(np.abs(err) <= 1e-14 * scale)


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
        "kirchhoff_energy": peak_mib(lambda: kirchhoff_energy(x, -1.0, HermiteLinear())),
    }
    assert all(p < 100.0 for p in peaks.values()), peaks


# The families' w, w' and U = Re Phi written out by hand: the oracle for their evaluation
# as CustomRational.  The shared evaluation must reproduce these bit for bit.
def zero_form(z):
    return np.zeros_like(np.asarray(z, dtype=complex)) if np.ndim(z) else 0.0


def closed_forms(bg):
    if isinstance(bg, NoFlow):
        return zero_form, zero_form, zero_form
    if isinstance(bg, HermiteLinear):
        return (lambda z: z,
                lambda z: np.ones_like(np.real(z), dtype=float) if np.ndim(z) else 1.0,
                lambda z: np.real(0.5 * z * z))
    if isinstance(bg, Coulomb):
        l = bg.l
        return (lambda z: 0.5 - (l + 1.0) / z,
                lambda z: (l + 1.0) / (z * z),
                lambda z: np.real(0.5 * z - (l + 1.0) * np.log(z, dtype=complex)))
    p, q = bg.p, bg.q
    return (lambda z: -p / (z - 1.0) - q / (z + 1.0),
            lambda z: p / (z - 1.0) ** 2 + q / (z + 1.0) ** 2,
            lambda z: np.real(-p * np.log(z - 1.0, dtype=complex) - q * np.log(z + 1.0, dtype=complex)))


FAMILIES = [NoFlow(), HermiteLinear(), Coulomb(0.0), Coulomb(1.0), Coulomb(2.5),
            JacobiCharges(), JacobiCharges(1.0, 1.5), JacobiCharges(0.3, 4.0)]
# Real points on both sides of the poles 0 and +-1, some within 1e-12 of them.
REAL = np.array([-7.5, -1.0 - 1e-9, -1.0 + 1e-12, -0.6, -1e-12, 3e-13, 0.25,
                 1.0 - 1e-12, 1.0 + 1e-9, 2.0, 300.0])
COMPLEX = REAL + 1j * np.array([0.5, 1e-10, -1e-12, -2.0, 1e-12, 0.0, 0.7, -1e-9, 3.0, -0.25, 1e-3])


@pytest.mark.parametrize("bg", FAMILIES, ids=repr)
def test_family_matches_closed_form(bg):
    for form, method in zip(closed_forms(bg), (bg.w, bg.dw, bg.u)):
        for z in (REAL, COMPLEX):
            np.testing.assert_array_equal(method(z), form(z))
            for v in z:
                for scalar in (v, v.item()):  # numpy and Python scalars
                    np.testing.assert_array_equal(method(scalar), form(scalar))


@pytest.mark.parametrize("bg", FAMILIES, ids=repr)
def test_potential_on_the_line_takes_log_abs(bg):
    # on either side of a pole U is the real line potential: r ln|x - p| per pole
    ipoly = [c / (m + 1) for m, c in enumerate(bg.poly)]
    terms = [np.polyval(ipoly[::-1], REAL) * REAL] + [r * np.log(np.abs(REAL - p))
                                                      for p, r in zip(bg.poles, bg.residues)]
    got = bg.u(REAL)
    assert np.isrealobj(got) and np.all(np.abs(got - sum(terms)) <= 4 * EPS * sum(np.abs(t) for t in terms))


def test_custom_rational_matches_term_sum():
    bg = CustomRational(poles=(0.5, -2.0 + 1.0j), residues=(1.5, -0.5j), poly=(0.25, -1.0, 0.5, 2.0))
    z = COMPLEX
    w = 1.5 / (z - 0.5) - 0.5j / (z + 2.0 - 1.0j) + 0.25 - z + 0.5 * z**2 + 2.0 * z**3
    dw = -1.5 / (z - 0.5) ** 2 + 0.5j / (z + 2.0 - 1.0j) ** 2 - 1.0 + z + 6.0 * z**2
    u = np.real(1.5 * np.log(z - 0.5) - 0.5j * np.log(z + 2.0 - 1.0j)
                + 0.25 * z - 0.5 * z**2 + z**3 / 6.0 + 0.5 * z**4)
    for got, ref in ((bg.w(z), w), (bg.dw(z), dw), (bg.u(z), u)):
        assert np.all(np.abs(got - ref) <= 64 * EPS * (1.0 + np.abs(ref)))


class TestFamilyConstructors:
    def test_old_arguments(self):
        assert (JacobiCharges(1.0, 1.5).p, JacobiCharges(1.0, 1.5).q) == (1.0, 1.5)
        assert (JacobiCharges(q=2.0).p, JacobiCharges(q=2.0).q) == (0.5, 2.0)
        assert Coulomb(2.0).l == 2.0 and Coulomb().l == 0.0
        assert repr(Coulomb(1.0)) == "Coulomb(l=1.0)" and repr(HermiteLinear()) == "HermiteLinear()"
        assert JacobiCharges(1.0, 1.5).domain == (-1.0, 1.0) and Coulomb().domain == (0.0, np.inf)
        assert Coulomb(1.0).polynomial_spec(4).alpha == 3.0
        assert CustomRational().polynomial_spec(4) is None

    def test_family_data(self):
        assert (Coulomb(1.0).poles, Coulomb(1.0).residues, Coulomb(1.0).poly) == ((0.0,), (-2.0,), (0.5,))
        jac = JacobiCharges(1.0, 1.5)
        assert (jac.poles, jac.residues, jac.poly) == ((1.0, -1.0), (-1.0, -1.5), ())
        assert HermiteLinear().poly == (0.0, 1.0) and NoFlow().poly == ()
        assert all(isinstance(bg, CustomRational) for bg in FAMILIES)

    @pytest.mark.parametrize("make", [lambda: Coulomb(-1), lambda: JacobiCharges(0, 1),
                                      lambda: JacobiCharges(1, -0.5), lambda: Coulomb(np.nan),
                                      lambda: JacobiCharges(np.nan, 1), lambda: JacobiCharges(1, np.nan),
                                      lambda: ConjugateLinear(np.nan)])
    def test_invalid_parameters_raise(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("make", [lambda: Coulomb(1.0, poles=(2.0,)), lambda: NoFlow(poly=(1.0,)),
                                      lambda: HermiteLinear(residues=()), lambda: JacobiCharges(1, 1, 1)])
    def test_no_settable_rational_data(self, make):
        with pytest.raises(TypeError):
            make()

    def test_frozen(self):
        bg = Coulomb(1.0)
        with pytest.raises(AttributeError):
            bg.l = 2.0
        with pytest.raises(AttributeError):
            bg.residues = (1.0,)

    def test_no_flow_has_no_equilibrium(self):
        with pytest.raises(ValueError):
            stieltjes.EquilibriumProblem(3, NoFlow())

    @pytest.mark.parametrize("bg", [CustomRational(), CustomRational(poly=(0.0,)),
                                    CustomRational(poles=(2.0,), residues=(0.0,), poly=(0.0, 0.0))],
                             ids=repr)
    def test_zero_custom_field_has_no_equilibrium(self, bg):
        # refused by its field, not by its type
        with pytest.raises(ValueError, match="not zero"):
            stieltjes.EquilibriumProblem(3, bg)


class TestWhereTheFieldIsDefined:
    """kirchhoff_field is the one check: a point within eps of another point or of a pole raises
    CollisionError, found in the pair pass before any division, for every caller of the field."""

    @staticmethod
    def entry_points():
        laughlin = LaughlinParams(3)
        return {
            "velocity": lambda z, bg: vortex._velocity(np.asarray(z, dtype=complex), 1.0, bg, 1e-12),
            "stieltjes": lambda z, bg: stieltjes.residual(z, bg),
            "laughlin": lambda z, bg: laughlin_stationarity_residual(z, laughlin),
        }

    def test_exception_hierarchy(self):
        assert issubclass(CollisionError, DomainError) and issubclass(DomainError, ValueError)
        assert vortex.CollisionError is stieltjes.CollisionError is vortexkit.CollisionError is CollisionError
        assert vortex.DomainError is stieltjes.DomainError is vortexkit.DomainError is DomainError

    @pytest.mark.parametrize("name", ["velocity", "stieltjes", "laughlin"])
    def test_coincident_pair_raises_before_dividing(self, name):
        call = self.entry_points()[name]
        bg = HermiteLinear()
        # the pair in different row blocks, and -0.0 against 0.0
        z = np.linspace(-3.0, 3.0, _BLOCK + 5)
        z[-1] = z[2]
        for x in (z, np.array([0.0, 2.0, -0.0])):
            with np.errstate(all="raise"), pytest.raises(CollisionError):
                call(x, bg)

    @pytest.mark.parametrize("name", ["velocity", "stieltjes"])
    def test_point_on_a_pole_raises_before_dividing(self, name):
        bg = CustomRational(poles=(0.5,), residues=(-1.0,), poly=(0.0, 1.0))
        with np.errstate(all="raise"), pytest.raises(CollisionError, match="pole"):
            self.entry_points()[name](np.array([-1.0, 0.5, 2.0]), bg)

    def test_distance_equal_to_eps_is_a_collision(self):
        with pytest.raises(CollisionError):
            kirchhoff_field(np.array([0.0, 0.25]), 1.0, NoFlow(), eps=0.25)
        with pytest.raises(CollisionError):
            kirchhoff_field(np.array([1.25]), 1.0, Coulomb(1.0), eps=1.25)
        assert np.all(np.isfinite(kirchhoff_field(np.array([0.0, 0.25]), 1.0, NoFlow(), eps=0.2)))
        # the pair in the second row block: 0.25 apart, every other pair at least 1 apart
        z = np.arange(_BLOCK + 5, dtype=float) + 0j
        z[_BLOCK + 2] = z[_BLOCK + 1] + 0.25
        with np.errstate(all="raise"), pytest.raises(CollisionError):
            kirchhoff_field(z, 1.0, NoFlow(), eps=0.25)
        assert np.all(np.isfinite(kirchhoff_field(z, 1.0, NoFlow(), eps=0.2)))

    def test_nan_distance_does_not_raise(self):
        # a non-finite Runge-Kutta stage is rejected by the step control, not taken for a collision
        for z in (np.array([0.5, np.nan, 1.5]), np.full(3, np.nan)):
            with np.errstate(invalid="ignore"):
                assert np.isnan(vortex._velocity(z * (1.0 + 1.0j), 1.0, Coulomb(1.0), 1e-12)).all()

    @pytest.mark.parametrize("z, bg, what", [
        (np.array([0.0, np.nan, 1.0]), Coulomb(1.0), "pole"),
        (np.array([0.5, np.nan, 0.5, 2.0]), NoFlow(), "pairwise"),  # the pair in the NaN's row block
    ], ids=["point_on_pole", "pair"])
    def test_nan_does_not_hide_a_collision(self, z, bg, what):
        with np.errstate(all="raise"), pytest.raises(CollisionError, match=what):
            vortex._velocity(z * (1.0 + 1.0j), 1.0, bg, 1e-12)

    def test_one_pair_pass_per_evaluation(self, monkeypatch):
        passes = []
        blocks = backgrounds._row_blocks
        monkeypatch.setattr(backgrounds, "_row_blocks", lambda *a, **k: passes.append(1) or blocks(*a, **k))
        z = np.exp(2j * np.pi * np.arange(5) / 5)
        cfg = VortexConfiguration(z, np.ones(5))
        for call in (lambda: rhs(cfg, Coulomb(1.0)),
                     lambda: laughlin_stationarity_residual(z, LaughlinParams(5)),
                     lambda: stieltjes.residual(np.arange(1.0, 6.0), Coulomb(1.0))):
            passes.clear()
            call()
            assert len(passes) == 1
