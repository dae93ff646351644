"""Blocked pair kernel and its jacobian: agreement with explicit double loops, and
bounded memory; the Kirchhoff field's damped Newton solver, and its jacobian and
solutions on the line, against the polynomial zeros and in the `equilibrium` report,
and off it; the background families against their closed forms; the
one check of where the field is defined; the Laughlin stationarity field (strengths m in
ConjugateLinear), its Jacobian and its solves in the plane; log|psi| as a Kirchhoff energy, and
the `laughlin` command's refusals."""

import inspect
import json
import tracemalloc

import numpy as np
import pytest

import vortexkit
from vortexkit import backgrounds, cli, orthopoly, vortex
from vortexkit.backgrounds import (
    _BLOCK, CollisionError, ConjugateLinear, Coulomb, CustomRational, DomainError, HermiteLinear, JacobiCharges, NoFlow,
    default_guess, kirchhoff_energy, kirchhoff_field, kirchhoff_jacobian, newton,
    pair_jacobian, pair_sum, ring_guess, stationary,
)
from vortexkit.orthopoly import PolynomialSpec, certify
from vortexkit.vortex import conserved, velocity
from oracles import min_separation

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


@pytest.mark.parametrize("n", [1, 2] + SIZES)
def test_upper_log_sums_match_loop(n):
    # E's pair part, half the full-row sum, against the loop over j > i, in the plane and on the line
    rng = np.random.default_rng(100 + n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    x = np.sort(rng.uniform(-0.99, 0.99, n))
    signs = rng.choice([-1.0, 1.0], size=n)
    for kappa in (1.5, -1.0, signs * rng.uniform(0.5, 2.0, n)):
        k = np.full(n, kappa)
        for points in (z, x):
            s, scale = loop_pair_sum(points, k, lambda d: np.log(abs(d)), upper=True)
            ref, ref_scale = (k * s).sum().real, (np.abs(k) * scale).sum()
            assert abs(kirchhoff_energy(points, kappa, NoFlow()) - ref) <= n * EPS * ref_scale


@pytest.mark.parametrize("n", SIZES)
def test_real_line_residual_matches_loop(n):
    rng = np.random.default_rng(200 + n)
    x = np.sort(rng.uniform(-0.99, 0.99, n))
    bg = JacobiCharges(1.0, 1.5)
    ref, scale = loop_pair_sum(x, np.ones(n), lambda d: 1.0 / d)
    assert_sums_match(pair_sum(x), ref, scale)
    w = np.real(bg.w(x))
    assert_sums_match(-kirchhoff_field(x, -1.0, bg), ref - w, scale + np.abs(w))


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


def masked_pair_sum(z, c=1.0, eps=0.0):
    """Reference: the masked block pass `pair_sum` replaced, which it must reproduce byte for byte.

    Each block's self pairs are set to inf for the check, to 1.0 before the reciprocal and
    to 0.0 after it, through boolean masks; the weights are broadcast.
    """
    z = np.asarray(z)
    c = np.broadcast_to(c, z.shape)
    parts = []
    for i0 in range(0, z.size, _BLOCK):
        d = z[i0:i0 + _BLOCK, None] - z[None, :]
        b = d.shape[0]
        square = np.s_[:, i0:i0 + b]
        drop = np.eye(b, dtype=bool)
        d[square][drop] = np.inf
        if np.fmin.reduce(np.abs(d), axis=None, initial=np.inf) <= eps:
            raise CollisionError("pairwise distance")
        d[square][drop] = 1.0
        t = c * np.reciprocal(d)
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
            for eps in (0.0, 1e-12):
                assert_same_bytes(pair_sum(points, c, eps=eps), masked_pair_sum(points, c, eps=eps))


@pytest.mark.parametrize("n", [1, 2, 7, 40, _BLOCK + 1, 300])
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


def test_integer_positions_are_taken_as_floats():
    # an integer block could hold no inf on its diagonal (OverflowError), and its squares wrap at 2**63
    for points in ([0, 2], [-3, 0, 1, 7], [0, 2**33, -(2**34)]):
        z, x = np.array(points), np.array(points, dtype=float)
        for bg in (NoFlow(), HermiteLinear()):
            assert_same_bytes(kirchhoff_field(z, 1.0, bg), kirchhoff_field(x, 1.0, bg))
        for c in (1.0, -2.5, np.arange(1.0, z.size + 1)):
            assert_same_bytes(pair_sum(z, c), pair_sum(x, c))
            assert_same_bytes(pair_jacobian(z, c), pair_jacobian(x, c))
    assert kirchhoff_field(np.array([0, 2]), 1.0, NoFlow()).tolist() == [-0.5, 0.5]
    # float and complex positions are used as they are
    for z in (np.array([0.0, 2.0], dtype=np.float32), np.array([1j, 2.0])):
        assert pair_sum(z).dtype == z.dtype and pair_jacobian(z).dtype == z.dtype


# One point: no pairs, F = w.  w = z^3 - 2 makes the step -F / (3 z^2).
CUBE = CustomRational(poly=(-2.0, 0.0, 0.0, 1.0))


def cube(z):
    return kirchhoff_field(z, 1.0, CUBE)


def kirchhoff_step(kappa, bg):
    """The step `stationary` binds: `_newton_step` at kappa and bg."""
    return lambda z, f: backgrounds._newton_step(z, kappa, bg, f)


class TestNewton:
    def test_signature_knows_no_field(self):
        assert list(inspect.signature(newton).parameters) == ["residual", "step", "z", "tol", "max_iter"]

    def test_batched_cube_roots_without_a_field(self):
        # z^3 = 2 elementwise from three starts, one near each root, with the elementwise step
        # -f / (3 z^2): no Kirchhoff field and no matrix
        roots = 2.0 ** (1 / 3) * np.exp(2j * np.pi * np.arange(3) / 3)
        start = np.array([1.5, -0.5 + 1.2j, -0.7 - 1.0j])
        sol = newton(lambda z: z**3 - 2.0, lambda z, f: -f / (3.0 * z**2), start, 0.0, 50)
        assert 0 < sol.iterations < 50
        assert np.all(np.abs(sol.positions - roots) <= 1e-15 * np.abs(roots))

    @pytest.mark.parametrize("tol, max_iter", [(-1.0, 50), (np.nan, 50), (1e-12, -1)],
                             ids=["negative_tol", "nan_tol", "negative_max_iter"])
    def test_refuses_settings_that_cannot_be_met(self, tol, max_iter):
        def untouched(z):
            raise AssertionError("residual evaluated")

        with pytest.raises(ValueError, match="need tol >= 0 and max_iter >= 0"):
            newton(untouched, kirchhoff_step(1.0, CUBE), np.array([1.5]), tol, max_iter)

    def test_zero_tol_and_zero_max_iter_are_valid(self):
        sol = newton(cube, kirchhoff_step(1.0, CUBE), np.array([1.5]), 0.0, 0)
        assert (sol.positions.tolist(), sol.iterations, sol.converged) == ([1.5], 0, False)

    def test_one_residual_per_iteration(self):
        calls = []

        def field(z):
            calls.append(z)
            return cube(z)

        sol = newton(field, kirchhoff_step(1.0, CUBE), np.array([1.5]), 1e-14, 50)
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
        sol = newton(field, kirchhoff_step(1.0, bg), np.array([20.0]), 1e-12, 50)
        assert sol.converged and sol.residual_inf <= 1e-12 and sol.positions == pytest.approx([4.0], abs=1e-12)

    def test_stops_when_no_halving_decreases(self):
        calls = []
        bg = CustomRational(poly=(-1.0, 1.0))

        def field(z):
            calls.append(z)
            return kirchhoff_field(z, 1.0, bg)

        def uphill(z, f):
            return -kirchhoff_step(1.0, bg)(z, f)  # the Newton step reversed

        # an uphill step: no trial decreases |F|
        sol = newton(field, uphill, np.array([3.0]), 1e-12, 50)
        assert (sol.positions.tolist(), sol.residual_inf, sol.iterations, sol.converged) == ([3.0], 2.0, 0, False)
        assert len(calls) == 1 + 31  # the full step and 30 halvings

    def test_no_trial_repeats_the_iterate(self, monkeypatch):
        # Jacobi 1/2 at n = 100 stalls near 3e-10: its last steps round to the iterate itself after
        # a few halvings, and the shorter trials used to be evaluated all the same (30 of 38 calls)
        seen, repeats = set(), []
        field = backgrounds.kirchhoff_field

        def recording(x, kappa, bg, eps=0.0):
            repeats.append(x.tobytes() in seen)
            seen.add(x.tobytes())
            return field(x, kappa, bg, eps)

        monkeypatch.setattr(backgrounds, "kirchhoff_field", recording)
        bg = JacobiCharges(0.5, 0.5)
        sol = stationary(default_guess(100, bg), -1.0, bg, 1e-12, 200)
        assert not sol.converged and 0.0 < sol.residual_inf < 1e-9
        assert repeats and not any(repeats)

    def test_a_trial_equal_to_the_last_one_is_not_evaluated(self):
        # from z = 1 a step of 3e-16 is 1.35 ulp: lambda = 1 and lambda = 1/2 both round to 1 + ulp,
        # and lambda = 1/4 rounds to 1 itself; f = |z - 1/2| grows, so 1 + ulp is refused once
        calls = []

        def field(z):
            calls.append(z[0])
            return np.abs(z - 0.5)

        sol = newton(field, lambda z, f: np.array([3e-16]), np.array([1.0]), 0.0, 5)
        assert calls == [1.0, 1.0 + EPS]
        assert (sol.positions.tolist(), sol.iterations, sol.converged) == ([1.0], 0, False)

    def test_max_iter_and_met_tolerance(self):
        sol = newton(cube, kirchhoff_step(1.0, CUBE), np.array([1.5]), 1e-14, 2)
        assert sol.iterations == 2 and sol.residual_inf > 1e-14 and not sol.converged
        met = newton(cube, kirchhoff_step(1.0, CUBE), sol.positions, sol.residual_inf, 50)
        assert (met.residual_inf, met.iterations, met.converged) == (sol.residual_inf, 0, True)

    @pytest.mark.parametrize("x", [[0.3], [-1.0, 1.0], [-1.0, 0.5, 2.0]])
    def test_singular_step_stops(self, x):
        # a constant field: the F_i sum to n w, so there is no equilibrium, and the
        # jacobian's rows sum to zero (exactly so at the first two; at the third LU
        # leaves a pivot of 1e-16, whose step would move every point to -1.35e16)
        bg = CustomRational(poly=(0.5,))
        x = np.array(x)
        sol = newton(lambda z: kirchhoff_field(z, -1.0, bg), kirchhoff_step(-1.0, bg), x, 1e-12, 50)
        assert (sol.positions.tolist(), sol.iterations, sol.converged) == (x.tolist(), 0, False)
        assert sol.residual_inf == np.abs(kirchhoff_field(x, -1.0, bg)).max()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_residual_never_converges(self, bad):
        # NaN > tol is false, so the loop stops at once; converged must not read that as
        # max|F| <= tol.  An infinite max|F| tries a step, and no trial decreases it.
        sol = newton(lambda z: np.full(z.shape, bad), kirchhoff_step(1.0, CUBE), np.array([1.0, 2.0]), 1e-12, 50)
        assert (sol.iterations, sol.converged) == (0, False)
        np.testing.assert_equal(sol.residual_inf, bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("z, bg", [
        # an N = 3 ring guess (less its jitter) at l_B = 4e-155, omega = 1/(4 l_B^2) = 1.5625e308:
        # F is finite, a ± diag(b) overflows
        (7.2e-155 * np.exp(2j * np.pi * np.arange(3) / 3), ConjugateLinear(1.0 / (4.0 * 4e-155**2))),
        # on the line, an entry 1/(z_i - z_k)^2 of a overflows: (1e-170)^2 is 0
        (np.array([-1.0, 0.0, 1e-170]), HermiteLinear()),
    ], ids=["planar-assembly", "line-entry"])
    def test_non_finite_jacobian_is_a_singular_step(self, z, bg):
        # refused before LAPACK sees it, without a RuntimeWarning, on both branches
        sol = newton(lambda z: kirchhoff_field(z, 1.0, bg), kirchhoff_step(1.0, bg), z, 1e-12, 50)
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

    def test_step_refuses_rcond_below_eps(self, lapack_lookups):
        # the constant field at [-1, 0.5, 2]: J is a graph Laplacian, singular; the Cholesky
        # leaves a last pivot of 1.1e-8, and pocon gives rcond 2.1e-17 (LU's gecon 2.1e-17 as well)
        bg, z = CustomRational(poly=(0.5,)), np.array([-1.0, 0.5, 2.0])
        assert kirchhoff_jacobian(z, -1.0, bg)[1] == 0  # the n x n branch
        with pytest.raises(np.linalg.LinAlgError, match="^singular Newton step$"):
            backgrounds._newton_step(z, -1.0, bg, kirchhoff_field(z, -1.0, bg))
        assert lapack_lookups == ["potrf"]

    def test_record_holds_python_scalars(self):
        sol = newton(cube, kirchhoff_step(1.0, CUBE), np.array([1.5]), 1e-14, 50)
        assert [type(v) for v in (sol.residual_inf, sol.iterations, sol.converged)] == [float, int, bool]


@pytest.fixture
def lapack_lookups(monkeypatch):
    """The first routine name of each LAPACK lookup the Newton step makes, in order."""
    import scipy.linalg.lapack

    names, lookup = [], scipy.linalg.lapack.get_lapack_funcs

    def spy(routines, arrays=()):
        names.append(routines[0])
        return lookup(routines, arrays)

    monkeypatch.setattr(scipy.linalg.lapack, "get_lapack_funcs", spy)
    return names


class TestLineCholesky:
    """The one-strength line step is a Cholesky solve; every other step is an LU solve."""

    @pytest.mark.parametrize("bg", [
        HermiteLinear(), Coulomb(1.0), JacobiCharges(0.5, 0.5), CustomRational(poly=(-0.3, 1.7)),
        CustomRational(poles=(-1.0, 0.3, 1.0), residues=(-0.5, -0.25, -0.4)),
    ], ids=["hermite", "coulomb", "jacobi", "linear", "gap"])
    @pytest.mark.parametrize("n", [7, 40, _BLOCK + 1])
    def test_line_step_is_a_cholesky_solve(self, lapack_lookups, bg, n):
        # J = graph Laplacian + diag(w'), w' > 0 at every point: symmetric bit for bit and positive definite
        z = default_guess(n, bg)
        f = kirchhoff_field(z, -1.0, bg)
        jac = kirchhoff_jacobian(z, -1.0, bg)[0]
        assert np.array_equal(jac, jac.T)
        step = backgrounds._newton_step(z, -1.0, bg, f)
        assert lapack_lookups == ["potrf"]
        ref = np.linalg.solve(jac, -f)
        assert np.abs(step - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("case", ["unequal-strengths", "laughlin-plane", "complex-analytic"])
    def test_other_steps_are_lu_solves(self, lapack_lookups, case):
        z, kappa, bg = {
            "unequal-strengths": (default_guess(9, HermiteLinear()), -np.linspace(1.0, 2.0, 9), HermiteLinear()),
            "laughlin-plane": (ring_guess(10, 1, 0), 1.0, ConjugateLinear(0.25)),
            # a, complex symmetric, is not Hermitian: a Cholesky would solve another system
            "complex-analytic": (default_guess(9, HermiteLinear()) + 0.3j, -1.0, HermiteLinear()),
        }[case]
        f = kirchhoff_field(z, kappa, bg)
        step = backgrounds._newton_step(z, kappa, bg, f)
        assert lapack_lookups == ["getrf"]
        if case != "laughlin-plane":
            ref = np.linalg.solve(kirchhoff_jacobian(z, kappa, bg)[0], -f)
            assert np.abs(step - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_indefinite_line_jacobian_falls_back_to_lu(self, lapack_lookups):
        # w = -x: w' = -1 < 0 leaves J indefinite, so potrf meets a pivot <= 0, and the LU solves the step as before
        from scipy.linalg.lapack import get_lapack_funcs

        bg = CustomRational(poly=(0.0, -1.0))
        z = default_guess(7, bg)
        f = kirchhoff_field(z, -1.0, bg)
        jac = kirchhoff_jacobian(z, -1.0, bg)[0]
        assert np.linalg.eigvalsh(jac).min() < 0 < np.linalg.eigvalsh(jac).max()
        step = backgrounds._newton_step(z, -1.0, bg, f)
        assert lapack_lookups == ["potrf", "getrf"]
        getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (jac,))
        lu, piv, _ = getrf(jac)
        assert np.array_equal(step, getrs(lu, piv, -f)[0])

    def test_constant_field_is_refused_silently(self, tmp_path, capfd):
        # J is the graph Laplacian alone, singular: refused as a singular step, and LAPACK prints nothing
        config = tmp_path / "constant.json"
        config.write_text(json.dumps({"equilibrium": {"family": "custom", "n": 4, "poly": [0.5]}}))
        out = tmp_path / "out"
        assert cli.main(["--config", str(config), "--out", str(out), "--quiet", "equilibrium"]) == 3
        assert capfd.readouterr() == ("", "")
        report = json.loads((out / "equilibrium.json").read_text())
        assert (report["iterations"], report["converged"]) == (0, False)


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
        sol = newton(lambda z: kirchhoff_field(z, 1.0, bg), kirchhoff_step(1.0, bg), guess, 1e-13, 50)
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


def omega_of(l_b):
    """omega = 1/(4 l_B^2), the confinement of magnetic length l_B."""
    return 1.0 / (4.0 * l_b**2)


def log_modulus(z, m, l_b):
    """Re log psi = sum_{i<j} m ln|z_i - z_j| - sum_j |z_j|^2/(4 l_B^2), the Laughlin wavefunction's
    log-modulus: the Kirchhoff energy of strengths m in ConjugateLinear(2 omega), over m."""
    return kirchhoff_energy(np.asarray(z, dtype=complex), m, ConjugateLinear(2.0 * omega_of(l_b))) / m


class TestStationarityResidual:
    """S_j = m sum_{i != j} 1/(z_j - z_i) - conj(z_j)/(4 l_B^2): the Kirchhoff field of strengths m
    in ConjugateLinear(omega)."""

    def test_symmetric_pair_closed_form(self):
        for m in (1, 3, 5):
            for l_b in (0.5, 1.0, 2.0):
                a = l_b * np.sqrt(2.0 * m)
                s = kirchhoff_field(np.array([a, -a], dtype=complex), m, ConjugateLinear(omega_of(l_b)))
                assert np.abs(s).max() < 1e-13

    def test_single_particle(self):
        bg = ConjugateLinear(omega_of(1.0))
        z = np.array([2.0 + 1.0j])
        s = kirchhoff_field(z, 1, bg)
        assert s[0] == pytest.approx(-np.conj(z[0]) / 4.0)
        assert np.abs(kirchhoff_field(np.array([0.0j]), 1, bg)).max() == 0.0

    def test_conjugation_property(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=5) + 1j * rng.normal(size=5)
        bg = ConjugateLinear(omega_of(0.9))
        s = kirchhoff_field(z, 3, bg)
        sc = kirchhoff_field(np.conj(z), 3, bg)
        assert np.abs(sc - np.conj(s)).max() < 1e-12

    def test_rotational_equivariance(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        theta = 0.83
        bg = ConjugateLinear(omega_of(1.0))
        s = kirchhoff_field(z, 1, bg)
        srot = kirchhoff_field(z * np.exp(1j * theta), 1, bg)
        assert np.abs(srot - s * np.exp(-1j * theta)).max() < 1e-12

    def test_gradient_of_log_modulus(self):
        # 2 d/dzbar_j log|psi| + omega z_j equals conj(S_j); finite differences
        rng = np.random.default_rng(21)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        m, l_b = 3, 1.2
        omega = omega_of(l_b)
        s = kirchhoff_field(z, m, ConjugateLinear(omega))
        h = 1e-6
        for j in range(3):
            def logmod(dz):
                zz = z.copy()
                zz[j] += dz
                return log_modulus(zz, m, l_b)

            gx = (logmod(h) - logmod(-h)) / (2 * h)
            gy = (logmod(1j * h) - logmod(-1j * h)) / (2 * h)
            two_dzbar = gx + 1j * gy
            assert two_dzbar + omega * z[j] == pytest.approx(np.conj(s[j]), abs=1e-6)


class TestPlanarJacobian:
    def test_matches_central_differences(self):
        # the shared jacobian's Wirtinger blocks: dS/dx = a + diag(b), dS/dy = i(a - diag(b))
        rng = np.random.default_rng(77)
        worst = 0.0
        for n, m, l_b in ((2, 1, 1.0), (5, 3, 1.1), (7, 1, 0.7)):
            while True:
                z = 2.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
                d = np.abs(z[:, None] - z[None, :]) + np.eye(n)
                if d.min() > 0.3:
                    break
            bg = ConjugateLinear(omega_of(l_b))
            a, b = kirchhoff_jacobian(z, m, bg)
            b = np.eye(n) * b
            h = 1e-6
            for i in range(n):
                for col, step in (((a + b)[:, i], h), ((1j * (a - b))[:, i], 1j * h)):
                    zp, zm = z.copy(), z.copy()
                    zp[i] += step
                    zm[i] -= step
                    fd = (kirchhoff_field(zp, m, bg) - kirchhoff_field(zm, m, bg)) / (2 * h)
                    worst = max(worst, np.abs(col.real - fd.real).max(),
                                np.abs(col.imag - fd.imag).max())
        assert worst < 1e-6


class TestLogLaughlin:
    """log|psi| through `kirchhoff_energy`, and the parameters the `laughlin` command refuses."""

    def test_single_particle_origin(self):
        assert log_modulus([0.0j], 1, 1.0) == 0.0

    def test_pair_principal_branch(self):
        # the real part of log psi at +-1: m ln 2 - (1 + 1)/4
        assert log_modulus([1.0, -1.0], 1, 1.0) == pytest.approx(np.log(2.0) - 0.5)

    def test_swap_antisymmetry_modulus(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        zs = z.copy()
        zs[[0, 1]] = zs[[1, 0]]
        # |psi| is symmetric under a swap, psi itself antisymmetric for odd m
        assert log_modulus(z, 3, 0.8) == pytest.approx(log_modulus(zs, 3, 0.8), abs=1e-12)

    @pytest.mark.parametrize("bad", [dict(N=0), dict(N=2, m_exp=2), dict(N=2, l_B=0.0), dict(N=2, l_B=np.nan)])
    def test_invalid_params(self, bad, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"laughlin": bad}))
        assert cli.main(["--quiet", "--config", str(config), "--out", str(tmp_path), "laughlin"]) == 2
        assert not (tmp_path / "laughlin.json").exists()

    @pytest.mark.parametrize("l_b", [1e160, 10**200, 1e-160], ids=["1e160", "int_1e200", "1e-160"])
    def test_magnetic_length_without_finite_positive_omega(self, l_b):
        # l_B^2 overflows at 1e160 and 1e200, so omega is 0; at 1e-160 l_B^2 rounds to a subnormal
        # and omega is inf.  ConjugateLinear, the one check of omega, refuses both; the `laughlin`
        # command solves in units of l_B and never forms this omega.
        with np.errstate(over="ignore", divide="ignore"):
            omega = 1.0 / (4.0 * np.float64(l_b) ** 2)
        with pytest.raises(ValueError, match="omega"):
            ConjugateLinear(omega)

    def test_small_magnetic_length_with_finite_omega_accepted(self):
        assert 0 < ConjugateLinear(omega_of(1e-150)).omega < np.inf


def solve_plane(guess, m=1, l_b=1.0, tol=1e-10, max_iter=200):
    """The plane solve of strengths m in ConjugateLinear(omega), the `laughlin` command's at l_B = 1."""
    return stationary(np.asarray(guess, dtype=complex), m, ConjugateLinear(omega_of(l_b)), tol, max_iter)


class TestPlanarEquilibrium:
    def test_pair_radius(self):
        sol = solve_plane(np.array([1.2 + 0.3j, -1.1 - 0.2j]), tol=1e-12)
        assert sol.converged and sol.residual_inf <= 1e-12
        assert np.abs(sol.positions) == pytest.approx([np.sqrt(2.0)] * 2, abs=1e-10)

    def test_single_particle_origin(self):
        sol = solve_plane(np.array([0.3 + 0.4j]))
        assert sol.converged
        assert abs(sol.positions[0]) < 1e-10

    def test_triangle(self):
        # brute-force oracle: minimize max |S| over symmetric triangle radius
        bg = ConjugateLinear(omega_of(1.0))
        radii = np.linspace(1.5, 2.5, 20001)
        best = min(
            radii,
            key=lambda r: np.abs(kirchhoff_field(r * np.exp(2j * np.pi * np.arange(3) / 3), 1, bg)).max(),
        )
        guess = 1.7 * np.exp(2j * np.pi * np.arange(3) / 3 + 0.05j)
        sol = solve_plane(guess, tol=1e-12)
        assert sol.converged and sol.residual_inf <= 1e-10
        z = sol.positions
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, np.inf)
        side = d[np.isfinite(d)]
        assert side.max() - side.min() < 1e-9  # equilateral
        assert np.abs(z) == pytest.approx([best] * 3, abs=1e-4)

    def test_exact_triangle_takes_no_step(self):
        # max|S| is 1.6e-16 here, and the rotation iz is a null vector of the Jacobian at
        # S = 0, so rcond < eps: the one refusal rule of the line stops the plane too
        z = 2.0 * np.exp(2j * np.pi * np.arange(3) / 3)
        sol = solve_plane(z, tol=0.0)
        assert (sol.positions.tolist(), sol.iterations, sol.converged) == (z.tolist(), 0, False)

    @pytest.mark.parametrize("n", [10, 30])
    def test_returned_residual_is_max_modulus(self, n):
        # the modulus of the complex S_j, not the largest of its real and imaginary parts
        sol = solve_plane(ring_guess(n, 1, n))
        assert sol.converged
        bg = ConjugateLinear(omega_of(1.0))
        assert sol.residual_inf == np.abs(kirchhoff_field(sol.positions, 1, bg)).max()


def solve_line(n, bg, guess=None, tol=1e-12, max_iter=200):
    """The line solve of the `equilibrium` command: strengths -1, from the default guess unless one is given."""
    return stationary(default_guess(n, bg) if guess is None else np.asarray(guess, dtype=float),
                      -1.0, bg, tol, max_iter)


class TestResidual:
    """The residual R_k = sum_{j != k} 1/(x_k - x_j) - w(x_k) is -F, F the Kirchhoff field of strengths -1."""

    def test_hermite_pair_equilibrium(self):
        a = 1 / np.sqrt(2)
        r = -kirchhoff_field(np.array([-a, a]), -1.0, HermiteLinear())
        assert r == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_coulomb_single(self):
        assert -kirchhoff_field(np.array([2.0]), -1.0, Coulomb(0.0)) == pytest.approx([0.0])

    def test_legendre_single(self):
        assert -kirchhoff_field(np.array([0.0]), -1.0, JacobiCharges(0.5, 0.5)) == pytest.approx([0.0])

    def test_coincident_points(self):
        # unsorted, the repeated pair not adjacent; -0.0 and 0.0 coincide too
        for x in ([0.3, -1.0, 0.7, 0.3], [0.0, 2.0, -0.0]):
            with pytest.raises(DomainError):
                kirchhoff_field(np.array(x), -1.0, HermiteLinear())


def jacobian(x, bg):
    """The shared jacobian of F = -R (strengths -1); on the line its zbar block is zero."""
    a, b = kirchhoff_jacobian(x, -1.0, bg)
    assert not np.any(b)
    return a


class TestJacobian:
    def test_single_hermite(self):
        assert jacobian(np.array([0.3]), HermiteLinear()) == pytest.approx(np.array([[1.0]]))

    def test_pair_hermite_at_equilibrium(self):
        a = 1 / np.sqrt(2)
        j = jacobian(np.array([-a, a]), HermiteLinear())
        assert j == pytest.approx(np.array([[1.5, -0.5], [-0.5, 1.5]]))

    @pytest.mark.parametrize("bg,lo,hi", [
        (HermiteLinear(), -3.0, 3.0),
        (Coulomb(1.0), 0.3, 12.0),
        (JacobiCharges(1.0, 2.0), -0.9, 0.9),
    ])
    def test_matches_central_differences(self, bg, lo, hi):
        rng = np.random.default_rng(11)
        for _ in range(10):
            x = np.sort(rng.uniform(lo, hi, size=4))
            while np.diff(x).min() < 0.05:
                x = np.sort(rng.uniform(lo, hi, size=4))
            j = jacobian(x, bg)
            h = 1e-6
            for m in range(4):
                xp, xm = x.copy(), x.copy()
                xp[m] += h
                xm[m] -= h
                fd = (kirchhoff_field(xp, -1.0, bg) - kirchhoff_field(xm, -1.0, bg)) / (2 * h)
                assert j[:, m] == pytest.approx(fd, abs=1e-5)


class TestEnergy:
    @pytest.mark.parametrize("bg,x", [
        (HermiteLinear(), [-2.0, -0.3, 0.4, 1.7]),
        (Coulomb(1.0), [0.5, 2.0, 4.5, 9.0]),
        (JacobiCharges(1.0, 2.0), [-0.8, -0.1, 0.3, 0.85]),
    ])
    def test_gradient_is_minus_residual(self, bg, x):
        x = np.array(x)
        h = 1e-6
        grad = np.empty(x.size)
        for m in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[m] += h
            xm[m] -= h
            # the electrostatic energy is -E at kappa = -1
            grad[m] = (kirchhoff_energy(xm, -1.0, bg) - kirchhoff_energy(xp, -1.0, bg)) / (2 * h)
        assert grad == pytest.approx(kirchhoff_field(x, -1.0, bg), abs=1e-6)  # -R = F


class TestSolve:
    def test_hermite_n5(self):
        rep = solve_line(5, HermiteLinear())
        assert np.abs(rep.positions - orthopoly.zeros(PolynomialSpec("hermite", 5))).max() < 1e-10

    def test_coulomb_l1_n4(self):
        rep = solve_line(4, Coulomb(1.0))
        ref = orthopoly.zeros(PolynomialSpec("laguerre", 4, alpha=3.0))
        assert np.abs(rep.positions - ref).max() < 1e-10

    def test_jacobi_n6(self):
        rep = solve_line(6, JacobiCharges(1.0, 1.5))
        ref = orthopoly.zeros(PolynomialSpec("jacobi", 6, alpha=1.0, beta=2.0))
        assert np.abs(rep.positions - ref).max() < 1e-10

    def test_permutation_invariant_guess(self):
        guess = np.array([-2.0, -0.5, 0.5, 2.0])
        rep1 = solve_line(4, HermiteLinear(), guess=guess)
        rep2 = solve_line(4, HermiteLinear(), guess=guess[::-1].copy())
        assert rep1.positions == pytest.approx(rep2.positions, abs=1e-12)

    def test_points_that_cross_come_back_sorted(self):
        # the Newton iterates of this guess pass the third point below the first two
        rep = solve_line(3, Coulomb(1.0), guess=[1.87, 2.35, 25.6])
        ref = orthopoly.zeros(PolynomialSpec("laguerre", 3, alpha=3.0))
        assert rep.converged and np.abs(rep.positions - ref).max() < 1e-10

    def test_equilibria_are_energy_minima(self):
        for n in range(2, 11):
            rep = solve_line(n, HermiteLinear())
            hess = jacobian(rep.positions, HermiteLinear())  # Hessian of E: grad E = -R = F
            assert np.linalg.eigvalsh(hess).min() > 0

    def test_guess_where_the_field_is_undefined_refused(self):
        # raised by the first evaluation of F, before any division
        bg = CustomRational(poles=(0.5,), residues=(-1.0,), poly=(0.0, 1.0))
        for guess in ([-1.0, 0.5, 2.0], [-1.0, 2.0, -1.0]):  # on the pole; coincident
            with np.errstate(all="raise"), pytest.raises(CollisionError):
                solve_line(3, bg, guess=guess)
        with pytest.raises(DomainError):
            solve_line(2, Coulomb(1.0), guess=[0.0, 1.0])

    def test_domain_violation(self, monkeypatch):
        # a guess outside the open domain raises; a trial point outside it is halved back, never evaluated
        with pytest.raises(DomainError):
            solve_line(1, Coulomb(0.0), guess=[-1.0])
        with pytest.raises(DomainError):
            solve_line(2, JacobiCharges(1.0, 1.0), guess=[0.0, 1.5])
        field, seen = backgrounds.kirchhoff_field, []
        monkeypatch.setattr(backgrounds, "kirchhoff_field", lambda x, *args: seen.append(x) or field(x, *args))
        # full steps from these guesses leave the domain
        for bg, guess in ((Coulomb(1.0), [30.0, 31.0, 32.0, 60.0]),
                          (JacobiCharges(2.0, 0.5), [-0.99, -0.98, 0.97, 0.999])):
            seen.clear()
            assert solve_line(4, bg, guess=guess).converged
            lo, hi = bg.domain
            assert all(np.all((lo < x) & (x < hi)) for x in seen)

    def test_custom_rational_solves(self):
        # two fixed unit charges at +/-2 plus a linear confinement
        bg = CustomRational(poles=(-2.0, 2.0), residues=(-1.0, -1.0), poly=(0.0, 1.0))
        rep = solve_line(3, bg, guess=np.array([-1.0, 0.1, 1.0]))
        assert rep.residual_inf < 1e-12 and rep.converged

    def test_residual_decreases_over_accepted_iterates(self):
        # far from equilibrium, so that full steps leave the domain or overshoot
        for bg, guess in (
            (HermiteLinear(), [-4.0, -3.5, 3.5, 4.0]),
            (Coulomb(1.0), [30.0, 31.0, 32.0, 60.0]),
            (JacobiCharges(2.0, 0.5), [-0.99, -0.98, 0.97, 0.999]),
        ):
            res = []
            for k in range(40):
                rep = solve_line(4, bg, guess=guess, max_iter=k)
                if rep.iterations < k:
                    break
                res.append(rep.residual_inf)
            assert len(res) > 3
            assert np.all(np.diff(res) < 0)

    def test_jacobi_half_stops_on_stagnation(self):
        # max|R| stalls near 3e-10 above the 1e-12 tolerance: the solve must
        # stop there rather than run out max_iter
        rep = solve_line(100, JacobiCharges(0.5, 0.5))
        assert rep.iterations < 20
        ref = orthopoly.zeros(PolynomialSpec("jacobi", 100))
        assert np.abs(rep.positions - ref).max() <= 1e-14


class TestExport:
    """The `equilibrium` report: the background's family and parameters, n, and the solve's record."""

    @staticmethod
    def report(tmp_path, bg, n, params):
        kind = {cls: kind for kind, cls in cli._BACKGROUNDS.items()}[type(bg)]
        assert cli._background_from(kind, params) == bg
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"equilibrium": {"family": kind, "n": n, **params}}))
        assert cli.main(["--quiet", "--config", str(config), "--out", str(tmp_path), "equilibrium"]) == 0
        return json.loads((tmp_path / "equilibrium.json").read_text())

    def test_json_report_fields(self, tmp_path):
        rep = solve_line(3, Coulomb(1.0))
        certified, deviation = certify(rep.positions, PolynomialSpec("laguerre", 3, alpha=3.0))
        doc = self.report(tmp_path, Coulomb(1.0), 3, {"l": 1.0})
        assert doc["family"] == "Coulomb"
        assert doc["parameters"] == {"l": 1.0}
        assert doc["n"] == 3
        assert doc["certified"] is True
        assert len(doc["positions"]) == 3
        assert {"residual_inf", "iterations", "max_zero_deviation"} <= set(doc)
        # the record's fields and the certificate, value for value; the solver is not named
        assert doc == {"family": "Coulomb", "parameters": {"l": 1.0}, "n": 3, **vars(rep),
                       "certified": certified, "max_zero_deviation": deviation,
                       "positions": rep.positions.tolist()}
        assert rep.converged and "method" not in doc

    @pytest.mark.parametrize("bg, params", [
        (HermiteLinear(), {}),
        (JacobiCharges(1.0, 1.5), {"p": 1.0, "q": 1.5}),
        (CustomRational(poles=(-2.0, 2.0), residues=(-1.0, -1.0), poly=(0.0, 1.0)),
         {"poles": [-2.0, 2.0], "residues": [-1.0, -1.0], "poly": [0.0, 1.0]}),
    ])
    def test_json_parameters_per_family(self, tmp_path, bg, params):
        assert self.report(tmp_path, bg, 4, params)["parameters"] == params

    @pytest.mark.parametrize("n, pole", [(1, 0.5), (3, 0.0), (5, 0.0)])
    def test_guess_kept_off_a_custom_pole(self, tmp_path, n, pole):
        # the Chebyshev guess sat on the pole (n = 1: exit 4, "collision") or 6e-17 from it (odd n:
        # exit 3, residual 6.7e15); a point within half the guess spacing of it now starts outside that band
        params = {"poles": [pole], "residues": [-1.0], "poly": [0.0, 1.0]}
        doc = self.report(tmp_path, CustomRational((pole,), (-1.0,), (0.0, 1.0)), n, params)
        assert doc["converged"] and doc["iterations"] <= 8
        if n == 1:  # x - 1/(x - 1/2) = 0
            assert doc["positions"] == pytest.approx([0.25 + np.sqrt(17.0) / 4.0], abs=1e-14)


def chebyshev(n):
    return np.sort(np.cos((2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n)))


def levels(n):
    """The shifted quantile levels of the line guesses, (k - 1/4)/(n + 1/2) for k = 1..n."""
    return (np.arange(1, n + 1) - 0.25) / (n + 0.5)


class TestSemicircleGuess:
    """A linear field w = b + a x starts from the quantiles of its equilibrium measure, the
    semicircle on -b/a +- sqrt((2n + 1)/a), at the levels (k - 1/4)/(n + 1/2); Coulomb from those of
    the Marchenko-Pastur law (TestMarchenkoPasturGuess), Jacobi from Gatteschi and Pittaluga's
    angles (TestJacobiGuess); every other field keeps the Chebyshev (arcsine) guess."""

    @pytest.mark.parametrize("n", [1, 2, 7, 60, 301])
    def test_quantiles_of_the_semicircle(self, n):
        s = backgrounds._semicircle(n)
        cdf = 0.5 + (s * np.sqrt(1.0 - s * s) + np.arcsin(s)) / np.pi
        assert cdf == pytest.approx(levels(n), rel=0, abs=1e-14)
        assert s.tolist() == (-s[::-1]).tolist() and np.all(np.diff(s) > 0)
        if n % 2:
            assert s[n // 2] == 0.0

    @pytest.mark.parametrize("n", [10, 100, 300])
    def test_hermite_converges_in_few_steps(self, n):
        # from the Chebyshev points it took 6, 10 and 12 steps, and from the semicircle's
        # quantiles at (k - 1/2)/n on +-sqrt(2n) 4
        rep = solve_line(n, HermiteLinear())
        assert rep.converged and rep.iterations <= 3
        assert certify(rep.positions, PolynomialSpec("hermite", n))[0]

    @pytest.mark.parametrize("a, b", [(1.7, -0.3), (0.5, 1.0)])
    def test_custom_linear_converges_in_few_steps(self, a, b):
        # x = -b/a + y/sqrt(a) takes b + a x = sum 1/(x_i - x_j) to y_i = sum 1/(y_i - y_j): Hermite zeros y
        rep = solve_line(60, CustomRational(poly=(b, a)))
        assert rep.converged and rep.iterations <= 5
        assert certify(np.sqrt(a) * (rep.positions + b / a), PolynomialSpec("hermite", 60))[0]

    def test_hermite_single_point_is_the_origin(self):
        rep = solve_line(1, HermiteLinear())
        assert (rep.positions.tolist(), rep.iterations, rep.converged) == ([0.0], 0, True)
        assert not np.signbit(rep.positions[0])  # the report writes 0.0, not -0.0

    @pytest.mark.parametrize("n", [1, 5, 60, 61])
    def test_guess_is_symmetric_about_the_centre(self, n):
        hermite = default_guess(n, HermiteLinear())
        assert hermite.tolist() == (-hermite[::-1]).tolist()
        guess = default_guess(n, CustomRational(poly=(-0.3, 1.7)))
        assert np.all(np.diff(guess) > 0)
        if n % 2:
            assert guess[n // 2] == 0.3 / 1.7

    def test_equilibrium_beyond_the_floats_keeps_the_chebyshev_guess(self):
        # -b/a = -1e310 overflows: the semicircle guess would be -inf, which the line refuses as
        # invalid input (exit 2); from the Chebyshev guess the solve is non-convergence (exit 3)
        bg = CustomRational(poly=(1e10, 1e-300))
        assert default_guess(3, bg).tolist() == (np.sqrt(6.0) * chebyshev(3)).tolist()
        assert not solve_line(3, bg).converged

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_other_fields_keep_the_chebyshev_guess(self, n):
        c = chebyshev(n)
        assert default_guess(n, JacobiCharges(0.25, 0.25)) == pytest.approx(c, rel=0, abs=1e-15)
        line = np.sqrt(2.0 * n) * c if n > 1 else np.array([0.5])
        for bg in (CustomRational(poles=(-9.0, 9.0), residues=(-1.0, -1.0), poly=(0.0, 1.0)),
                   CustomRational(poly=(0.0, 1.0, 0.0)), CustomRational(poly=(0.0, -1.0))):
            assert default_guess(n, bg).tolist() == line.tolist()


def marchenko_pastur_cdf(x, n, alpha):
    """The law's CDF at each x, in mpmath at 30 digits: its closed form in th, x = m - r cos th."""
    import mpmath

    with mpmath.workdps(30):
        m = mpmath.mpf(2 * n + 1) + alpha
        r = mpmath.sqrt((m - alpha) * (m + alpha))
        cdf = []
        for xk in x:
            th = mpmath.acos((m - mpmath.mpf(xk)) / r)
            top = m * th + r * mpmath.sin(th) - 2 * alpha * mpmath.atan((m + r) / alpha * mpmath.tan(th / 2))
            cdf.append(float(top / (mpmath.pi * (m - alpha))))
        return np.array(cdf), float(m - r), float(m + r)


class TestMarchenkoPasturGuess:
    """Coulomb(l), whose stationary points are the Laguerre(2l + 1) zeros, starts from the quantiles of
    the Marchenko-Pastur law, their equilibrium measure, at the levels (k - 1/4)/(n + 1/2); from the
    Chebyshev points on [0.5, 4n + 0.5] it took up to 17 steps at these n."""

    @pytest.mark.parametrize("l", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 60, 301])
    def test_quantiles_of_the_marchenko_pastur_law(self, n, l):
        pytest.importorskip("mpmath")
        x = default_guess(n, Coulomb(l))
        cdf, a, b = marchenko_pastur_cdf(x, n, 2.0 * l + 1.0)
        assert cdf == pytest.approx(levels(n), rel=0, abs=1e-14)
        assert 0 < a < x[0] and x[-1] < b and np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("l", [0.0, 1.0, 100.0])
    @pytest.mark.parametrize("n", [10, 100, 300])
    def test_coulomb_converges_in_few_steps(self, n, l):
        # from the law's quantiles at (k - 1/2)/n it took up to 5 steps.  At l = 0, n = 300 the third
        # step ends 1.1e-13 from the zeros but at max|F| 1.11e-12, above the absolute tol: one more
        # step, at the rounding floor, a known defect of the absolute tol
        bg = Coulomb(l)
        rep = solve_line(n, bg)
        assert rep.converged and rep.iterations <= (4 if (n, l) == (300, 0.0) else 3)
        assert certify(rep.positions, bg.polynomial_spec(n))[0]

    @pytest.mark.parametrize("l", [1e40, 1e300, 1e308])
    def test_coulomb_beyond_the_floats_keeps_the_chebyshev_guess(self, l):
        # the quantiles round to one float (1e40), alpha^2 overflows (inf) or m + alpha does (NaN)
        c = chebyshev(3)
        assert default_guess(3, Coulomb(l)).tolist() == (6.0 * (c + 1.0) + 0.5).tolist()

    def test_coulomb_beyond_the_floats_exits_3_at_a_finite_residual(self, tmp_path):
        # the unguarded quantiles started the solve from NaN: 0 steps and "residual_inf": null
        argv = ["--quiet", "--out", str(tmp_path), "equilibrium", "--family", "coulomb", "--l", "1e300", "--n", "3"]
        assert cli.main(argv) == cli.EXIT_NONCONVERGENCE
        doc = json.loads((tmp_path / "equilibrium.json").read_text())
        assert doc["converged"] is False and doc["iterations"] == 200 and np.isfinite(doc["residual_inf"])


class TestJacobiGuess:
    """JacobiCharges(p, q), whose stationary points are the Jacobi(alpha, beta) zeros, alpha = 2p - 1
    and beta = 2q - 1, starts from Gatteschi and Pittaluga's angles; from the Chebyshev points it
    took 6 to 9 steps."""

    @pytest.mark.parametrize("p, q", [(0.5, 0.5), (1.0, 1.5), (0.75, 0.3)])
    @pytest.mark.parametrize("n", [50, 200, 400])
    def test_guess_near_the_zeros_and_few_steps(self, n, p, q):
        bg = JacobiCharges(p, q)
        guess = default_guess(n, bg)
        assert np.abs(guess - orthopoly.zeros(bg.polynomial_spec(n))).max() <= 2.5 / n**2
        # Jacobi 1/2 stops at the absolute tolerance's rounding floor (a known defect), not converged
        assert stationary(guess, -1.0, bg, 1e-12, 200).iterations <= 4

    @pytest.mark.parametrize("n", [2, 50, 301])
    def test_chebyshev_weight_gives_the_chebyshev_points(self, n):
        # alpha = beta = -1/2: theta_k = pi (k - 1/2)/n (n = 1, 4 and 9 in test_other_fields_keep_the_chebyshev_guess)
        assert default_guess(n, JacobiCharges(0.25, 0.25)) == pytest.approx(chebyshev(n), rel=0, abs=1e-15)

    def test_charges_beyond_the_floats_keep_the_chebyshev_guess(self):
        # every angle rounds to pi/2: repeated points, which the field refuses as a collision
        assert default_guess(3, JacobiCharges(1e300, 1e300)).tolist() == chebyshev(3).tolist()


class TestGapGuess:
    """A custom field with real poles, negative residues and no polynomial (Stieltjes' problem) holds
    its points in the gaps between the poles: each gap takes Chebyshev points, as many as its share
    of n by width, by largest remainder."""

    BG = CustomRational(poles=(-1.0, 0.3, 1.0), residues=(-0.5, -0.25, -0.4))

    @pytest.mark.parametrize("n, counts", [(1, [1, 0]), (6, [4, 2]), (20, [13, 7])])
    def test_each_gap_holds_its_count(self, n, counts):
        # widths 1.3 and 0.7: shares 3.9 and 2.1 at n = 6
        guess = default_guess(n, self.BG)
        assert [np.sum((guess > -1.0) & (guess < 0.3)), np.sum((guess > 0.3) & (guess < 1.0))] == counts
        assert guess[:counts[0]] == pytest.approx(-0.35 + 0.65 * chebyshev(counts[0]), rel=0, abs=1e-15)

    @pytest.mark.parametrize("n, counts", [(6, [4, 2]), (20, [13, 7])])
    def test_stieltjes_problem_converges(self, tmp_path, n, counts):
        # from the Chebyshev points on +-sqrt(2n) it exited 3 after 24 steps, at residual 1.5e-7 and 7.7e-7
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"equilibrium": {
            "family": "custom", "n": n, "poles": [-1.0, 0.3, 1.0], "residues": [-0.5, -0.25, -0.4]}}))
        assert cli.main(["--quiet", "--config", str(config), "--out", str(tmp_path), "equilibrium"]) == 0
        x = np.array(json.loads((tmp_path / "equilibrium.json").read_text())["positions"])
        assert [np.sum((x > -1.0) & (x < 0.3)), np.sum((x > 0.3) & (x < 1.0))] == counts

    def test_largest_remainder(self):
        assert backgrounds._gap_counts(4, np.array([1.0, 1.0, 1.0])).tolist() == [2, 1, 1]
        assert backgrounds._gap_counts(7, np.array([0.5, 3.0, 1.0, 2.5])).tolist() == [1, 3, 1, 2]

    @pytest.mark.parametrize("bg", [
        CustomRational(poles=(-9.0, 9.0), residues=(-1.0, 1.0)),  # a positive residue
        CustomRational(poles=(-9.0, 9.0), residues=(-1.0, -1.0), poly=(0.0, 1.0)),  # a polynomial
        CustomRational(poles=(9.0,), residues=(-1.0,)),  # one pole: no gap
        CustomRational(poles=(-1e308, 1e308), residues=(-1.0, -1.0)),  # a gap wider than the floats
    ])
    def test_other_pole_fields_keep_the_chebyshev_guess(self, bg):
        assert default_guess(4, bg).tolist() == (np.sqrt(8.0) * chebyshev(4)).tolist()


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
    x = np.linspace(-50.0, 50.0, n)
    peaks = {
        "velocity": peak_mib(lambda: velocity(z, kappa, NoFlow(), 1e-12)),
        "conserved": peak_mib(lambda: conserved(z, kappa)),
        "kirchhoff_energy": peak_mib(lambda: kirchhoff_energy(x, -1.0, HermiteLinear())),
    }
    assert all(p < 100.0 for p in peaks.values()), peaks


def test_pair_jacobian_peaks_at_its_result():
    # the matrix it returns and one block of rows: a full difference matrix and its square cost 3x
    n = 2000
    rng = np.random.default_rng(6)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    result_mib = n * n * 16 / 2**20
    assert peak_mib(lambda: pair_jacobian(z, 1.0)) < 1.5 * result_mib


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
                                      lambda: ConjugateLinear(np.nan), lambda: ConjugateLinear(np.inf)])
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
            default_guess(3, NoFlow())

    @pytest.mark.parametrize("bg", [CustomRational(), CustomRational(poly=(0.0,)),
                                    CustomRational(poles=(2.0,), residues=(0.0,), poly=(0.0, 0.0))],
                             ids=repr)
    def test_zero_custom_field_has_no_equilibrium(self, bg):
        # refused by its field, not by its type
        with pytest.raises(ValueError, match="not zero"):
            default_guess(3, bg)


class TestWhereTheFieldIsDefined:
    """kirchhoff_field is the one check: a point within eps of another point or of a pole raises
    CollisionError, found in the pair pass before any division, for every caller of the field."""

    @staticmethod
    def entry_points():
        return {
            "velocity": lambda z, bg: vortex.velocity(np.asarray(z, dtype=complex), 1.0, bg, 1e-12),
            "stationary_line": lambda z, bg: stationary(np.asarray(z, dtype=float), -1.0, bg, 1e-12, 200),
            "stationary_plane": lambda z, bg: stationary(np.asarray(z, dtype=complex), 3.0, ConjugateLinear(),
                                                         1e-10, 200),
        }

    def test_exception_hierarchy(self):
        assert issubclass(CollisionError, DomainError) and issubclass(DomainError, ValueError)
        assert vortex.CollisionError is cli.CollisionError is vortexkit.CollisionError is CollisionError
        assert vortexkit.DomainError is DomainError

    @pytest.mark.parametrize("name", ["velocity", "stationary_line", "stationary_plane"])
    def test_coincident_pair_raises_before_dividing(self, name):
        call = self.entry_points()[name]
        bg = HermiteLinear()
        # the pair in different row blocks, and -0.0 against 0.0
        z = np.linspace(-3.0, 3.0, _BLOCK + 5)
        z[-1] = z[2]
        for x in (z, np.array([0.0, 2.0, -0.0])):
            with np.errstate(all="raise"), pytest.raises(CollisionError):
                call(x, bg)

    @pytest.mark.parametrize("name", ["velocity", "stationary_line"])
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
                assert np.isnan(vortex.velocity(z * (1.0 + 1.0j), 1.0, Coulomb(1.0), 1e-12)).all()

    @pytest.mark.parametrize("z, bg, what", [
        (np.array([0.0, np.nan, 1.0]), Coulomb(1.0), "pole"),
        (np.array([0.5, np.nan, 0.5, 2.0]), NoFlow(), "pairwise"),  # the pair in the NaN's row block
    ], ids=["point_on_pole", "pair"])
    def test_nan_does_not_hide_a_collision(self, z, bg, what):
        with np.errstate(all="raise"), pytest.raises(CollisionError, match=what):
            vortex.velocity(z * (1.0 + 1.0j), 1.0, bg, 1e-12)

    def test_one_pair_pass_per_evaluation(self, monkeypatch):
        passes = []
        blocks = backgrounds._row_blocks
        monkeypatch.setattr(backgrounds, "_row_blocks", lambda *a, **k: passes.append(1) or blocks(*a, **k))
        z = np.exp(2j * np.pi * np.arange(5) / 5)
        for call in (lambda: velocity(z, np.ones(5), Coulomb(1.0), 1e-12),
                     lambda: kirchhoff_field(z, 1, ConjugateLinear(0.25)),
                     lambda: kirchhoff_field(np.arange(1.0, 6.0), -1.0, Coulomb(1.0)),
                     lambda: kirchhoff_energy(z, 1, ConjugateLinear(0.25)),
                     lambda: conserved(z, np.ones(5))):
            passes.clear()
            call()
            assert len(passes) == 1
