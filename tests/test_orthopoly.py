"""Orthogonal polynomial oracle tests."""

import inspect
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import roots_genlaguerre, roots_hermite, roots_jacobi

from vortexkit import orthopoly
from vortexkit.backgrounds import Coulomb, HermiteLinear, JacobiCharges, default_guess, stationary
from vortexkit.orthopoly import PolynomialSpec, certify, newton_step, recurrence, zeros


def monic_recurrence_from_moments(moments, n):
    """Exact monic recurrence from raw moments via Gram-Schmidt over Fractions.

    a_k = <x p_k, p_k>/<p_k, p_k>, b_k = <p_k, p_k>/<p_{k-1}, p_{k-1}>, b_0 = 0 (there is no p_{-1}).
    """

    def inner(pc, qc):
        return sum(
            ci * cj * moments[i + j] for i, ci in enumerate(pc) for j, cj in enumerate(qc)
        )

    def shift(pc):  # multiply by x
        return [Fraction(0)] + list(pc)

    polys = [[Fraction(1)]]
    a, b = [], [Fraction(0)]
    for k in range(n):
        pk = polys[k]
        norm = inner(pk, pk)
        ak = inner(shift(pk), pk) / norm
        a.append(ak)
        if k >= 1:
            b.append(norm / inner(polys[k - 1], polys[k - 1]))
        if k + 1 < n:
            # p_{k+1} = (x - a_k) p_k - b_k p_{k-1}
            nxt = shift(pk)
            nxt = [nxt[i] - (ak * pk[i] if i < len(pk) else Fraction(0)) for i in range(len(nxt))]
            if k >= 1:
                bk, prev = b[k], polys[k - 1]
                nxt = [nxt[i] - (bk * prev[i] if i < len(prev) else Fraction(0)) for i in range(len(nxt))]
            polys.append(nxt)
    return a, b


class TestRecurrence:
    def test_hermite_symmetric_weight(self):
        rec = recurrence(PolynomialSpec("hermite", 12))
        assert np.all(rec.a == 0.0)
        assert np.all(rec.b[1:] > 0)

    def test_laguerre_alpha0_closed_form(self):
        rec = recurrence(PolynomialSpec("laguerre", 6))
        k = np.arange(6)
        assert rec.a == pytest.approx(2 * k + 1)
        assert rec.b[1:] == pytest.approx(k[1:] ** 2)

    def test_laguerre_alpha0_moment_oracle(self):
        # weight e^{-x} on (0, inf): raw moments are k!
        from math import factorial

        moments = [Fraction(factorial(k)) for k in range(10)]
        a, b = monic_recurrence_from_moments(moments, 4)
        rec = recurrence(PolynomialSpec("laguerre", 4))
        assert rec.a == pytest.approx([float(v) for v in a])
        assert rec.b == pytest.approx([float(v) for v in b])

    def test_legendre_moment_oracle(self):
        # weight 1 on (-1, 1): moments 2/(k+1) for even k, 0 for odd
        moments = [Fraction(2, k + 1) if k % 2 == 0 else Fraction(0) for k in range(10)]
        a, b = monic_recurrence_from_moments(moments, 4)
        rec = recurrence(PolynomialSpec("jacobi", 4))
        assert rec.a == pytest.approx([float(v) for v in a], abs=1e-15)
        assert rec.b == pytest.approx([float(v) for v in b])
        k = np.arange(1, 4)
        assert rec.b[1:] == pytest.approx(k**2 / (4.0 * k**2 - 1.0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="hermite", n=0),
            dict(family="laguerre", n=2, alpha=-1.0),
            dict(family="jacobi", n=2, alpha=0.0, beta=-2.0),
            dict(family="chebyshev", n=2),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            PolynomialSpec(**kwargs)


def monic_value_and_slope(spec, x):
    """p(x) and p'(x) of the monic polynomial, from `_eval_all`'s scaled values."""
    p, d, _, e = orthopoly._eval_all(recurrence(spec), x, rows=3)
    return np.ldexp(p, e), np.ldexp(d, e)


class TestEvaluate:
    def test_hermite_n2_at_origin(self):
        v, d = monic_value_and_slope(PolynomialSpec("hermite", 2), 0.0)
        assert v == pytest.approx(-0.5)
        assert d == 0.0

    def test_laguerre_linear_zero(self):
        v, _ = monic_value_and_slope(PolynomialSpec("laguerre", 1, alpha=1.0), 2.0)
        assert v == 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            PolynomialSpec("hermite", 1),
            PolynomialSpec("laguerre", 1, alpha=2.5),
            PolynomialSpec("jacobi", 1, alpha=0.5, beta=1.5),
        ],
    )
    def test_degree_one_vanishes_at_own_zero(self, spec):
        x0 = zeros(spec)[0]
        v, _ = monic_value_and_slope(spec, x0)
        assert abs(v) < 1e-14


class TestZeros:
    def test_hermite_n2(self):
        assert zeros(PolynomialSpec("hermite", 2)) == pytest.approx(
            [-1 / np.sqrt(2), 1 / np.sqrt(2)]
        )

    def test_hermite_n3(self):
        assert zeros(PolynomialSpec("hermite", 3)) == pytest.approx(
            [-np.sqrt(1.5), 0.0, np.sqrt(1.5)], abs=1e-14
        )

    def test_laguerre_linear(self):
        assert zeros(PolynomialSpec("laguerre", 1, alpha=1.0)) == pytest.approx([2.0])

    @pytest.mark.parametrize("family,kwargs", [
        ("hermite", {}),
        ("laguerre", {"alpha": 1.0}),
        ("jacobi", {"alpha": 0.5, "beta": 1.5}),
    ])
    def test_interlacing(self, family, kwargs):
        for n in range(1, 51):
            lo = zeros(PolynomialSpec(family, n, **kwargs))
            hi = zeros(PolynomialSpec(family, n + 1, **kwargs))
            assert np.all(hi[:-1] < lo) and np.all(lo < hi[1:])

    def test_hermite_symmetry(self):
        for n in (2, 7, 20):
            x = zeros(PolynomialSpec("hermite", n))
            assert np.abs(x + x[::-1]).max() < 1e-14

    def test_jacobi_equal_parameters_symmetry(self):
        x = zeros(PolynomialSpec("jacobi", 9, alpha=1.5, beta=1.5))
        assert np.abs(x + x[::-1]).max() < 1e-14

    @pytest.mark.parametrize("spec,roots,args", [
        (PolynomialSpec("hermite", 300), roots_hermite, (300,)),
        (PolynomialSpec("hermite", 1000), roots_hermite, (1000,)),
        (PolynomialSpec("laguerre", 200, alpha=3.0), roots_genlaguerre, (200, 3.0)),
        (PolynomialSpec("jacobi", 1000), roots_jacobi, (1000, 0.0, 0.0)),
    ], ids=["hermite300", "hermite1000", "laguerre3_200", "jacobi1000"])
    def test_large_n_finite_and_accurate(self, spec, roots, args):
        # The unscaled monic recurrence overflows here; the polish and the Newton
        # step that certifies it must not.
        x = zeros(spec)
        ref = roots(*args)[0]
        assert np.all(np.isfinite(x))
        assert np.all(np.diff(x) > 0)
        assert np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()
        step = newton_step(spec, x)
        assert np.all(np.isfinite(step)) and np.all(np.abs(step) <= 1e-13 * np.maximum(1.0, np.abs(x)))

    def test_domains(self):
        assert np.all(zeros(PolynomialSpec("laguerre", 15, alpha=3.0)) > 0)
        xj = zeros(PolynomialSpec("jacobi", 15, alpha=2.0, beta=0.5))
        assert np.all((-1 < xj) & (xj < 1))

    @pytest.mark.parametrize("spec", [
        PolynomialSpec("hermite", 25),
        PolynomialSpec("laguerre", 20, alpha=5.0),
        PolynomialSpec("jacobi", 20, alpha=2.0, beta=1.0),
    ])
    def test_zero_certification(self, spec):
        rec = orthopoly.recurrence(spec)
        for x in zeros(spec):
            p, d, _, _ = orthopoly._eval_all(rec, x, rows=3)
            # Newton correction below 1e-12 at the returned zero
            assert abs(p) <= 1e-12 * abs(d) * max(1.0, abs(x))
            assert newton_step(spec, x) == p / d  # the same ratio from two rows as from three


DOMAINS = {"hermite": (-np.inf, np.inf), "laguerre": (0.0, np.inf), "jacobi": (-1.0, 1.0)}
WEIGHT_PARAMETER = st.floats(-1.0, 300.0, exclude_min=True)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(family=st.sampled_from(sorted(DOMAINS)), n=st.integers(1, 200), alpha=WEIGHT_PARAMETER,
       beta=WEIGHT_PARAMETER)
# 2 + alpha + beta, formed as 2 + (alpha + beta), cancelled: the first zero fell below -1
@example(family="jacobi", n=81, alpha=-0.99995, beta=-0.9999999998)
def test_zeros_of_every_family_and_weight(family, n, alpha, beta):
    # the weight's total mass, gamma(alpha + 1) and the like, overflowed past 171 and is not needed
    lo, hi = DOMAINS[family]
    x = zeros(PolynomialSpec(family, n, alpha, beta))
    y = zeros(PolynomialSpec(family, n + 1, alpha, beta))
    assert np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)
    assert lo < x[0] and x[-1] < hi
    assert np.all(y[:-1] < x) and np.all(x < y[1:])
    assert np.all(np.abs(newton_step(PolynomialSpec(family, n, alpha, beta), x)) <= 1e-12 * np.maximum(1.0, np.abs(x)))


def eval_unscaled(rec, n, x):
    """The unscaled scalar monic recurrence: p, p' at x (overflows at large n)."""
    p_prev, p, d_prev, d = 0.0, 1.0, 0.0, 0.0
    for k in range(n):
        ak, bk = rec.a[k], (rec.b[k] if k >= 1 else 0.0)
        p_prev, p = p, (x - ak) * p - bk * p_prev
        d_prev, d = d, (x - ak) * d + p_prev - bk * d_prev
    return p, d


def step_unscaled(spec, x):
    """The Newton step p/p' from `eval_unscaled`."""
    p, d = eval_unscaled(recurrence(spec), spec.n, x)
    return p / d


class TestRescaledRecurrence:
    @pytest.mark.parametrize("family,kwargs", [
        ("hermite", {}),
        ("laguerre", {"alpha": 3.0}),
        ("jacobi", {"alpha": 0.5, "beta": -0.5}),
    ])
    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 33, 100, 250])
    def test_matches_unscaled_reference(self, family, kwargs, n):
        # Power-of-two rescaling is exact: ratios are bit-identical wherever
        # the unscaled recurrence is finite.
        spec = PolynomialSpec(family, n, **kwargs)
        z = zeros(spec)
        x = np.concatenate([z, np.random.default_rng(n).uniform(z[0] - 1.0, z[-1] + 1.0, 20)])
        p, d, _, e = orthopoly._eval_all(recurrence(spec), x, rows=3)
        step = newton_step(spec, x)
        compared = 0
        with np.errstate(all="ignore"):
            values, slopes = np.ldexp(p, e), np.ldexp(d, e)
            for i, xi in enumerate(x):
                pr, dr = eval_unscaled(recurrence(spec), n, float(xi))
                if np.isfinite([pr, dr]).all() and dr != 0.0:
                    assert p[i] / d[i] == pr / dr
                    assert step[i] == pr / dr
                    assert (values[i], slopes[i]) == (pr, dr)
                    compared += 1
        # the unscaled Laguerre recurrence overflows at every point of degree 250
        assert compared > 0 or (family, n) == ("laguerre", 250)

    @pytest.mark.parametrize("family,kwargs", [
        ("hermite", {}),
        ("laguerre", {"alpha": 3.0}),
        ("jacobi", {"alpha": 0.5, "beta": -0.5}),
    ])
    @pytest.mark.parametrize("n", [5, 40, 300])
    def test_fewer_rows_are_the_leading_rows(self, family, kwargs, n):
        # each row steps the same way at every rows; only the shared exponent e may differ
        spec = PolynomialSpec(family, n, **kwargs)
        z = zeros(spec)
        x = np.concatenate([z, np.linspace(z[0] - 1.0, z[-1] + 1.0, 41)])
        *full, e3 = orthopoly._eval_all(recurrence(spec), x, rows=3)
        for rows in (1, 2):
            *lead, e = orthopoly._eval_all(recurrence(spec), x, rows=rows)
            assert len(lead) == rows
            with np.errstate(over="ignore", divide="ignore"):  # even Hermite has p' = 0 at x = 0
                for got, ref in zip(lead, full):
                    assert np.ldexp(got, e).tobytes() == np.ldexp(ref, e3).tobytes()
                if rows == 2:
                    assert (lead[0] / lead[1]).tobytes() == (full[0] / full[1]).tobytes()

    def test_rows_has_no_default(self):
        # each caller steps only the rows it reads: newton_step 2, paraxial's Laguerre factor 1
        assert inspect.signature(orthopoly._eval_all).parameters["rows"].default is inspect.Parameter.empty

    def test_finite_where_unscaled_overflows(self):
        spec = PolynomialSpec("laguerre", 500, alpha=50.0)
        x = zeros(spec)
        with np.errstate(all="ignore"):
            ref = [step_unscaled(spec, float(xi)) for xi in x]
        assert not np.all(np.isfinite(ref))
        step = newton_step(spec, x)
        assert np.all(np.isfinite(step)) and np.all(np.abs(step) <= 1e-13 * np.maximum(1.0, np.abs(x)))
        assert np.all(np.isfinite(orthopoly._eval_all(recurrence(spec), x, rows=3)[:3]))


class TestNewtonStep:
    """p/p' of the monic polynomial: the unscaled ratio where that is finite, large away from the zeros."""

    def test_hermite_closed_form(self):
        # p = x^3 - 3x/2, p' = 3x^2 - 3/2
        assert newton_step(PolynomialSpec("hermite", 3), 0.3) == pytest.approx((0.027 - 0.45) / (0.27 - 1.5), rel=1e-15)

    def test_laguerre_closed_form(self):
        # alpha = 1: p = x^2 - 6x + 6, p' = 2x - 6; at x = 1 the step is 1/(-4)
        assert newton_step(PolynomialSpec("laguerre", 2, alpha=1.0), 1.0) == -0.25

    @pytest.mark.parametrize("x", [-1.0, 1.0])
    def test_jacobi_endpoints(self, x):
        # Legendre: p = x^2 - 1/3, p' = 2x; the step at +-1 is +-1/3
        assert newton_step(PolynomialSpec("jacobi", 2), x) == pytest.approx(x / 3.0, rel=1e-15)

    def test_random_points_all_families(self):
        rng = np.random.default_rng(7)
        for spec in (
            PolynomialSpec("hermite", 11),
            PolynomialSpec("laguerre", 9, alpha=2.0),
            PolynomialSpec("jacobi", 13, alpha=0.5, beta=2.5),
        ):
            for x in rng.uniform(-0.9, 0.9, size=10):
                if spec.family == "laguerre":
                    x = abs(x) * 10 + 0.1
                assert newton_step(spec, x) == step_unscaled(spec, x)

    @pytest.mark.parametrize("spec", [
        PolynomialSpec("hermite", 20),
        PolynomialSpec("laguerre", 20, alpha=3.0),
        PolynomialSpec("jacobi", 20, alpha=0.5, beta=-0.5),
    ])
    def test_large_between_zeros(self, spec):
        # a point halfway between two zeros is half their gap from either, and its step is of that
        # order; the steps at the zeros themselves are rounding
        x = zeros(spec)
        mid = 0.5 * (x[1:] + x[:-1])
        assert np.all(np.abs(newton_step(spec, mid)) >= 0.1 * np.diff(x))
        assert np.all(np.abs(newton_step(spec, x)) <= 1e-13 * np.maximum(1.0, np.abs(x)))


# n = 157 and n = 126 with alpha and beta within 1e-8 of -1: the weight's factors nearly cancel the
# ODE's f' term, and these correct zeros once failed the ODE residual that stood before the step
def solve_line(n, bg):
    """The line solve of the `equilibrium` command: strengths -1, from the default guess."""
    return stationary(default_guess(n, bg), -1.0, bg, 1e-12, 200)


JACOBI_NEAR_MINUS_ONE = {
    157: PolynomialSpec("jacobi", 157, alpha=-0.99999999999219402, beta=-0.99999999998952838),
    126: PolynomialSpec("jacobi", 126, alpha=-0.99999999952568286, beta=-0.99999999957165897),
}


class TestCertify:
    """The rule: the sorted points within 1e-10 of the zeros; and the line solves of `stationary` under it."""

    def test_zero_deviation_bound(self):
        spec = PolynomialSpec("hermite", 3)
        ref = zeros(spec)
        certified, deviation = certify(ref[::-1] + 0.9e-10, spec)  # compared sorted
        assert certified and deviation == pytest.approx(0.9e-10, rel=1e-5)
        certified, deviation = certify(ref + 1.1e-10, spec)
        assert not certified and deviation == pytest.approx(1.1e-10, rel=1e-5)

    @pytest.mark.parametrize("n", [126, 157])
    def test_jacobi_near_minus_one(self, n):
        spec = JACOBI_NEAR_MINUS_ONE[n]
        assert certify(zeros(spec), spec) == (True, 0.0)
        assert certify(zeros(spec) + 1.1e-10, spec)[0] is False

    @pytest.mark.parametrize("residual, certified", [(1e-8, True), (-1e-8, True), (1.01e-8, False), (np.nan, False)])
    def test_ode_residual_bound(self, monkeypatch, tmp_path, residual, certified):
        # the per-point bound of 1e-8 that certify once put on the ODE residual is now the bound
        # `zeros` puts on each Newton step, relative to max(1, |x|); certify reads no such residual
        from vortexkit import cli

        spec = PolynomialSpec("laguerre", 4, alpha=3.0)
        x = zeros(spec)
        monkeypatch.setattr(orthopoly, "zeros", lambda spec: x.copy())
        monkeypatch.setattr(orthopoly, "newton_step", lambda spec, x: residual * np.maximum(1.0, np.abs(x)))
        assert certify(x, spec) == (True, 0.0)
        argv = ["--quiet", "--out", str(tmp_path), "zeros", "--family", "laguerre", "--n", "4", "--alpha", "3"]
        assert cli.main(argv) == (cli.EXIT_OK if certified else cli.EXIT_NONCONVERGENCE)

    def test_no_tolerance_parameter(self):
        assert list(inspect.signature(certify).parameters) == ["x", "spec"]

    def test_hermite_pair(self):
        rep = solve_line(2, HermiteLinear())
        certified, deviation = certify(rep.positions, PolynomialSpec("hermite", 2))
        assert certified
        assert deviation < 1e-10

    def test_perturbed_positions_rejected(self):
        rep = solve_line(2, HermiteLinear())
        assert not certify(rep.positions + 0.1, PolynomialSpec("hermite", 2))[0]

    def test_legendre_n3_closed_form(self):
        rep = solve_line(3, JacobiCharges(0.5, 0.5))
        assert certify(rep.positions, PolynomialSpec("jacobi", 3))[0]
        assert rep.positions == pytest.approx(
            [-np.sqrt(0.6), 0.0, np.sqrt(0.6)], abs=1e-10
        )

    def test_family_mismatch(self):
        rep = solve_line(3, HermiteLinear())
        with pytest.raises(ValueError):
            certify(rep.positions, PolynomialSpec("hermite", 4))

    def test_non_finite_positions_raise(self):
        # A NaN must not reach the report as certified=False, max_zero_deviation=NaN.
        with pytest.raises(ValueError):
            certify(np.array([np.nan, 0.0, 1.0]), PolynomialSpec("hermite", 3))

    def test_non_finite_reference_zeros_raise(self, monkeypatch):
        rep = solve_line(3, HermiteLinear())
        monkeypatch.setattr(orthopoly, "zeros", lambda spec: np.full(spec.n, np.nan))
        with pytest.raises(ValueError):
            certify(rep.positions, PolynomialSpec("hermite", 3))


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(n=st.integers(1, 300), l=st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)))
def test_coulomb_line_solve_matches_zeros(n, l):
    # `stationary` from the Marchenko-Pastur quantiles lands on the Laguerre(2l + 1) zeros in a few
    # steps; Jacobi is left out, as its solves stall above the absolute tol
    bg = Coulomb(l)
    rep = solve_line(n, bg)
    assert rep.converged and rep.iterations <= 7
    assert certify(rep.positions, bg.polynomial_spec(n))[0]


@pytest.mark.parametrize("spec", [
    PolynomialSpec("hermite", 100),
    PolynomialSpec("laguerre", 60, alpha=3.0),
    PolynomialSpec("jacobi", 60, alpha=0.5, beta=-0.5),
    JACOBI_NEAR_MINUS_ONE[157],
], ids=["hermite100", "laguerre3_60", "jacobi_half_60", "jacobi_near_minus_one_157"])
def test_zeros_match_mpmath(spec):
    # an oracle independent of the recurrence: mpmath's own polynomials at 40 digits, a root
    # found from each returned zero; the step's size is what `zeros` certifies
    mpmath = pytest.importorskip("mpmath")
    n, a, b = spec.n, spec.alpha, spec.beta
    poly = {"hermite": lambda t: mpmath.hermite(n, t), "laguerre": lambda t: mpmath.laguerre(n, a, t),
            "jacobi": lambda t: mpmath.jacobi(n, a, b, t)}[spec.family]
    x = zeros(spec)
    scale = np.maximum(1.0, np.abs(x))
    with mpmath.workdps(40):
        # a secant from two starting points 2^-40 apart, so that each search stays at its own zero
        truth = np.array([float(mpmath.findroot(poly, (xi, xi * (1 + 2.0**-40) + 2.0**-60), verify=False))
                          for xi in x])
    assert np.all(np.abs(x - truth) <= 1e-14 * scale)
    assert np.all(np.abs(newton_step(spec, x)) <= 1e-13 * scale)


def test_zeros_calls_the_module_eigensolver_once(monkeypatch):
    # the solver is looked up as orthopoly.eigh_tridiagonal on every call, so a wrapper
    # set there (as a tracer sets one) sees the eigensolve
    spec = PolynomialSpec(orthopoly.JACOBI, 40, 0.5, -0.25)
    expected = zeros(spec)
    calls = []
    solver = orthopoly.eigh_tridiagonal

    def counting(*args, **kwargs):
        calls.append(args)
        return solver(*args, **kwargs)

    monkeypatch.setattr(orthopoly, "eigh_tridiagonal", counting)
    got = zeros(spec)
    assert len(calls) == 1
    assert got.tobytes() == expected.tobytes()
