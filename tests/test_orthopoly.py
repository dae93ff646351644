"""Orthogonal polynomial oracle tests."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.special import roots_genlaguerre, roots_hermite, roots_jacobi

from vortexkit import orthopoly
from vortexkit.orthopoly import PolynomialSpec, ode_residual_relative, recurrence, zeros


def monic_recurrence_from_moments(moments, n):
    """Exact monic recurrence from raw moments via Gram-Schmidt over Fractions.

    a_k = <x p_k, p_k>/<p_k, p_k>, b_k = <p_k, p_k>/<p_{k-1}, p_{k-1}>, b_0 = m_0.
    """

    def inner(pc, qc):
        return sum(
            ci * cj * moments[i + j] for i, ci in enumerate(pc) for j, cj in enumerate(qc)
        )

    def shift(pc):  # multiply by x
        return [Fraction(0)] + list(pc)

    polys = [[Fraction(1)]]
    a, b = [], [moments[0]]
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
    p, d, _, e = orthopoly._eval_all(recurrence(spec), spec.n, x)
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
        # The unscaled monic recurrence overflows here; the polish and the ODE
        # certificate must not.
        x = zeros(spec)
        ref = roots(*args)[0]
        assert np.all(np.isfinite(x))
        assert np.all(np.diff(x) > 0)
        assert np.abs(x - ref).max() <= 1e-14 * np.abs(ref).max()
        res = ode_residual_relative(spec, x)
        assert np.all(np.isfinite(res)) and np.abs(res).max() <= 1e-8

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
            p, d, _, _ = orthopoly._eval_all(rec, spec.n, x)
            # Newton correction below 1e-12 at the returned zero
            assert abs(p) <= 1e-12 * abs(d) * max(1.0, abs(x))
            assert abs(ode_residual_relative(spec, x)) < 1e-8


def eval_unscaled(rec, n, x):
    """The unscaled scalar monic recurrence: p, p', p'' at x (overflows at large n)."""
    p_prev, p, d_prev, d, s_prev, s = 0.0, 1.0, 0.0, 0.0, 0.0, 0.0
    for k in range(n):
        ak, bk = rec.a[k], (rec.b[k] if k >= 1 else 0.0)
        p_prev, p = p, (x - ak) * p - bk * p_prev
        d_prev, d = d, (x - ak) * d + p_prev - bk * d_prev
        s_prev, s = s, (x - ak) * s + 2.0 * d_prev - bk * s_prev
    return p, d, s


def ode_residual_relative_unscaled(spec, x):
    """Relative ODE residual from `eval_unscaled`, each family's terms written out."""
    n, al, be = spec.n, spec.alpha, spec.beta
    p, d, s = eval_unscaled(recurrence(spec), n, x)
    if spec.family == "hermite":
        terms = (s, -2.0 * x * d, 2.0 * n * p)
        scale = abs(s) + 2.0 * abs(x) * abs(d) + 2.0 * n * abs(p)
    elif spec.family == "laguerre":
        terms = (x * s, (al + 1.0 - x) * d, n * p)
        scale = abs(x) * abs(s) + (abs(al + 1.0) + abs(x)) * abs(d) + n * abs(p)
    else:
        terms = ((1.0 - x * x) * s, (be - al - (al + be + 2.0) * x) * d, n * (n + al + be + 1.0) * p)
        scale = (abs(1.0 - x * x) * abs(s) + (abs(be - al) + (al + be + 2.0) * abs(x)) * abs(d)
                 + n * (n + al + be + 1.0) * abs(p))
    return 0.0 if scale == 0.0 else sum(terms) / scale


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
        p, d, _, e = orthopoly._eval_all(recurrence(spec), n, x)
        rel = ode_residual_relative(spec, x)
        compared = 0
        with np.errstate(all="ignore"):
            values, slopes = np.ldexp(p, e), np.ldexp(d, e)
            for i, xi in enumerate(x):
                pr, dr, sr = eval_unscaled(recurrence(spec), n, float(xi))
                ref = ode_residual_relative_unscaled(spec, float(xi))
                if np.isfinite([pr, dr, sr]).all() and dr != 0.0:
                    assert p[i] / d[i] == pr / dr
                    assert (values[i], slopes[i]) == (pr, dr)
                    compared += 1
                if np.isfinite(ref):
                    assert rel[i] == ref
        # the unscaled Laguerre recurrence overflows at every point of degree 250
        assert compared > 0 or (family, n) == ("laguerre", 250)

    def test_finite_where_unscaled_overflows(self):
        spec = PolynomialSpec("laguerre", 500, alpha=50.0)
        x = zeros(spec)
        with np.errstate(all="ignore"):
            ref = [ode_residual_relative_unscaled(spec, float(xi)) for xi in x]
        assert not np.all(np.isfinite(ref))
        res = ode_residual_relative(spec, x)
        assert np.all(np.isfinite(res)) and np.abs(res).max() <= 1e-8
        assert np.all(np.isfinite(orthopoly._eval_all(recurrence(spec), spec.n, x)[:3]))


class TestOdeResidual:
    def test_hermite_identity(self):
        assert abs(ode_residual_relative(PolynomialSpec("hermite", 3), 0.3)) < 1e-10

    def test_laguerre_identity(self):
        assert abs(ode_residual_relative(PolynomialSpec("laguerre", 2, alpha=1.0), 1.0)) < 1e-10

    @pytest.mark.parametrize("x", [-1.0, 1.0])
    def test_jacobi_endpoints(self, x):
        assert abs(ode_residual_relative(PolynomialSpec("jacobi", 2), x)) < 1e-12

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
                assert abs(ode_residual_relative(spec, x)) < 1e-10


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
