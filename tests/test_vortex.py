"""Kirchhoff dynamics: velocity, conservation, Hamiltonian consistency; the integrator on its own."""

import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import vortexkit
from vortexkit import backgrounds, cli, paraxial, vortex
from vortexkit.backgrounds import (
    _BLOCK, Coulomb, ConjugateLinear, CustomRational, HermiteLinear, JacobiCharges, NoFlow, kirchhoff_energy,
    kirchhoff_field,
)
from vortexkit.vortex import CollisionError, StepLimitError, conserved, integrate, velocity
from oracles import UnsupportedBackgroundError, hamiltonian_rhs, min_separation, poisson_bracket


def velocity_at(z, kappa, bg=NoFlow()):
    """The velocities of the vortices at z in bg, at the default collision_eps of `simulate`, 1e-12."""
    return velocity(z, kappa, bg, 1e-12)


def integrate_vortices(z0, kappa, bg, t_end, eps=1e-12, **kwargs):
    """integrate bound to the Kirchhoff problem of (z0, kappa) in bg, as `simulate` binds it."""
    return integrate(lambda z: velocity(z, kappa, bg, eps), lambda z: conserved(z, kappa), z0, t_end, **kwargs)


def random_admissible(rng, n, min_dist=0.1, kappa_choices=(1.0, 2.0, -1.0)):
    """Positions z at least min_dist apart and clear of 0 and +-1, and strengths kappa."""
    while True:
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, np.inf)
        if (
            d.min() >= min_dist
            and np.abs(z).min() > 0.15
            and np.abs(z - 1).min() > 0.15
            and np.abs(z + 1).min() > 0.15
        ):
            break
    return z, rng.choice(kappa_choices, size=n)


class TestRhs:
    def test_real_pair_identical_strengths(self):
        # velocities 2Gi/(x1-x2) and 2Gi/(x2-x1) in the conjugate variable
        g = 0.7
        x1, x2 = 0.3, 1.9
        v = velocity_at(np.array([x1, x2], dtype=complex), np.array([2 * g, 2 * g]))
        assert np.conj(v[0]) == pytest.approx(2 * g * 1j / (x1 - x2))
        assert np.conj(v[1]) == pytest.approx(2 * g * 1j / (x2 - x1))

    def test_unit_pair_velocity(self):
        v = velocity_at(np.array([1.0, -1.0], dtype=complex), np.array([1.0, 1.0]))
        assert v[0] == pytest.approx(-0.5j)
        assert v[1] == pytest.approx(0.5j)

    def test_single_vortex_at_rest(self):
        assert velocity_at(np.array([2.0 + 1.0j]), np.array([3.0])) == pytest.approx(np.array([0.0j]))

    def test_collision_detected(self):
        with pytest.raises(CollisionError):
            velocity_at(np.array([0.0j, 1e-13 + 0j]), np.array([1.0, 1.0]))

    def test_background_pole_collision(self):
        with pytest.raises(CollisionError):
            velocity_at(np.array([1e-14 + 0j]), np.array([1.0]), Coulomb(0.0))

    def test_translation_equivariance_free(self):
        rng = np.random.default_rng(3)
        z, kappa = random_admissible(rng, 5)
        assert np.abs(velocity_at(z, kappa) - velocity_at(z + (0.37 - 1.1j), kappa)).max() < 1e-12


class TestConserved:
    def test_symmetric_pair(self):
        qp, i, h = conserved(np.array([1.0, -1.0], dtype=complex), np.array([1.0, 1.0]))
        assert qp.real == qp.imag == 0 and i.imag == h.imag == 0
        assert i.real == pytest.approx(2.0)
        assert h.real == pytest.approx(np.log(2.0))

    def test_single_vortex_empty_energy(self):
        assert conserved(np.array([1.0 + 2.0j]), np.array([1.5]))[2] == 0.0

    def test_counter_pair_angular(self):
        assert conserved(np.array([1.0, -1.0], dtype=complex), np.array([1.0, -1.0]))[1] == pytest.approx(0.0)

    def test_interaction_energy_is_the_kirchhoff_energy_without_flow(self):
        # H is E with NoFlow, byte for byte, and the hand-written H sum within n rounding errors per
        # unit of term magnitude; the first three cases have a zero pair energy
        rng = np.random.default_rng(11)
        cases = [(np.array([0.0, 1.0 + 0j]), np.array([-1.0, -0.5])), (np.array([0.0, 1.0 + 0j]), np.array([1.0, -1.0])),
                 (np.array([0.3 + 0.1j]), np.array([-2.0]))]
        cases += [(rng.normal(size=n) + 1j * rng.normal(size=n), rng.choice([-2.0, -1.0, 0.5, 3.0], size=n))
                  for n in (1, 2, 3, _BLOCK + 3)]
        for z, kappa in cases:
            h = conserved(z, kappa)[2]
            assert h.imag == 0
            h = h.real
            assert h.tobytes() == np.float64(kirchhoff_energy(z, kappa, NoFlow())).tobytes()
            i, j = np.triu_indices(z.size, 1)
            terms = kappa[i] * kappa[j] * np.log(np.abs(z[i] - z[j]))
            assert abs(h - terms.sum()) <= z.size * np.finfo(float).eps * np.abs(terms).sum()

    def test_one_background_for_every_call(self, monkeypatch):
        # H takes the one module-level NoFlow: no background is built, nor its polynomial cache, per call
        seen = []
        energy = vortex.kirchhoff_energy
        monkeypatch.setattr(vortex, "kirchhoff_energy", lambda z, kappa, bg: seen.append(bg) or energy(z, kappa, bg))
        z, kappa = np.array([1.0, -1.0j, 2.0]), np.ones(3)
        for _ in range(3):
            conserved(z, kappa)
        assert len(seen) == 3 and all(bg is seen[0] for bg in seen) and seen[0] == NoFlow()


class TestIntegrate:
    def test_corotating_pair_period(self):
        z0 = np.array([1.0, -1.0], dtype=complex)
        traj = integrate_vortices(z0, np.array([1.0, 1.0]), NoFlow(), 4 * np.pi, rtol=1e-11, atol=1e-13)
        assert np.abs(traj.positions[-1] - z0).max() < 1e-6
        assert np.all(traj.drift < 1e-8)

    def test_single_vortex_stationary(self):
        z0 = np.array([0.4 + 0.2j])
        traj = integrate_vortices(z0, np.array([2.0]), NoFlow(), 5.0, sample_times=np.linspace(0, 5, 6))
        for z in traj.positions:
            assert z == pytest.approx(z0)

    def test_equilateral_triangle_rigid(self):
        z0 = np.exp(2j * np.pi * np.arange(3) / 3)
        # rigid rotation with angular velocity 3/(2 r^2) for unit strengths: T = 4 pi/3
        traj = integrate_vortices(z0, np.ones(3), NoFlow(), 4 * np.pi / 3, rtol=1e-11, atol=1e-13,
                                  sample_times=np.linspace(0, 4 * np.pi / 3, 9))
        d0 = np.abs(z0[:, None] - z0[None, :])
        for z in traj.positions:
            d = np.abs(z[:, None] - z[None, :])
            assert np.abs(d - d0).max() < 1e-8

    def test_time_reversal(self):
        rng = np.random.default_rng(5)
        z0, kappa = random_admissible(rng, 4, min_dist=0.5, kappa_choices=(1.0, 2.0))
        fwd = integrate_vortices(z0, kappa, NoFlow(), 1.0, rtol=1e-10, atol=1e-12)
        back = integrate_vortices(fwd.positions[-1], -kappa, NoFlow(), 1.0, rtol=1e-10, atol=1e-12)
        assert np.abs(back.positions[-1] - z0).max() < 1e-7

    def test_head_on_collision_raises(self):
        # counter-rotating pair translates head-on into the Coulomb pole at the origin
        with pytest.raises(CollisionError):
            integrate_vortices(np.array([0.05 + 1.0j, -0.05 + 1.0j]), np.array([-1.0, 1.0]), Coulomb(0.0), 50.0,
                               max_steps=20000, eps=0.06)

    def test_velocity_evaluations_per_step(self, monkeypatch):
        # DOP853 is first-same-as-last: after the initial speed estimate, each attempted step
        # evaluates stages 2-13 only, whether accepted or not, and an accepted step with a sample
        # strictly inside it evaluates the interpolant's three extra stages once.
        calls = []
        z0, kappa = np.exp(2j * np.pi * np.arange(5) / 5) * (1.0 + 0.01 * np.arange(5)), np.ones(5)

        def counted(z):
            calls.append(z)
            return velocity(z, kappa, Coulomb(1.0), 1e-12)

        def observe(z):
            return conserved(z, kappa)

        steps = 12
        with pytest.raises(StepLimitError):
            integrate(counted, observe, z0, 1e3, max_steps=steps)
        assert len(calls) == 1 + 12 * steps

        calls.clear()
        interpolants = []
        interpolate = vortex._interpolate

        def recorded(f, x):
            interpolants.append(f)
            return interpolate(f, x)

        monkeypatch.setattr(vortex, "_interpolate", recorded)
        times = np.linspace(0.0, 3.0, 31)
        traj = integrate(counted, observe, z0, 3.0, sample_times=times)
        assert len(interpolants) == 29  # every sample but the first and the last lies inside a step
        interior = len({id(f) for f in interpolants})  # one list per step, each kept alive in interpolants
        assert 0 < interior < traj.accepted
        assert traj.evaluations == len(calls) == 1 + 12 * (traj.accepted + traj.rejected) + 3 * interior

    def test_empty_sample_times_rejected(self):
        with pytest.raises(ValueError, match="sample times"):
            integrate_vortices(np.array([1.0, -1.0], dtype=complex), np.array([1.0, 1.0]), NoFlow(), 1.0,
                               sample_times=[])

    def test_coincident_vortices_collide_at_eps_zero(self):
        # the velocity is not defined there: eps = 0 refuses it instead of returning infinities
        with np.errstate(all="raise"), pytest.raises(CollisionError):
            vortex.velocity(np.array([0.5j, 1.0, 0.5j]), np.ones(3), NoFlow(), 0.0)

    def test_csv_export(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"simulate": {"positions": [[1.0, 0.0], [-1.0, 0.0]],
                                                   "strengths": [1.0, 1.0], "t_end": 1.0, "samples": 5}}))
        assert cli.main(["--config", str(config), "--out", str(tmp_path), "--quiet", "simulate"]) == 0
        path = tmp_path / "trajectory.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,y_1,x_2,y_2,Q,P,I,H"
        assert len(lines) == 6
        row = [float(v) for v in lines[1].split(",")]
        assert row[1:5] == pytest.approx([1.0, 0.0, -1.0, 0.0])


class TestStepper:
    """The one Dormand-Prince 8(5,3) tableau: its nodes, its order conditions and a closed-form run."""

    def test_row_sums_are_the_nodes(self):
        c4, c5 = (6 - np.sqrt(6)) / 30, (6 + np.sqrt(6)) / 30
        nodes = [0.0, c4 * 4 / 9, c4 * 2 / 3, c4, c5, 1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7, 1.0, 1.0,
                 1 / 10, 1 / 5, 7 / 9]  # the last three are the interpolant's extra stages
        assert vortex._A.shape == (16, 16)
        assert np.allclose(vortex._A.sum(axis=1), nodes, rtol=0, atol=1e-14)
        assert np.all(np.triu(vortex._A) == 0.0)

    def test_quadrature_conditions(self):
        c = vortex._A.sum(axis=1)[:12]
        b = vortex._A[12, :12]  # the 8th-order weights, the row of the step's result
        for k in range(8):
            assert b @ c**k == pytest.approx(1 / (k + 1), abs=1e-15)
        assert b @ c**8 != pytest.approx(1 / 9, abs=1e-6)  # b is order 8, not 9
        # each error row is b less a lower-order set of weights, so its weights sum to 0
        assert vortex._E5.sum() == pytest.approx(0.0, abs=1e-15)
        assert vortex._E3.sum() == pytest.approx(0.0, abs=1e-15)

    def test_hermite_linear_hyperbolic_flow(self):
        # w(z) = z: one vortex moves with xdot = -y, ydot = -x
        x0, y0 = 0.3, 0.7
        times = np.linspace(0.0, 2.0, 9)
        traj = integrate_vortices(np.array([x0 + 1j * y0]), np.ones(1), HermiteLinear(), 2.0, sample_times=times)
        exact = (x0 * np.cosh(times) - y0 * np.sinh(times)) + 1j * (y0 * np.cosh(times) - x0 * np.sinh(times))
        got = traj.positions[:, 0]
        assert list(traj.times) == list(times)
        assert np.all(np.abs(got - exact) <= 1e-9 * np.abs(exact))


class TestDenseOutput:
    """Samples from step ends and from the 7th-order interpolant, checked against exact answers."""

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_havelock_ring_rotates_rigidly(self, n):
        # n <= 7 identical vortices on a circle of radius r rotate rigidly at
        # omega = -kappa (n - 1) / (2 r^2) (Havelock 1931): one full turn, 11 samples
        r = 1.3
        z0 = r * np.exp(2j * np.pi * np.arange(n) / n)
        omega = -(n - 1) / (2 * r**2)
        period = 2 * np.pi / abs(omega)
        traj = integrate_vortices(z0, np.ones(n), NoFlow(), period, sample_times=np.linspace(0.0, period, 11))
        assert np.array_equal(traj.positions[0], z0)
        assert np.abs(traj.positions - z0 * np.exp(1j * omega * traj.times[:, None])).max() <= 1e-8
        # the nine inner samples lie inside nine steps, each interpolated once
        assert traj.evaluations == 1 + 12 * (traj.accepted + traj.rejected) + 3 * 9
        assert traj.evaluations <= 400

    def test_dense_sample_matches_a_run_that_ends_there(self):
        rng = np.random.default_rng(3)
        z0, kappa = rng.normal(size=5) + 1j * rng.normal(size=5), np.array([1.0, 2.0, -1.0, 1.0, -0.5])
        traj = integrate_vortices(z0, kappa, NoFlow(), 1.0, sample_times=np.linspace(0.0, 1.0, 7))
        assert traj.evaluations > 1 + 12 * (traj.accepted + traj.rejected)  # some samples were interpolated
        for t, z in zip(traj.times[1:-1], traj.positions[1:-1]):
            end = integrate_vortices(z0, kappa, NoFlow(), t)
            assert end.times[-1] == t
            assert np.abs(z - end.positions[-1]).max() <= 1e-9 * np.abs(end.positions[-1]).max()

    def test_last_step_ends_on_t_end(self):
        # a vortex at rest: its one step spans [0, t_end] and ends on t_end
        traj = integrate_vortices(np.array([0.4 + 0.2j]), np.array([2.0]), NoFlow(), 0.45)
        assert (traj.evaluations, traj.accepted, traj.rejected) == (13, 1, 0)
        assert list(traj.times) == [0.0, 0.45]

    def test_collision_in_an_interpolation_stage_propagates(self):
        calls = []
        z0, kappa = np.array([0.4 + 0.2j]), np.array([2.0])

        def colliding(z):
            calls.append(z)
            if len(calls) == 14:  # the first extra stage of the first step, after 1 + 12 evaluations
                raise CollisionError("collision in an interpolation stage")
            return velocity(z, kappa, NoFlow(), 1e-12)

        with pytest.raises(CollisionError, match="interpolation stage"):
            integrate(colliding, lambda z: conserved(z, kappa), z0, 1.0, sample_times=[0.0, 0.5, 1.0])

    def test_kirchhoff_energy_is_kept_in_a_background(self):
        # In Coulomb(1) the pair energy H is not conserved, but E = H + sum kappa_k U(z_k) is.
        kappa = np.array([1.0, -1.0, 2.0, 0.5, 1.0])
        z = np.array([1.0 + 1.0j, -1.0 + 0.5j, 2.0 - 1.0j, -0.5 - 2.0j, 3.0 + 0.2j])
        bg = Coulomb(1.0)
        traj = integrate_vortices(z, kappa, bg, 2.0, sample_times=np.linspace(0.0, 2.0, 21))
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, 1.0)
        scale = 0.5 * np.abs(np.outer(kappa, kappa) * np.log(d)).sum() + np.abs(kappa * bg.u(z)).sum()
        e0 = kirchhoff_energy(z, kappa, bg)
        drift = max(abs(kirchhoff_energy(z, kappa, bg) - e0) for z in traj.positions)
        assert drift <= 1e-9 * scale and traj.drift[2] > 1.0

    def test_readme_coulomb_example_evaluations(self):
        # the README's simulate example: +-1 in the Coulomb field l = 1, t_end 12, 101 samples
        traj = integrate_vortices(np.array([1.0, -1.0], dtype=complex), np.ones(2), Coulomb(1.0), 12.0,
                                  sample_times=np.linspace(0.0, 12.0, 101))
        assert traj.evaluations <= 3500


class TestTrajectoryArrays:
    """Samples are rows of arrays; one `observe` per accepted step, and no `conserved` in the CSV writer."""

    def test_csv_rows_are_the_arrays_bit_for_bit(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        z0, kappa = random_admissible(rng, 4, min_dist=0.5)
        trajs = []

        def recording(*args, **kwargs):
            trajs.append(integrate(*args, **kwargs))
            monkeypatch.setattr(cli, "conserved", None)  # the CSV only formats the arrays
            monkeypatch.setattr(vortex, "conserved", None)
            return trajs[-1]

        monkeypatch.setattr(cli, "integrate", recording)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"simulate": {
            "positions": np.stack([z0.real, z0.imag], -1).tolist(), "strengths": kappa.tolist(),
            "background": {"kind": "coulomb", "l": 1.0}, "t_end": 0.5, "samples": 9,
            "drift_bound": 1e300}}))  # the field moves Q+iP, I and H: no drift gate here
        assert cli.main(["--config", str(config), "--out", str(tmp_path), "--quiet", "simulate"]) == 0
        (traj,) = trajs
        assert traj.positions.shape == (9, 4) and traj.invariants.shape == (9, 3)
        for z, c in zip(traj.positions, traj.invariants):
            assert c.tobytes() == conserved(z, kappa).tobytes()
        assert np.all(traj.invariants[:, 1:].imag == 0)  # I and H are real
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x_1,y_1,x_2,y_2,x_3,y_3,x_4,y_4,Q,P,I,H"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert rows[:, 0].tobytes() == traj.times.tobytes()
        assert rows[:, 1:9:2].tobytes() == traj.positions.real.tobytes()
        assert rows[:, 2:9:2].tobytes() == traj.positions.imag.tobytes()
        q, i, h = traj.invariants.T
        assert rows[:, 9:].tobytes() == np.column_stack([q.real, q.imag, i.real, h.real]).tobytes()

    def test_drift_is_the_max_over_accepted_steps(self):
        calls = []
        rng = np.random.default_rng(9)
        z0, kappa = random_admissible(rng, 5, min_dist=0.5)

        def recording(z):
            calls.append(conserved(z, kappa))
            return calls[-1]

        bg = Coulomb(1.0)
        # samples at the start and the end: none interpolated
        traj = integrate(lambda z: velocity(z, kappa, bg, 1e-12), recording, z0, 0.5)
        assert len(calls) == 1 + traj.accepted
        # [hypot(|dQ|, |dP|), |dI|, |dH|], from the rows as the real columns Q, P, I, H
        c = np.array(calls)
        rows = np.column_stack([c[:, 0].real, c[:, 0].imag, c[:, 1].real, c[:, 2].real])
        d = np.abs(rows[1:] - rows[0])
        expected = np.array([np.hypot(d[:, 0], d[:, 1]).max(), d[:, 2].max(), d[:, 3].max()])
        assert traj.drift.tobytes() == expected.tobytes() and np.all(expected > 0)
        assert traj.invariants.tobytes() == np.array([calls[0], calls[-1]]).tobytes()


class TestIntegrateRefusesDisabledChecks:
    """Inputs that would turn off the error control, the steps or the sampling are ValueErrors."""

    pair = np.array([1.0, -1.0], dtype=complex), np.array([1.0, 1.0])
    triple = np.array([1.0, -0.5 + 0.5j, 0.2 - 0.8j]), np.array([1.0, 2.0, -1.0])
    at_rest = np.array([0.0j]), np.ones(1)

    @pytest.mark.parametrize("vortices, kwargs, match", [
        # every error estimate would be negative, so every step would be accepted
        (triple, dict(t_end=5.0, rtol=-1e-10), "rtol"),
        (pair, dict(rtol=0.0, atol=0.0, max_steps=50), "atol"),
        # the error estimate of a vortex at rest at the origin would be 0/0
        (at_rest, dict(atol=0.0, max_steps=50), "atol"),
        (pair, dict(t_end=np.nan), "t_end"),
        (pair, dict(sample_times=[0.0, np.nan, 1.0]), "sample times"),
        # no step would be taken, and that used to read as an exhausted step budget
        (pair, dict(max_steps=0), "max_steps"),
        (pair, dict(max_steps=-5), "max_steps"),
    ], ids=["negative_rtol", "zero_tolerances", "zero_atol_at_rest", "nan_t_end", "nan_sample_time",
            "zero_max_steps", "negative_max_steps"])
    def test_refused(self, vortices, kwargs, match):
        # a negative collision eps is refused by `simulate`, which binds the field
        with pytest.raises(ValueError, match=match):
            integrate_vortices(*vortices, NoFlow(), **{"t_end": 1.0, **kwargs})



class TestIntegrateKnowsNoField:
    """The loop on right-hand sides that are no vortex field: it takes velocity and observe as given."""

    def test_linear_batch_matches_the_exponential(self):
        lam = np.array([-1.0, -0.5 + 2.0j, 1.0j, 0.3 - 1.0j, -3.0 + 0.5j])
        times = np.linspace(0.0, 2.0, 21)
        traj = integrate(lambda y: lam * y, lambda y: y, np.ones(5, dtype=complex), 2.0, sample_times=times)
        exact = np.exp(lam * times[:, None])
        assert list(traj.times) == list(times)
        assert np.all(np.abs(traj.positions - exact) <= 1e-9 * np.abs(exact))

    def test_rotation_keeps_its_modulus_for_100_periods(self):
        traj = integrate(lambda y: 1j * y, np.abs, np.array([1.0 + 0.0j]), 200.0 * np.pi)
        assert traj.invariants.dtype == float and traj.drift.shape == (1,)
        assert traj.drift[0] <= 1e-8

    def test_last_step_ends_on_t_end_after_a_step(self):
        # speed 1 at |y| = 9 takes a first step of 0.01 (1 + 9) / 1 = 0.1; 0.1 + (0.45 - 0.1) is
        # 0.44999999999999996, so a step of t_end - t would stop an ulp short and take a third step
        traj = integrate(lambda y: np.ones_like(y), np.abs, np.full(1, 9.0 + 0.0j), 0.45)
        assert (traj.evaluations, traj.accepted, traj.rejected) == (25, 2, 0)
        assert list(traj.times) == [0.0, 0.45]

    def test_signature(self):
        assert list(inspect.signature(integrate).parameters) == [
            "velocity", "observe", "z0", "t_end", "rtol", "atol", "max_steps", "sample_times"]

    def test_names_no_field(self):
        # neither in its text nor among the globals it reads: the caller binds the field
        source = inspect.getsource(integrate)
        assert not re.findall(r"kirchhoff\w*|\bkappa\b|\bbg\b", source)
        read = {name for name in integrate.__code__.co_names if name in vars(vortex)}
        assert not {name for name in read if any(vars(vortex)[name] is f for f in FAST_PATH.values())}

class TestPoissonBracket:
    def test_canonical_pair(self):
        pb = poisson_bracket(lambda z: z[0].real, lambda z: z[0].imag, np.array([1.0 + 0.5j]), np.array([2.0]))
        assert pb == pytest.approx(0.5, abs=1e-9)

    def test_disjoint_coordinates(self):
        pb = poisson_bracket(lambda z: z[0].real, lambda z: z[1].imag, np.array([1.0, -1.0], dtype=complex),
                             np.array([1.0, 1.0]))
        assert pb == pytest.approx(0.0, abs=1e-10)

    def test_against_angular_impulse_gradient(self):
        kappa = np.array([2.0, 3.0])

        def angular(z):
            return float(np.sum(kappa * np.abs(z) ** 2))

        pb = poisson_bracket(lambda z: z[0].real, angular, np.array([1.0 + 0.5j, -0.7 + 0.2j]), kappa)
        # {x_1, I} = (1/kappa_1) * dI/dy_1 = 2 y_1
        assert pb == pytest.approx(2 * 0.5, abs=1e-8)

    def test_antisymmetry(self):
        rng = np.random.default_rng(9)
        z0, kappa = random_admissible(rng, 3)

        def f(z):
            return float(np.sum(z.real**2 - z.imag))

        def g(z):
            return float(np.prod(np.abs(z)))

        assert poisson_bracket(f, g, z0, kappa) == pytest.approx(-poisson_bracket(g, f, z0, kappa), abs=1e-8)


class TestHamiltonianRhs:
    @pytest.mark.parametrize("bg", [
        NoFlow(), HermiteLinear(), Coulomb(1.0), JacobiCharges(1.0, 2.0),
        # two poles and a quadratic polynomial; random_admissible keeps clear of 0 and +-1
        CustomRational(poles=(1.0, 0.0), residues=(0.7, -1.3), poly=(0.2, -0.5, 0.3)),
        CustomRational(poles=(-1.0, 1.0), residues=(0.5 - 0.25j, 2.0), poly=(0.1j, 1.0, -0.4 + 0.2j)),
    ])
    def test_matches_rhs_random(self, bg):
        rng = np.random.default_rng(17)
        for _ in range(25):
            z, kappa = random_admissible(rng, int(rng.integers(2, 7)))
            assert np.abs(velocity_at(z, kappa, bg) - hamiltonian_rhs(z, kappa, bg)).max() < 1e-12

    def test_pair_free(self):
        z, kappa = np.array([1.0, -1.0], dtype=complex), np.array([1.0, 1.0])
        assert np.abs(velocity_at(z, kappa) - hamiltonian_rhs(z, kappa)).max() < 1e-12

    def test_single_free_zero(self):
        assert hamiltonian_rhs(np.array([0.3 + 0.1j]), np.array([1.0])) == pytest.approx(np.array([0.0j]))

    def test_triangle_free(self):
        z0 = np.exp(2j * np.pi * np.arange(3) / 3)
        assert np.abs(velocity_at(z0, np.ones(3)) - hamiltonian_rhs(z0, np.ones(3))).max() < 1e-12

    def test_conjugate_linear_unsupported(self):
        with pytest.raises(UnsupportedBackgroundError):
            hamiltonian_rhs(np.array([1.0 + 0j]), np.array([1.0]), ConjugateLinear(0.25))


EPS = np.finfo(float).eps
RATIONAL_FAMILIES = [
    NoFlow(), HermiteLinear(), Coulomb(1.0), JacobiCharges(1.0, 2.0),
    CustomRational(poles=(-1.0, 1.0), residues=(0.5 - 0.25j, 2.0), poly=(0.1j, 1.0, -0.4 + 0.2j)),
]
# Deterministic and bounded: the same examples on every run, and no example database written.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)


@st.composite
def mixed_configurations(draw):
    """(z, kappa): n = 1 .. _BLOCK + 3 points spread over a disc of radius ~sqrt(n), strengths of both
    signs; about half of the sizes straddle the end of the first row block."""
    n = draw(st.integers(1, _BLOCK + 3) | st.integers(_BLOCK - 2, _BLOCK + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = np.sqrt(n) * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return z, rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 3.0], size=n) * rng.uniform(0.5, 1.5, n)


def pair_term_sizes(z, kappa):
    """|kappa_j / (z_i - z_j)| for j != i (0 on the diagonal), and |z_i - z_j| (inf on it)."""
    d = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(d, np.inf)
    return np.abs(kappa) / d, d


class TestRhsProperties:
    """The velocity across the row-block boundary: against the independent oracle, and rigid-motion equivariance."""

    @PROPERTY
    @given(vortices=mixed_configurations(), bg=st.sampled_from(RATIONAL_FAMILIES))
    def test_matches_hamiltonian_rhs(self, vortices, bg):
        z, kappa = vortices
        terms, _ = pair_term_sizes(z, kappa)
        scale = terms.sum(axis=1) + np.abs(bg.w(z))
        assert np.all(np.abs(velocity_at(z, kappa, bg) - hamiltonian_rhs(z, kappa, bg)) <= z.size * EPS * scale)

    @PROPERTY
    @given(vortices=mixed_configurations(), theta=st.floats(0.0, 2.0 * np.pi),
           shift=st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False))
    def test_rigid_motion_equivariance(self, vortices, theta, shift):
        z, kappa = vortices
        rot = np.exp(1j * theta)
        moved = velocity_at(rot * z + shift, kappa)
        # Each moved position is rounded by a few eps of |z_i| + |shift|, which moves the
        # term kappa_j/d_ij by that much relative to |d_ij|: its size grows by that factor.
        terms, d = pair_term_sizes(z, kappa)
        reach = np.abs(z)[:, None] + np.abs(z)[None, :] + 2.0 * abs(shift)
        scale = (terms * (1.0 + reach / d)).sum(axis=1)
        assert np.all(np.abs(moved - rot * velocity_at(z, kappa)) <= z.size * EPS * scale)


class TestEnergyProperties:
    """The Kirchhoff energy E across the row-block boundary: its gradient is the field."""

    @PROPERTY
    @given(vortices=mixed_configurations(), bg=st.sampled_from(RATIONAL_FAMILIES + [ConjugateLinear(0.3)]))
    def test_gradient_is_the_field(self, vortices, bg):
        # 2 dE/dz_i = dE/dx_i - i dE/dy_i = kappa_i F_i, by central differences with a step
        # of 1e-4 of the distance rho_i to the nearest point or pole, at the first and last rows
        # and at both sides of the block boundary.
        (z, kappa), n = vortices, vortices[0].size
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, np.inf)
        rho = np.minimum.reduce([d.min(axis=1), 1.0 + np.abs(z)] + [np.abs(z - p) for p in bg.poles])
        h = 1e-4 * rho
        # the size of E's terms, and of the gradient's, whose third derivatives are at most
        # 2/rho^2 times those: the truncation error is below (h/rho)^2 times that size
        lnd = np.log(np.where(np.isinf(d), 1.0, d))
        size_e = 0.5 * np.abs(np.outer(kappa, kappa) * lnd).sum() + np.abs(kappa * bg.u(z)).sum()
        poles = [abs(r) / np.abs(z - p) for p, r in zip(bg.poles, getattr(bg, "residues", ()))]
        size_f = np.abs(kappa) * ((np.abs(kappa) / d).sum(axis=1) + np.abs(bg.w(z)) + sum(poles))
        f = kappa * kirchhoff_field(z, kappa, bg)
        for i in {0, _BLOCK - 1, _BLOCK, n // 2, n - 1} & set(range(n)):
            step = np.zeros(n, dtype=complex)
            step[i] = h[i]
            ex, ey = (kirchhoff_energy(z + s, kappa, bg) - kirchhoff_energy(z - s, kappa, bg) for s in (step, 1j * step))
            err = abs((ex - 1j * ey) / (2.0 * h[i]) - f[i])
            assert err <= 8 * EPS * size_e / h[i] + (h[i] / rho[i]) ** 2 * size_f[i]


class TestOraclesIndependentOfField:
    """hamiltonian_rhs and poisson_bracket cross-check the field, so they must not evaluate it."""

    @pytest.fixture(autouse=True)
    def field_raises(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an oracle evaluated kirchhoff_field")

        monkeypatch.setattr(vortex, "kirchhoff_field", refuse)
        monkeypatch.setattr(backgrounds, "kirchhoff_field", refuse)

    def test_hamiltonian_rhs(self):
        z, kappa = np.array([1.0, -1.0], dtype=complex), np.array([1.0, 1.0])
        assert hamiltonian_rhs(z, kappa) == pytest.approx([-0.5j, 0.5j])
        with pytest.raises(AssertionError):
            velocity_at(z, kappa)

    def test_poisson_bracket(self):
        pb = poisson_bracket(lambda z: z[0].real, lambda z: z[0].imag, np.array([1.0 + 0.5j]), np.array([2.0]))
        assert pb == pytest.approx(0.5, abs=1e-9)

    def test_oracles_keep_their_collision_check(self):
        with pytest.raises(CollisionError):
            hamiltonian_rhs(np.array([1e-14 + 0j, 1.0]), np.array([1.0, 1.0]), Coulomb(0.0))


MOVED_TO_ORACLES = ("hamiltonian_rhs", "poisson_bracket", "_check_separation", "UnsupportedBackgroundError",
                    "topological_charge", "_bilinear", "min_separation")


@pytest.mark.parametrize("name", MOVED_TO_ORACLES)
def test_oracles_live_only_in_the_tests(name):
    assert callable(getattr(oracles, name))
    for module in (vortexkit, vortex, paraxial, backgrounds):
        assert not hasattr(module, name), f"{module.__name__}.{name}"


FAST_PATH = {"_row_blocks": backgrounds._row_blocks, "pair_sum": backgrounds.pair_sum,
             "kirchhoff_field": backgrounds.kirchhoff_field, "velocity": vortex.velocity,
             "find_vortices": paraxial.find_vortices, "_circulation": paraxial._circulation}


def test_oracles_bind_no_fast_path():
    # neither under its own name nor under another: the oracles cross-check these, so never run them
    bound = {name for name, value in vars(oracles).items() if any(value is f for f in FAST_PATH.values())}
    assert not bound and not set(FAST_PATH) & set(vars(oracles))


def simulate_input(z, kappa=None):
    """`simulate`'s check of the positions z, as [x, y] pairs, and the strengths kappa (all 1 by default)."""
    z = np.asarray(z, dtype=complex)
    return cli._vortices(np.stack([z.real, z.imag], -1).tolist(), np.ones(z.size) if kappa is None else kappa)


def accepted(z):
    """Whether `simulate` takes the positions z, asserted to be the oracle's answer."""
    z = np.asarray(z, dtype=complex)
    try:
        simulate_input(z)
    except ValueError as exc:
        assert str(exc) == "positions must be pairwise distinct"
        taken = False
    else:
        taken = True
    assert taken == (min_separation(z) > 0.0)
    return taken


class TestValidation:
    """The input check of `simulate`, `cli._vortices`: distinct positions by np.unique, against `min_separation`."""

    def test_coincident_pair_in_different_row_blocks_rejected(self):
        n = 2 * _BLOCK + 3
        rng = np.random.default_rng(31)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert accepted(z)
        z[n - 1] = z[3]  # rows 3 and n - 1 lie in the first and the third block of _BLOCK rows
        assert not accepted(z)

    @pytest.mark.parametrize("a,b", [
        (complex(0.0, 1.0), complex(-0.0, 1.0)),
        (complex(1.0, 0.0), complex(1.0, -0.0)),
        (complex(0.0, 0.0), complex(-0.0, -0.0)),
    ])
    def test_signed_zeros_coincide(self, a, b):
        assert not accepted([a, 2.0 + 3.0j, b])

    @pytest.mark.parametrize("a,b", [
        (complex(0.0, 1.0), complex(5e-324, 1.0)),
        (complex(1.0, 0.0), complex(1.0, 5e-324)),
    ])
    def test_smallest_subnormal_apart_accepted(self, a, b):
        assert accepted([a, 2.0 + 3.0j, b])

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError):
            simulate_input(np.array([1.0 + 0j, 1.0 + 0j]), np.array([1.0, 1.0]))
        assert not accepted([1.0 + 0j, 1.0 + 0j])

    def test_zero_strength_rejected(self):
        with pytest.raises(ValueError, match="^strengths must be finite and nonzero$"):
            simulate_input(np.array([1.0 + 0j]), np.array([0.0]))
