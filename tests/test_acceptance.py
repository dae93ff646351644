"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so the suite output doubles as a
scorecard.  Tolerances are pinned; do not loosen them to make a test pass.
"""

import itertools
import json
import time

import numpy as np
import pytest

from vortexkit import cli, orthopoly
from vortexkit.backgrounds import (
    ConjugateLinear, Coulomb, HermiteLinear, JacobiCharges, NoFlow, default_guess, kirchhoff_field, kirchhoff_jacobian,
    ring_guess, stationary,
)
from vortexkit.paraxial import BeamField, find_vortices, ladder_apply, lg_mode, propagate
from vortexkit.vortex import conserved, integrate, velocity
from oracles import hamiltonian_rhs, topological_charge


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def spec_background(spec):
    if spec.family == "hermite":
        return HermiteLinear()
    if spec.family == "laguerre":
        return Coulomb(l=(spec.alpha - 1.0) / 2.0)
    return JacobiCharges(p=(spec.alpha + 1.0) / 2.0, q=(spec.beta + 1.0) / 2.0)


def sweep_specs():
    for n in range(1, 51):
        yield orthopoly.PolynomialSpec("hermite", n)
    for alpha in (1.0, 3.0, 5.0):
        for n in range(1, 31):
            yield orthopoly.PolynomialSpec("laguerre", n, alpha=alpha)
    for alpha, beta in itertools.product((0.0, 1.0, 2.0), repeat=2):
        for n in range(1, 31):
            yield orthopoly.PolynomialSpec("jacobi", n, alpha=alpha, beta=beta)


def test_01_stieltjes_zeros_equivalence():
    start = time.monotonic()
    worst = 0.0
    for spec in sweep_specs():
        bg = spec_background(spec)
        rep = stationary(default_guess(spec.n, bg), -1.0, bg, 1e-12, 200)
        dev = np.abs(np.sort(rep.positions) - np.sort(orthopoly.zeros(spec))).max()
        worst = max(worst, dev)
    elapsed = time.monotonic() - start
    report(
        "1 equilibria match polynomial zeros (1e-10, < 60 s)",
        worst < 1e-10 and elapsed < 60.0,
        f"max deviation {worst:.2e}, {elapsed:.1f} s",
    )


def test_02_two_vortex_period():
    z0, kappa = np.array([1.0, -1.0], dtype=complex), np.array([1.0, 1.0])
    traj = integrate(lambda z: velocity(z, kappa, NoFlow(), 1e-12), lambda z: conserved(z, kappa), z0,
                     4.0 * np.pi, rtol=1e-11, atol=1e-13)
    ret = np.abs(traj.positions[-1] - z0).max()
    dq, di, dh = traj.drift
    report(
        "2 identical pair returns after T = 4 pi (1e-6; drifts 1e-8)",
        ret < 1e-6 and np.all(traj.drift < 1e-8),
        f"return {ret:.2e}, drifts {dq:.1e}/{di:.1e}/{dh:.1e}",
    )


def test_03_hamiltonian_consistency():
    rng = np.random.default_rng(2024)
    backgrounds = [NoFlow(), HermiteLinear(), Coulomb(1.0), JacobiCharges(1.0, 1.5)]
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 9))
        while True:
            z = 3.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            d = np.abs(z[:, None] - z[None, :])
            np.fill_diagonal(d, np.inf)
            clear = min(np.abs(z).min(), np.abs(z - 1).min(), np.abs(z + 1).min())
            if d.min() > 0.2 and clear > 0.2:
                break
        kappa = rng.choice([1.0, -1.0, 2.0], size=n)
        bg = backgrounds[i % len(backgrounds)]
        worst = max(worst, np.abs(velocity(z, kappa, bg, 1e-12) - hamiltonian_rhs(z, kappa, bg)).max())
    report(
        "3 hamiltonian_rhs agrees with the velocity on 100 random configurations (1e-12)",
        worst < 1e-12,
        f"max deviation {worst:.2e}",
    )


def test_04_laughlin_pair_radius():
    worst = 0.0
    for m in (1, 3, 5):
        for l_b in (0.5, 1.0, 2.0):
            target = l_b * np.sqrt(2.0 * m)
            guess = np.array([1.1 * target + 0.2j, -0.9 * target - 0.1j])
            sol = stationary(guess, m, ConjugateLinear(1.0 / (4.0 * l_b**2)), 1e-12, 200)
            assert sol.converged
            worst = max(worst, np.abs(np.abs(sol.positions) - target).max())
    report(
        "4 Laughlin N=2 radius equals l_B sqrt(2 m) (1e-10)",
        worst < 1e-10,
        f"max radius error {worst:.2e}",
    )


def test_05_lll_annihilation_order():
    ok = True
    details = []
    for label, prefactor in (("gaussian", None), ("z*gaussian", lambda z: z)):
        norms = []
        for n in (64, 128, 256):
            dx = 16.0 / n
            x = (np.arange(n) - n // 2) * dx
            xg, yg = np.meshgrid(x, x)
            z = xg + 1j * yg
            psi = np.exp(-np.abs(z) ** 2 / 4.0).astype(complex)
            if prefactor is not None:
                psi = prefactor(z) * psi
            field = BeamField(psi, dx, dx, 1.0)
            low = ladder_apply(field, "lower", 1.0)
            norms.append(np.linalg.norm(low.amplitude) / np.linalg.norm(psi))
        ratios = (norms[0] / norms[1], norms[1] / norms[2])
        details.append(f"{label} ratios {ratios[0]:.2f},{ratios[1]:.2f}")
        ok = ok and all(abs(r - 4.0) <= 0.8 for r in ratios)
    report("5 lowering operator annihilates LLL states at O(h^2)", ok, "; ".join(details))


def test_06_gaussian_beam_law():
    w0, k = 1.0, 100.0
    f = lg_mode(0, 0, w0, 256, 256, 8.0 / 256, 8.0 / 256, k)
    z_r = 0.5 * k * w0**2
    steps = 10
    current = f
    energy_err = 0.0
    for _ in range(steps):
        nxt = propagate(current, z_r / steps)
        energy_err = max(energy_err, abs(nxt.power() - current.power()))
        current = nxt
    xg, yg = current.grid()
    intensity = np.abs(current.amplitude) ** 2
    w = np.sqrt(2.0 * np.sum((xg**2 + yg**2) * intensity) / np.sum(intensity))
    rel = abs(w - w0 * np.sqrt(2.0)) / (w0 * np.sqrt(2.0))
    report(
        "6 measured w(z_R) = w0 sqrt(2) (0.5%); energy conserved (1e-10/step)",
        rel < 0.005 and energy_err < 1e-10,
        f"width error {100 * rel:.3f}%, energy drift {energy_err:.1e}",
    )


def test_07_topological_charge():
    ok = True
    for ell in range(-3, 4):
        f = lg_mode(0, ell, 1.0, 128, 128, 8.0 / 128, 8.0 / 128, 100.0)
        ok = ok and topological_charge(f, (64, 64), 16) == ell
    f = lg_mode(0, 2, 1.0, 128, 128, 8.0 / 128, 8.0 / 128, 100.0)
    totals = []
    for _ in range(11):
        totals.append(sum(c for _, c in find_vortices(f)))
        f = propagate(f, 5.0)
    conservedq = len(set(totals)) == 1
    report(
        "7 exact integer charges for ell in -3..3; total conserved over 10 slices",
        ok and conservedq,
        f"totals {totals}",
    )


def test_08_jacobian_vs_central_differences():
    rng = np.random.default_rng(77)
    worst = 0.0
    cases = [
        (HermiteLinear(), lambda n: np.sort(rng.normal(size=n) * 1.5)),
        (Coulomb(1.0), lambda n: np.sort(0.5 + 4.0 * rng.random(size=n))),
        (JacobiCharges(1.0, 1.5), lambda n: np.sort(-0.9 + 1.8 * rng.random(size=n))),
    ]
    for bg, draw in cases:
        count = 0
        while count < 50:
            n = int(rng.integers(2, 9))
            x = draw(n)
            if np.diff(x).min() < 0.05:
                continue
            count += 1
            jac = kirchhoff_jacobian(x, -1.0, bg)[0]  # of F, strengths -1
            h = 1e-6
            for col in range(n):
                xp, xm = x.copy(), x.copy()
                xp[col] += h
                xm[col] -= h
                fd = (kirchhoff_field(xp, -1.0, bg) - kirchhoff_field(xm, -1.0, bg)) / (2 * h)
                worst = max(worst, np.abs(jac[:, col] - fd).max())
    report(
        "8 analytic Jacobian matches central differences (1e-6, 50 points/family)",
        worst < 1e-6,
        f"max deviation {worst:.2e}",
    )


def test_09_cli_determinism(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "laughlin": {"N": 3, "m_exp": 3, "tol": 1e-12},
        "simulate": {"t_end": 2.0, "samples": 9},
        "beam": {"slices": 4},
        "equilibrium": {"family": "jacobi", "n": 6, "p": 1.0, "q": 1.5},
    }))
    snapshots = []
    for tag in ("run1", "run2"):
        out = tmp_path / tag
        for cmdline in (["equilibrium"], ["simulate"], ["laughlin"], ["beam"]):
            code = cli.main(["--quiet", "--config", str(config), "--out", str(out),
                             "--seed", "11"] + cmdline)
            assert code == 0
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    identical = snapshots[0] == snapshots[1]
    report(
        "9 repeated CLI runs are byte-identical",
        identical,
        f"{len(snapshots[0])} files compared",
    )


def test_10_stieltjes_equilibria_are_stationary_vortices():
    # sum_{j != k} 1/(x_k - x_j) = w(x_k) makes the vortex velocity
    # conj(i (sum_j kappa_j/(z_k - z_j) + w(z_k))) vanish when every kappa_j = -1.
    # The Jacobi equilibrium is unstable (it drifts O(1) by t = 1), so it is not integrated.
    cases = [(HermiteLinear(), 5, True), (HermiteLinear(), 30, False), (Coulomb(1.0), 4, True),
             (Coulomb(1.0), 20, False), (JacobiCharges(1.0, 1.5), 6, False)]
    still, moving, moved = 0.0, np.inf, 0.0
    for bg, n, run in cases:
        rep = stationary(default_guess(n, bg), -1.0, bg, 1e-12, 200)
        assert orthopoly.certify(rep.positions, bg.polynomial_spec(n))[0]
        z = rep.positions.astype(complex)
        d = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(d, np.inf)
        terms = np.sum(1.0 / d, axis=1) + np.abs(bg.w(z))
        rel = {k: np.max(np.abs(velocity(z, np.full(n, k), bg, 1e-12)) / terms) for k in (-1.0, 1.0)}
        still, moving = max(still, rel[-1.0]), min(moving, rel[1.0])
        if run:
            kappa = -np.ones(n)
            traj = integrate(lambda z: velocity(z, kappa, bg, 1e-12), lambda z: conserved(z, kappa), z, 1.0)
            moved = max(moved, np.abs(traj.positions[-1] - z).max())
    report(
        "10 certified equilibria stand still as kappa = -1 vortices (1e-12 of the terms; moved < 1e-10 by t = 1)",
        still <= 1e-12 and moving >= 0.5 and moved < 1e-10,
        f"kappa = -1 {still:.1e}, kappa = +1 {moving:.2f}, moved {moved:.1e}",
    )


def test_11_laughlin_equilibria_are_rotating_vortex_crystals():
    # m sum_{j != i} 1/(z_i - z_j) = omega conj(z_i) at a Laughlin equilibrium makes unit vortices
    # with no background flow move with conj(i (omega/m) conj(z_i)) = -i (omega/m) z_i: a rigid
    # rotation at -omega/m.  The velocity is computed apart from the solve, an independent oracle of it.
    worst = 0.0
    for m, l_b, n in itertools.product((1, 3, 5), (0.5, 1.0, 2.0), (10, 30, 100)):
        bg = ConjugateLinear(1.0 / (4.0 * l_b**2))
        # the `laughlin` command's guess and solve, at magnetic length l_b in place of 1
        sol = stationary(l_b * ring_guess(n, m, 0), m, bg, 1e-10, 200)
        assert sol.converged
        v = velocity(sol.positions, np.ones(n), NoFlow(), 1e-12)
        worst = max(worst, np.abs(v + 1j * bg.omega / m * sol.positions).max() / np.abs(v).max())
    report(
        "11 Laughlin equilibria rotate rigidly as unit vortices, at -omega/m (1e-10 of max|velocity|)",
        worst <= 1e-10,
        f"max deviation {worst:.2e}",
    )
