"""Time-dependent point-vortex dynamics in the plane.

Vortex i moves with dz_i/dt = conj(i F_i), F the Kirchhoff field of strengths
kappa in the background flow w (`velocity`, from `backgrounds.kirchhoff_field`,
which raises CollisionError within eps of another vortex or a pole of w).
`integrate` knows no field: it takes a right-hand side `velocity(z)` and the
monitored quantities `observe(z)`, and `cli` binds the Kirchhoff problem to it.
Integration is adaptive embedded Runge-Kutta with step rejection, driven by one
Dormand-Prince 8(5,3) tableau (_A, whose row 12 is the 8th-order weights and
whose rows 13-15 are the extra stages of its 7th-order dense output _D, and the
error rows _E5 and _E3); samples come from step ends and from the dense output,
so steps are never cut at sample times.  The monitored quantities of the
Kirchhoff problem, the rows [Q+iP, I, H] of `conserved` (linear impulse, angular
impulse and the interaction energy H, the Kirchhoff energy with NoFlow), are
integration-quality diagnostics, and velocity evaluations, accepted and rejected
steps are counted.  Samples are rows of arrays.
"""

from dataclasses import dataclass

import numpy as np

# CollisionError is what velocity raises at a collision; its callers import it from here
from .backgrounds import CollisionError, NoFlow, kirchhoff_energy, kirchhoff_field


_NO_FLOW = NoFlow()  # one instance, so conserved builds no background and no polynomial cache per call


class StepLimitError(RuntimeError):
    """Adaptive integrator exhausted its step budget (near-collision stiffness)."""


def velocity(z, kappa, bg, eps) -> np.ndarray:
    """Velocities dz_i/dt = conj(i F_i) of the vortices at z; O(n^2) pairwise sum.  CollisionError
    where a vortex lies within eps of another or of a pole of bg."""
    return np.conj(1j * kirchhoff_field(z, kappa, bg, eps))


def conserved(z, kappa) -> np.ndarray:
    """The invariants of positions z as complex rows [Q+iP, I, H]: Q+iP = sum kappa z,
    I = sum kappa |z|^2 and H, the Kirchhoff energy with NoFlow (I and H have zero imaginary
    parts).  An overflow gives inf or NaN, not a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([(kappa * z).sum(), (kappa * np.abs(z) ** 2).sum(), kirchhoff_energy(z, kappa, _NO_FLOW)])


# Dormand-Prince 8(5,3) (Hairer-Norsett-Wanner I, Sec. II.5 and II.6; the digits of scipy's
# integrate/_ivp/dop853_coefficients.py, copied as constants because importing that module loads
# scipy.integrate).  Stage s is evaluated at z + h * (_A[s, :s] @ k[:s]).  Row 12 is the 8th-order
# weights b, so the 13th stage is evaluated at the step's result (first same as last).  Rows 13-15
# are the three extra stages of the 7th-order interpolant, whose coefficients beyond the third are
# the rows of _D.  _E5 = b - b5 and _E3 = b - b3 weight the two error estimates.
_A = np.zeros((16, 16))
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1]
_A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1]
_A[6, [0, 3, 4, 5]] = [3.7109375e-2, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
                       -1.7578125e-2]
_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209, 1.09143734899672957818500254654,
    -8.14978701074692612513997267357, -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1]
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2]
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = [
    5.61675022830479523392909219681e-2, 2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1, 8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3, -8.298e-3]
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = [
    3.18346481635021405060768473261e-2, 2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
    -5.49237485713909884646569340306e-2, -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = [
    -4.28896301583791923408573538692e-1, -4.69762141536116384314449447206, 7.68342119606259904184240953878,
    4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149, -9.15095847217987001081870187138]
_E5 = np.zeros(12)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1]
_E3 = _A[12, :12].copy()
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
_D = np.zeros((4, 16))
_D[:, [0, *range(5, 16)]] = [
    [-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1],
    [0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2],
    [0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2],
    [-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3],
]


@dataclass(frozen=True)
class Trajectory:
    """Samples as rows: their times (m,), states (m, n) and observed quantities (m, k), the rows
    of `observe`; drift (k,), the max over accepted steps of hypot(d.real, d.imag), d the observed
    row less the one at the start; and the integrator's work counters: velocity evaluations,
    accepted steps and rejected steps.  A record of arrays: `cli` writes it as a table."""

    times: np.ndarray
    positions: np.ndarray
    invariants: np.ndarray
    drift: np.ndarray
    evaluations: int
    accepted: int
    rejected: int


def _interpolate(f, x):
    """The 7th-order dense output at the fraction x of the step, less the step's start:
    x (f0 + (1-x) (f1 + x (f2 + (1-x) (f3 + ...)))), f the seven rows of interpolant coefficients."""
    y = 0.0
    for i, fi in enumerate(f[::-1]):
        y = (y + fi) * (x if i % 2 == 0 else 1.0 - x)
    return y


def integrate(velocity, observe, z0, t_end: float, rtol: float = 1e-10, atol: float = 1e-12,
              max_steps: int = 100000, sample_times=None) -> Trajectory:
    """Adaptive Dormand-Prince 8(5,3) integration of dz/dt = velocity(z) from z0 at t = 0, with dense output.

    z0 is a 1-d complex array and velocity(z) returns dz/dt of its shape; observe(z) returns the
    1-d array of quantities monitored along the run.  One step evaluates stages 2-13 of the
    tableau _A: twelve velocity evaluations per attempted step, since the 13th stage is evaluated
    at the accepted point and is the next step's 1st (FSAL).  Per component, the error estimates
    e5 = h (_E5 @ k) and e3 = h (_E3 @ k), each over the scale atol + rtol * max(|z|, |z_new|),
    combine to |e5|^2 / hypot(|e5|, 0.1 |e3|), whose maximum err must not exceed 1; the next step
    is the attempted one times 0.9 err^(-1/8), clamped to [0.2, 10].  max_steps bounds the
    attempted steps (StepLimitError).  rtol >= 0, atol > 0, max_steps >= 1 are required: any other
    value turns off the error control or every step (ValueError).

    Trajectory is sampled exactly at sample_times (default: start and end), finite and in [0, t_end].
    Steps are not cut at sample times: a sample at the start is z0, one at a step's end is that
    step's result, and the samples strictly inside an accepted step come from its 7th-order
    interpolant, which costs three more velocity evaluations (rows 13-15 of _A) once per such step.
    The last step ends on t_end exactly.  `observe` is evaluated once at the start, once per
    accepted step, whose samples at its end share the result, and once per interpolated sample.
    The drift is the max over accepted steps of hypot(d.real, d.imag), d = observe(z) - observe(z0)
    entry by entry; a non-finite entry makes it inf or NaN, which no bound passes.
    """
    if not (np.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end {t_end} must be finite and exceed initial time 0.0")
    if not (rtol >= 0.0 and atol > 0.0 and max_steps >= 1):
        raise ValueError(f"need rtol >= 0, atol > 0, max_steps >= 1; got {rtol}, {atol}, {max_steps}")
    if sample_times is None:
        sample_times = np.array([0.0, t_end])
    sample_times = np.sort(np.asarray(sample_times, dtype=float))
    # a NaN sorts last and fails the comparison
    if sample_times.size == 0 or not (0.0 <= sample_times[0] and sample_times[-1] <= t_end):
        raise ValueError("sample times must be given and lie in [0, t_end]")

    c0 = observe(z0)
    drift = np.zeros(c0.size)
    positions = np.empty((sample_times.size, z0.size), dtype=complex)
    invariants = np.empty((sample_times.size, c0.size), dtype=c0.dtype)
    si = np.searchsorted(sample_times, 0.0, side="right")
    positions[:si], invariants[:si] = z0, c0
    t, z = 0.0, z0
    a = _A.astype(complex)  # the stages' products then cast no row
    k = np.empty((16, z.size), dtype=complex)
    k[0] = velocity(z)
    evaluations, accepted, rejected = 1, 0, 0
    speed = np.abs(k[0]).max()
    dt = min(t_end, 0.01 * (1.0 + np.abs(z).max()) / max(speed, 1e-8))
    while t < t_end:
        if accepted + rejected >= max_steps:
            raise StepLimitError(f"step budget {max_steps} exhausted at t={t:.6g}")
        h = min(dt, t_end - t)
        t_new = t_end if h == t_end - t else min(t + h, t_end)
        for s in range(1, 13):  # the last stage point z_new is the 8th-order step
            z_new = z + h * (a[s, :s] @ k[:s])
            k[s] = velocity(z_new)
        evaluations += 12
        scale = atol + rtol * np.maximum(np.abs(z), np.abs(z_new))
        e5 = np.abs(h * (_E5 @ k[:12])) / scale
        e3 = np.abs(h * (_E3 @ k[:12])) / scale
        norm = np.hypot(e5, 0.1 * e3)
        err = (e5 * np.divide(e5, norm, out=np.zeros_like(e5), where=norm > 0)).max()
        if not err <= 1.0:  # a NaN estimate rejects the step
            rejected += 1
            dt = h * max(0.2, 0.9 * err ** -0.125)
            continue
        accepted += 1
        inside = np.searchsorted(sample_times, t_new, side="left")
        if inside > si:  # samples strictly inside the step, from the one interpolant
            for s in range(13, 16):
                k[s] = velocity(z + h * (a[s, :s] @ k[:s]))
            evaluations += 3
            dz = z_new - z
            f = [dz, h * k[0] - dz, 2.0 * dz - h * (k[12] + k[0]), *(h * (_D @ k))]
            for i in range(si, inside):
                positions[i] = z + _interpolate(f, (sample_times[i] - t) / h)
                invariants[i] = observe(positions[i])
        t, z = t_new, z_new
        k[0] = k[12]
        si = np.searchsorted(sample_times, t, side="right")
        c = observe(z)
        positions[inside:si], invariants[inside:si] = z, c
        with np.errstate(invalid="ignore"):  # inf - inf is a NaN drift, which no bound passes
            d = c - c0
            drift = np.maximum(drift, np.hypot(d.real, d.imag))
        dt = h * min(10.0, max(0.2, 0.9 * err ** -0.125)) if err > 0 else 10.0 * h
    return Trajectory(sample_times, positions, invariants, drift, evaluations, accepted, rejected)
