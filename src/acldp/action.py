"""Action functional on paths and quasi-potential estimation by path-space
minimization.

The action of a path z on [0, T] divides the dynamical residual by the
noise intensity:

    I(z) = 1/2 int_0^T || (dz/dt - Laplacian z - F(z)) / g(z + psi) ||_{L^2}^2 dt.

Discretization is midpoint-in-time: on each interval the time derivative is
the difference quotient (the central difference at the interval midpoint),
the Laplacian, drift, and intensity are evaluated at the state average, and
the time integral is the midpoint rule.  The scheme is second order on
smooth paths and admits an exact adjoint gradient with respect to interior
nodes, which the minimizer uses.

The start path has one construction, `_initial_path`: a unit-time linear
interpolation from the equilibrium of `compute_profile(d)` to a relaxed state
followed by the time-reversed noiseless flow; for gradient dynamics with unit
intensity its action approaches twice the shifted energy of the target.  An intensity
bounded below, g >= g0, divides the residual by at least g0, so the action
is at most 1/g0^2 times its unit-intensity value and the quasi-potential
obeys U <= 2 E* / g0^2, with equality under constant intensity g = g0.

The quasi-potential minimizer `mam_minimize` starts each rung from that
construction, with the reversed flow stepped at MAM_DT_FLOW = 5e-2, and
descends with the module's own L-BFGS (`minimize`: two-loop recursion,
strong Wolfe line search, L-BFGS-B's ftol stop) in space-time coordinates
whitened by the drift's linearization at the equilibrium: its eigenbasis
over the grid (`_eigenbasis`) and the DST over time, in which the quadratic
part of the linearized action is a multiple of the identity.  A rung then
stops after 3-8 iterations on criterion 5's targets at n = 63 with
modes = 63 and modes = 32 alike.  Per evaluation the action's Laplacian and the coordinate
maps' grid half are dense (n, n) products, which are faster than the DST
pair from n = 63 (18 vs 137 us) to n = 511 (1.1 vs 1.6 ms); their time half
is a DST along the time axis, so a rung's memory grows with its path, not
with steps^2.  The rungs run in order in the calling process.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .energy import energy_star, reaction_values
from .errors import ConfigurationError, check_bytes
from .flow import Path, flow_states
from .grid import Boundary, Domain, Field, dst, laplacian_values
from .noise import NoiseModel
from .profile import compute_profile

# L-BFGS's ftol for mam_minimize: the objective is the action divided by
# the rung's starting action, so a rung stops once an iteration lowers the
# action by less than this fraction of where it started.
MAM_FTOL = 1e-8
# Step of mam_minimize's reversed flow.  Its frames are only interpolated
# onto a path grid with steps of 0.0625-0.25, and at 5e-2 the minimized
# actions of criterion 5's targets move by at most 4e-7 relative against
# 5e-3, at a tenth of the steps.
MAM_DT_FLOW = 5e-2
# Path sizes ((steps + 1) x n floats) that mam_minimize counts for one rung's
# working set.  Tracemalloc read a rung's peak at 37-45 path sizes (n = 63,
# steps 1 000-4 000, constant and state-dependent g), 2 * LBFGS_PAIRS of them
# the L-BFGS pairs; every earlier rung keeps one more path.
RUNG_PATHS = 48
# L-BFGS memory: the number of (s, y) pairs the two-loop recursion keeps.
LBFGS_PAIRS = 10
# The strong Wolfe line search's sufficient-decrease and curvature constants,
# and its caps: doublings of the trial step, then trials of the zoom stage.
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9
SEARCH_DOUBLINGS = ZOOM_TRIALS = 10


@dataclass
class ActionResult:
    """Action value with the per-interval residual record and the path."""

    value: float
    residual_series: np.ndarray    # || dz/dt - Laplacian z - F(z) ||_{L^2} per interval
    path: Path
    iterations: int = 0
    converged: bool = True
    info: dict = field(default_factory=dict)


def _dst_ortho(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Orthonormal type-I DST along `axis` (the grid axis by default); it is
    its own inverse."""
    return dst(a, type=1, norm="ortho", axis=axis)


_LAPLACIAN: dict[tuple[float, int, int], np.ndarray] = {}
_EIGENBASIS: dict[tuple[float, int, int], tuple[np.ndarray, np.ndarray]] = {}


def _dense_laplacian(d: Domain) -> np.ndarray:
    """The spectral Laplacian as an (n, n) matrix acting on rows: `vals @ lap`
    is `grid.laplacian_values(d, vals)` up to rounding.  Built on first use
    from the transforms applied to the identity and kept, read-only, per
    (L, n, modes).

    The action applies two Laplacians per evaluation, and one dense product
    beats the DST pair at every size measured: 18 vs 137 us for a (95, 63)
    block, 276 vs 734 us at (119, 255) and 1 104 vs 1 649 us at (119, 511).
    The build holds the identity and the matrix and transforms the identity
    in blocks of n/8 rows, so it peaks near 19 n^2 bytes; it is counted as
    24 n^2 against the memory budget (`errors.check_bytes`, so n <= 3 344)
    before anything is allocated.  The blocks change no bit: each row's
    transform does not depend on the rows beside it.
    """
    key = (d.L, d.n, d.modes)
    lap = _LAPLACIAN.get(key)
    if lap is None:
        check_bytes(f"n={d.n} dense operators (the build of the action's {d.n} x {d.n} "
                    f"Laplacian, counted as 24 n^2)", 24 * d.n ** 2)
        eye = np.eye(d.n)
        lap = np.empty_like(eye)
        rows = -(-d.n // 8)
        for lo in range(0, d.n, rows):
            lap[lo:lo + rows] = laplacian_values(d, eye[lo:lo + rows])
        lap.setflags(write=False)
        _LAPLACIAN[key] = lap
    return lap


def _eigenbasis(d: Domain) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues mu (ascending) and orthonormal eigenvectors V (columns) of
    the drift's linearization at the equilibrium, the symmetric (n, n)
    operator A = -Laplacian + diag(3 m^2 - 1), m the profile: `A @ V` is
    `V * mu` up to rounding.  Built on first use and kept, read-only, per
    (L, n, modes); only the MAM objective reads it.

    The build holds the Laplacian, A, LAPACK's copy of A, V and syevd's
    workspace of 1 + 6n + 2n^2 doubles, about 6 n^2 doubles; LAPACK's arrays
    are allocated where tracemalloc does not see them.  It is counted as
    48 n^2 + 128 n bytes against the memory budget before anything is
    allocated, so n <= 2 363.  On a 2-core box a warm `eigh` takes 0.3 ms at
    n = 63, 7 ms at n = 255 and 31 ms at n = 511.
    """
    key = (d.L, d.n, d.modes)
    pair = _EIGENBASIS.get(key)
    if pair is None:
        check_bytes(f"n={d.n} dense operators (the build of the {d.n} x {d.n} eigenbasis of "
                    f"the linearized drift, counted as 48 n^2 + 128 n)", 48 * d.n ** 2 + 128 * d.n)
        lap = _dense_laplacian(d)
        u = compute_profile(d).m.values
        A = lap + lap.T
        A *= -0.5
        A[np.diag_indices(d.n)] += 3.0 * u * u - 1.0
        mu, V = np.linalg.eigh(A)
        pair = _EIGENBASIS[key] = (mu, V)
        for a in pair:
            a.setflags(write=False)
    return pair


def _action_core(d: Domain, Z: np.ndarray, dt: float, nm: NoiseModel, need_grad: bool):
    """Value, and either the interior-node euclidean gradient (need_grad) or
    the residual record.  Under constant intensity g is the scalar g0 and the
    g' term is skipped; for finite values both are bitwise what the general
    formula gives with g = g0 everywhere and g' = 0.  The Laplacian is one
    product with the dense matrix of `_dense_laplacian`."""
    lap = _dense_laplacian(d)
    mid = 0.5 * (Z[1:] + Z[:-1])
    diff = (Z[1:] - Z[:-1]) / dt
    drift = mid @ lap + reaction_values(d, mid)
    q = diff - drift
    theta = mid + d.psi
    g = nm.g0 if nm.is_constant else nm.g(theta)
    r = q / g
    value = 0.5 * dt * d.h * float(np.sum(r * r))
    if not need_grad:
        return value, None, np.sqrt(d.h * np.sum(q * q, axis=-1))

    rg = r / g
    fprime = 1.0 - 3.0 * theta * theta
    adj = rg @ lap + fprime * rg                  # A'(mid)^T (r / g), self-adjoint
    core = -0.5 * adj
    if not nm.is_constant:                        # the g' term, zero under constant g
        core -= 0.5 * (r * r * nm.g_prime(theta) / g)
    grad = np.zeros_like(Z)
    grad[:-1] += dt * (core - rg / dt)
    grad[1:] += dt * (core + rg / dt)
    return value, d.h * grad[1:-1], None


def action(pth: Path, nm: NoiseModel, d: Domain) -> ActionResult:
    """Evaluate the discrete action of a zero-Dirichlet path."""
    if pth.bc is not Boundary.ZERO_DIRICHLET:
        raise ConfigurationError("action expects a zero-Dirichlet path")
    if pth.values.shape[1] != d.n:
        raise ConfigurationError(
            f"path sampled on {pth.values.shape[1]} points, domain has {d.n}")
    value, _, resid = _action_core(d, pth.values, pth.dt, nm, need_grad=False)
    return ActionResult(value=value, residual_series=resid, path=pth)


def _initial_path(d: Domain, zeta: Field, T: float, steps: int, *,
                  frames: np.ndarray, dt_flow: float) -> np.ndarray:
    """Two-segment construction resampled onto the uniform (T, steps) grid:
    interpolation on [0, 1], reversed flow on [1, T] in its native time.

    `frames` is the noiseless flow from zeta with step dt_flow over at least
    T - 1; its first round((T - 1)/dt_flow) + 1 frames are the flow to T - 1.
    """
    t_star = T - 1.0
    frames = frames[: int(round(t_star / dt_flow)) + 1]   # flow time 0 .. t_star
    mshift = compute_profile(d).shifted_values(d)
    n_frames = frames.shape[0]

    t = np.linspace(0.0, T, steps + 1)
    pos = np.clip((t_star - (t - 1.0)) / dt_flow, 0.0, n_frames - 1.0)   # flow time, reversed
    i0 = np.floor(pos).astype(int)
    frac = (pos - i0)[:, None]
    Z = (1.0 - frac) * frames[i0] + frac * frames[np.minimum(i0 + 1, n_frames - 1)]
    early = t <= 1.0                          # interpolation from the equilibrium
    s = t[early, None]
    Z[early] = (1.0 - s) * mshift + s * frames[-1]
    Z[0] = mshift
    Z[-1] = zeta.values
    return Z


def _rung_objective(d: Domain, nm: NoiseModel, Z0: np.ndarray, dt: float,
                    scale: float):
    """The action over the m interior nodes X of Z0 (endpoints pinned) as
    L-BFGS sees it: divided by `scale` (see `mam_minimize`), in the whitened
    space-time coordinates Y = (D_t X V) / s.  V holds the eigenvectors of
    the drift's linearization at the equilibrium, A = -Laplacian +
    diag(3 m^2 - 1), with eigenvalues mu_k (`_eigenbasis`); D_t is the
    orthonormal DST-I over the m nodes, applied along the time axis, so no
    (m, m) matrix is formed.  D_t is a symmetric involution and V is
    orthogonal, so X = D_t (s Y) V' and the gradient is s * (D_t grad_X V).
    With the reaction replaced by its linear part and g = 1 the residual is
    dZ/dt + A Z, and in the midpoint action each mode k contributes
    sum |dc|^2 / (2 dt) + (dt/8) sum |mu_k (c_i + c_{i+1})|^2 plus a cross
    term that telescopes to the pinned ends.  D_t diagonalizes
    tridiag(-1, 2, -1) and tridiag(1, 2, 1) (eigenvalues 2 -/+ 2 cos th_j,
    th_j = j pi/(m+1)), so with
    s_jk = dt / sqrt(2 - 2 cos th_j + dt^2 mu_k^2 (2 + 2 cos th_j) / 4)
    the quadratic part is exactly (dt h / 2) |Y|^2, and L-BFGS sees only the
    reaction's and the intensity's departures from the linearization.  The
    sign of mu_k does not enter s.
    Returns fun(y) -> (value, gradient), the start y0 and nodes(y) -> X."""
    mu, V = _eigenbasis(d)
    m = Z0.shape[0] - 2
    theta = np.pi * np.arange(1, m + 1) / (m + 1)
    cos = np.cos(theta)[:, None]
    s = dt / np.sqrt(2.0 - 2.0 * cos + (dt * mu) ** 2 * (2.0 + 2.0 * cos) / 4.0)
    Z = Z0.copy()

    def nodes(y):
        return _dst_ortho(s * y.reshape(m, d.n), axis=0) @ V.T

    def fun(y):
        Z[1:-1] = nodes(y)
        val, grad, _ = _action_core(d, Z, dt, nm, need_grad=True)
        return val / scale, (s * (_dst_ortho(grad, axis=0) @ V)).ravel() / scale

    return fun, ((_dst_ortho(Z0[1:-1], axis=0) @ V) / s).ravel(), nodes


@dataclass(frozen=True)
class MinimizeResult:
    """Where `minimize` stopped: the point, its value and gradient, the
    iteration and evaluation counts, and L-BFGS-B's stop message."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nit: int
    nfev: int
    success: bool
    message: str


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic through (a, fa), (b, fb), (c, fc) with slope
    fpa at a; None when it has none or arithmetic fails."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db, dc = b - a, c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.empty((2, 2))
            d1[0, 0], d1[0, 1] = dc ** 2, -db ** 2
            d1[1, 0], d1[1, 1] = -dc ** 3, db ** 3
            A, B = np.dot(d1, np.asarray([fb - fa - fpa * db, fc - fa - fpa * dc]))
            A /= denom
            B /= denom
            xmin = a + (-B + np.sqrt(B * B - 3 * A * fpa)) / (3 * A)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _quadmin(a, fa, fpa, b, fb):
    """Minimizer of the quadratic through (a, fa), (b, fb) with slope fpa at
    a; None when arithmetic fails."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db = b - a
            B = (fb - fa - fpa * db) / (db * db)
            xmin = a - fpa / (2.0 * B)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _line_search(fun, x: np.ndarray, p: np.ndarray, f0: float, g0: np.ndarray):
    """A step alpha along the descent direction p from x that satisfies the
    strong Wolfe conditions, f(x + alpha p) <= f0 + WOLFE_C1 alpha g0'p and
    |g(x + alpha p)'p| <= WOLFE_C2 |g0'p|, as (alpha, f, g) at that point;
    None when the search fails.

    Nocedal & Wright 2006, Algorithms 3.5 and 3.6, as scipy's
    `line_search_wolfe2` runs them from alpha = 1 with no step cap: trial
    steps double until one brackets a conforming step, then the zoom stage
    tries the cubic interpolant's minimizer, the quadratic's, or the
    midpoint.  It makes the same calls of fun(x + alpha p) -> (f, g), one
    per trial step, so alpha, f and g are bitwise scipy's.  Unlike scipy it
    reports running out of doublings as a failure, since it has no gradient
    to return there.
    """
    derphi0 = np.dot(g0, p)
    last = {}

    def phi(alpha):
        f, last["g"] = fun(x + alpha * p)
        return f

    def zoom(a_lo, a_hi, phi_lo, phi_hi, derphi_lo):
        phi_rec, a_rec = f0, 0.0
        for i in range(ZOOM_TRIALS + 1):
            dalpha = a_hi - a_lo
            a, b = (a_hi, a_lo) if dalpha < 0 else (a_lo, a_hi)
            if i > 0:
                cchk = 0.2 * dalpha
                a_j = _cubicmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi, a_rec, phi_rec)
            if i == 0 or a_j is None or a_j > b - cchk or a_j < a + cchk:
                qchk = 0.1 * dalpha
                a_j = _quadmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
                if a_j is None or a_j > b - qchk or a_j < a + qchk:
                    a_j = a_lo + 0.5 * dalpha
            phi_aj = phi(a_j)
            if phi_aj > f0 + WOLFE_C1 * a_j * derphi0 or phi_aj >= phi_lo:
                phi_rec, a_rec = phi_hi, a_hi
                a_hi, phi_hi = a_j, phi_aj
                continue
            derphi_aj = np.dot(last["g"], p)
            if abs(derphi_aj) <= -WOLFE_C2 * derphi0:
                return a_j, phi_aj, last["g"]
            if derphi_aj * (a_hi - a_lo) >= 0:
                phi_rec, a_rec = phi_hi, a_hi
                a_hi, phi_hi = a_lo, phi_lo
            else:
                phi_rec, a_rec = phi_lo, a_lo
            a_lo, phi_lo, derphi_lo = a_j, phi_aj, derphi_aj
        return None

    alpha0, alpha1 = 0.0, 1.0
    phi_a0, derphi_a0 = f0, derphi0
    phi_a1 = phi(alpha1)
    for i in range(SEARCH_DOUBLINGS):
        if phi_a1 > f0 + WOLFE_C1 * alpha1 * derphi0 or (phi_a1 >= phi_a0 and i > 0):
            return zoom(alpha0, alpha1, phi_a0, phi_a1, derphi_a0)
        derphi_a1 = np.dot(last["g"], p)
        if abs(derphi_a1) <= -WOLFE_C2 * derphi0:
            return alpha1, phi_a1, last["g"]
        if derphi_a1 >= 0:
            return zoom(alpha1, alpha0, phi_a1, phi_a0, derphi_a1)
        alpha0, alpha1 = alpha1, 2 * alpha1
        phi_a0, phi_a1, derphi_a0 = phi_a1, phi(alpha1), derphi_a1
    return None


def minimize(fun, x0: np.ndarray, maxiter: int, ftol: float) -> MinimizeResult:
    """Unconstrained L-BFGS (Liu & Nocedal 1989) for fun(x) -> (f, gradient).

    The direction comes from the two-loop recursion over the last
    LBFGS_PAIRS pairs (s, y), with H0 = (s'y / y'y) I from the newest pair; a
    pair with s'y <= 0 is not kept.  The first step, and the step after a
    failed line search, goes along -g / |g|.  Steps satisfy the strong Wolfe
    conditions (`_line_search`, scipy's `line_search` ported), and each
    point the search visits is one call of fun.  The stops and messages are
    L-BFGS-B's: the iteration cap, then (f_k - f_{k+1}) <= ftol max(|f_k|,
    |f_{k+1}|, 1); a zero gradient is convergence too, and a line search that
    fails from the steepest-descent direction ends the run.
    """
    nfev = 0

    def evaluate(z):
        nonlocal nfev
        nfev += 1
        return fun(z)

    def result(message, success):
        return MinimizeResult(x=x, fun=f, jac=g, nit=nit, nfev=nfev,
                              success=success, message=message)

    x = np.asarray(x0, dtype=float).copy()
    f, g = evaluate(x)
    pairs: deque = deque(maxlen=LBFGS_PAIRS)
    gamma, nit = 1.0, 0
    while True:
        if not np.any(g):
            return result("CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL", True)
        if pairs:
            p, alphas = g.copy(), []
            for s_i, y_i, rho in reversed(pairs):
                a = rho * (s_i @ p)
                p -= a * y_i
                alphas.append(a)
            p *= gamma
            for (s_i, y_i, rho), a in zip(pairs, reversed(alphas)):
                p += (a - rho * (y_i @ p)) * s_i
            p = -p
        else:
            p = -g / np.sqrt(g @ g)
        found = _line_search(evaluate, x, p, f, g)
        if found is None:
            if not pairs:
                return result("ABNORMAL_TERMINATION_IN_LNSRCH", False)
            pairs.clear()
            continue
        alpha, f_new, g_new = found
        step = alpha * p
        x_new = x + step
        dg = g_new - g
        sy = step @ dg
        if sy > 0:
            pairs.append((step, dg, 1.0 / sy))
            gamma = sy / (dg @ dg)
        f_old = f
        x, f, g = x_new, f_new, g_new
        nit += 1
        if nit >= maxiter:
            return result("STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT", False)
        if f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            return result("CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH", True)


def _descend(d: Domain, nm: NoiseModel, maxiter: int, Z0: np.ndarray,
             T: float) -> dict:
    """One rung: L-BFGS from the path Z0 on [0, T]; the lowest action seen."""
    dt = T / (Z0.shape[0] - 1)
    v_init, _, _ = _action_core(d, Z0, dt, nm, need_grad=False)
    scale = v_init if v_init > 0 else 1.0
    fun, y0, nodes = _rung_objective(d, nm, Z0, dt, scale)
    best = dict(f=v_init / scale, y=None)

    def tracked(y):
        f, g = fun(y)
        if f < best["f"]:
            best.update(f=f, y=y.copy())
        return f, g

    res = minimize(tracked, y0, maxiter, MAM_FTOL)
    Z = Z0 if best["y"] is None else np.vstack([Z0[:1], nodes(best["y"]), Z0[-1:]])
    value, _, resid = _action_core(d, Z, dt, nm, need_grad=False)
    return dict(T=T, dt=dt, value=value, Z=Z, resid=resid, init_value=v_init,
                success=bool(res.success), nit=int(res.nit), nfev=int(res.nfev),
                message=str(res.message))


def mam_minimize(d: Domain, zeta: Field, nm: NoiseModel, T: float, steps: int, *,
                 ladder: int = 1, maxiter: int = 800) -> ActionResult:
    """Minimize the discrete action over paths from the equilibrium to zeta.

    Endpoints stay pinned; interior nodes descend under L-BFGS (`minimize`)
    with the analytic adjoint gradient.  The horizon anneals over the
    geometric ladder T, 2T, ..., 2^{ladder-1} T (each rung started from the
    two-segment construction `_initial_path`, all rungs reading one
    reversed flow) and the best value is reported.  The result never
    exceeds the starting action of any rung.  The reversed flow steps
    through `flow.flow_states`, the flow's one loop, at MAM_DT_FLOW = 5e-2,
    and keeps its states only: the construction reads no per-step
    diagnostic.

    In node coordinates the action's Hessian spans the spectrum of the time
    second difference (about steps^2) times the spatial one, so L-BFGS runs
    in whitened space-time coordinates (`_rung_objective`), in which the
    quadratic part of the action linearized at the equilibrium is
    (dt h / 2) |Y|^2.  The grid half of that map is the eigenbasis of
    A = -Laplacian + diag(3 m^2 - 1) (`_eigenbasis`), the action's Laplacian
    a dense matrix (`_dense_laplacian`).
    The objective is the action divided by the rung's starting action, so
    the `ftol` stop (MAM_FTOL) ends a rung once an iteration lowers the
    action by less than that fraction of its starting value, whatever the
    size of E*; there is no gradient-norm stop, and `maxiter` stays as the
    cap.  A rung counts as converged when `minimize` reports convergence,
    not the cap or a failed line search; `converged` is true when the best
    rung converged and the ladder saturated.  `info["ladder"]` records each
    rung's T, value, init_value, and the optimizer's nit, nfev and stop
    message.

    The rungs run in order in the calling process.  A horizon T <= 1, or
    reversed-flow frames, a rung's working set (RUNG_PATHS paths plus one per
    earlier rung) or the eigenbasis build past the memory budget, is a
    ConfigurationError before the profile is solved.
    """
    if zeta.bc is not Boundary.ZERO_DIRICHLET:
        raise ConfigurationError("target state must be zero-Dirichlet")
    if ladder < 1:
        raise ConfigurationError(f"ladder must have at least one rung, got {ladder}")
    if T <= 1.0:
        raise ConfigurationError(
            f"minimization horizon must exceed the unit interpolation time, got T={T}")
    horizon = T * 2.0 ** min(ladder - 1, 1023)    # inf frames below, not an OverflowError
    check_bytes(f"ladder={ladder} from T={T}: the reversed flow's frames of n={d.n} points "
                f"to T*2^{ladder - 1}", 8 * d.n * ((horizon - 1.0) / MAM_DT_FLOW + 1.0))
    paths = RUNG_PATHS + ladder - 1
    check_bytes(f"action.steps={steps}: {paths} paths of {steps + 1} x {d.n} floats (a rung's "
                f"working set and the earlier rungs' paths)", 8 * paths * (steps + 1) * d.n)
    _eigenbasis(d)                   # counted before the profile is solved, then built

    horizons = [T * 2 ** r for r in range(ladder)]
    frames = np.asarray([z for z, _, _ in flow_states(
        d, zeta.values, MAM_DT_FLOW, int(round((horizons[-1] - 1.0) / MAM_DT_FLOW)))])
    rungs = [_descend(d, nm, maxiter, _initial_path(d, zeta, T_r, steps, frames=frames,
                                                   dt_flow=MAM_DT_FLOW), T_r) for T_r in horizons]

    best_rung = min(rungs, key=lambda q: q["value"])
    value, Zb = best_rung["value"], best_rung["Z"]

    saturated = True
    if len(rungs) >= 2:
        v_sorted = sorted(q["value"] for q in rungs)
        saturated = abs(v_sorted[0] - v_sorted[1]) <= 0.02 * max(v_sorted[0], 1e-12)

    estar = energy_star(d, zeta)
    sup_path = float(np.max(np.abs(Zb)))
    growth = nm.linear_growth_constant()
    c_tilde = 6.0 * growth ** 2
    lower_c = 0.5 * c_tilde * (sup_path ** 2 + 1.0)
    sandwich = dict(
        energy_star=estar,
        upper_lhs=nm.g0 ** 2 * value, upper_rhs=2.0 * estar,
        upper_ok=bool(nm.g0 ** 2 * value <= 2.0 * estar * 1.05 + 1e-12),
        lower_c=lower_c,
        lower_ok=bool(estar <= lower_c * value * 1.05 + 1e-12),
        sup_path=sup_path,
    )
    return ActionResult(value=value, residual_series=best_rung["resid"],
                        path=Path(Zb, Boundary.ZERO_DIRICHLET, best_rung["dt"]),
                        iterations=sum(q["nit"] for q in rungs),
                        converged=best_rung["success"] and saturated,
                        info=dict(ladder=[{k: q[k] for k in ("T", "value", "init_value",
                                                             "nit", "nfev", "message")}
                                          for q in rungs],
                                  ladder_saturated=saturated, sandwich=sandwich))
