"""WKB data in phase space: the complex stationary-point lift,
Lagrangian-manifold transport, the double-phase-space asymptotic phase,
and the asymptotic solution along the transported manifold.

Initial data ``psi0 = R0 exp(i S0 / hbar)`` induces the manifold
``p = S0'(q)``; its phase-space analysis concentrates there and is
reproduced asymptotically by evaluating truncated analytic extensions
of ``S0`` and ``R0`` at a complex stationary point.  Everything here
carries derivative stacks symbolically — no numerical differentiation
enters any stationary-point evaluation — and reads the tangent of the
transported manifold from the flow's variational frame.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import Polynomial

from .errors import (BranchError, CausticError, ConfigurationError,
                     DomainError, ProjectionError, _warn_at_caller)
from .flow import (FlowOptions, _log_increment, _method, _sample_orbits,
                   _step_grid, flow_batch)
from .models import HamiltonianModel, PhasePoint
from .propagator import _Kernel
from .transform import ComplexField

__all__ = [
    "GaussianPoly", "WKBData", "LagrangianManifold",
    "r_analytic_extension", "stationary_point_z", "lift_wkb",
    "transport_manifold", "vertical_tangent_time", "asymptotic_phase_Fsc",
    "solution_on_manifold", "gaussian_integral",
]


@dataclass(frozen=True)
class GaussianPoly:
    """Amplitude of the form ``P(x) exp(-(x - mu)^2 / (2 sigma^2))``.

    Closed under differentiation, which keeps derivative stacks exact:
    the derivative is ``(P' - P (x - mu)/sigma^2)`` times the same
    Gaussian.
    """

    poly: Polynomial
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not isinstance(self.poly, Polynomial):
            object.__setattr__(self, "poly", Polynomial(np.asarray(self.poly, dtype=float)))
        if not (self.sigma > 0):
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.poly(x) * np.exp(-((x - self.mu) ** 2) / (2 * self.sigma ** 2))

    def derivative(self) -> "GaussianPoly":
        shift = Polynomial([-self.mu, 1.0]) / self.sigma ** 2
        return GaussianPoly(self.poly.deriv() - self.poly * shift,
                            self.mu, self.sigma)

    def l2_norm(self) -> float:
        w = self.sigma * (14 + 2 * self.poly.degree())
        x = np.linspace(self.mu - w, self.mu + w, 20001)
        return float(np.sqrt(np.trapezoid(self(x) ** 2, x)))


def _derivative_stack(f, r: int) -> list:
    """``[f, f', ..., f^(r)]`` built from the object's own exact
    derivative (Polynomial.deriv or GaussianPoly.derivative)."""
    stack = [f]
    for _ in range(r):
        g = stack[-1]
        stack.append(g.deriv() if isinstance(g, Polynomial) else g.derivative())
    return stack


def _extend(stack: list, z) -> np.ndarray:
    """Evaluate the truncated extension sum for a precomputed stack."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    out = np.zeros_like(z)
    fac = 1.0
    for m, fm in enumerate(stack):
        if m > 0:
            fac *= m
        out = out + (1j * y) ** m / fac * fm(x)
    return out


def r_analytic_extension(f, r: int, z):
    """Truncated analytic extension ``sum_{m<=r} (iy d/dx)^m f(x) / m!``
    of a derivative-stack function at ``z = x + iy``.

    Exact continuation for polynomials of degree <= r; first-order
    accurate in the transverse displacement otherwise.
    """
    if r < 0:
        raise ConfigurationError(f"extension order must be >= 0, got {r}")
    vals = _extend(_derivative_stack(f, r), z)
    return vals if vals.shape else complex(vals)


@dataclass(frozen=True)
class WKBData:
    """Initial WKB data ``R0 exp(i S0 / hbar)`` with derivative stacks.

    ``S0`` is a real polynomial phase of degree <= 4, ``R0`` a
    normalized Gaussian-times-polynomial amplitude, and ``r >= 2`` the
    truncation order of all analytic extensions.
    """

    S0: Polynomial
    R0: GaussianPoly
    r: int = 2

    def __post_init__(self):
        S0 = self.S0
        if not isinstance(S0, Polynomial):
            S0 = Polynomial(np.asarray(S0, dtype=float))
            object.__setattr__(self, "S0", S0)
        if S0.degree() > 4:
            raise ConfigurationError(
                f"phase degree {S0.degree()} > 4 is not supported")
        if np.iscomplexobj(S0.coef):
            raise ConfigurationError("phase coefficients must be real")
        if self.r < 2:
            raise ConfigurationError(f"extension order must be >= 2, got {self.r}")
        nrm = self.R0.l2_norm()
        if abs(nrm - 1.0) > 1e-8:
            raise ConfigurationError(
                f"amplitude must be L2-normalized: got norm {nrm:.10f}")

    @cached_property
    def _s0_stack(self):  # S0 to S0^(r+2): r + 1 terms each for S0 and S0''
        return _derivative_stack(self.S0, self.r + 2)

    @cached_property
    def _r0_stack(self):
        return _derivative_stack(self.R0, self.r)

    def s0_prime(self, x):
        return self._s0_stack[1](np.asarray(x, dtype=float))

    def s0_second(self, x):
        return self._s0_stack[2](np.asarray(x, dtype=float))

    def ext_S0(self, z):
        return _extend(self._s0_stack[:self.r + 1], z)

    def ext_S0_second(self, z):
        return _extend(self._s0_stack[2:], z)

    def ext_R0(self, z):
        return _extend(self._r0_stack, z)

    def state(self, x, hbar: float) -> np.ndarray:
        """The position-space state ``R0(x) exp(i S0(x)/hbar)``."""
        x = np.asarray(x, dtype=float)
        return self.R0(x) * np.exp(1j * self.S0(x) / hbar)


@dataclass(frozen=True)
class LagrangianManifold:
    """Sampled parametrization ``alpha -> (q(alpha), p(alpha))`` of the
    manifold at time t, with the transported generating phase
    ``S(q(alpha), t)`` at the same samples."""

    alpha: np.ndarray
    q: np.ndarray
    p: np.ndarray
    phase: np.ndarray
    t: float

    def line_fit(self):
        """Least-squares line ``p = slope q + offset`` through the
        samples, with the maximum absolute residual."""
        A = np.vstack([self.q, np.ones_like(self.q)]).T
        (slope, offset), *_ = np.linalg.lstsq(A, self.p, rcond=None)
        resid = float(np.abs(self.p - slope * self.q - offset).max())
        return float(slope), float(offset), resid


def stationary_point_z(data: WKBData, X: PhasePoint) -> complex:
    """Complex stationary point of the packet-pairing phase:
    ``z(q, p) = q + i (1 - i S0''(q))^(-1) (S0'(q) - p)``.

    On the manifold ``p = S0'(q)`` this reduces to ``z = q`` exactly;
    the defining residual ``S0'(z) - p + i(z - q)`` vanishes
    identically for quadratic phases.
    """
    if X.d != 1:
        raise ConfigurationError("stationary_point_z supports d = 1 only")
    return complex(_z_grid(data, float(X.q[0]), float(X.p[0])))


def _z_grid(data: WKBData, Q, P):
    """The stationary point ``z`` at each node ``(Q, P)``, with
    ``i (1 - i S0'')^(-1) = (i - S0'') / (1 + S0''^2)``."""
    s1 = data.s0_prime(Q)
    s2 = data.s0_second(Q)
    return Q + (s1 - P) * (1j - s2) / (1 + s2 ** 2)


def _branch_jump_mask(w: np.ndarray) -> np.ndarray:
    """True where the principal square root of ``w`` jumps between
    adjacent nodes (the continuous continuation needs the other sign)."""
    sw = np.sqrt(w)
    bad = np.zeros(w.shape, dtype=bool)
    for ax in range(w.ndim):
        a = np.moveaxis(sw, ax, 0)
        jump = np.abs(a[1:] + a[:-1]) < np.abs(a[1:] - a[:-1])
        b = np.moveaxis(bad, ax, 0)
        b[1:] |= jump
        b[:-1] |= jump
    return bad


def lift_wkb(data: WKBData, phase_grid, hbar: float) -> ComplexField:
    """Lift WKB data to the phase plane through the stationary point.

    ``(pi hbar)^(-d/4) R0~(z) (1 - i S0''~(z))^(-1/2)
    exp{(i/hbar)(S0~(z) - p (z - q) + (i/2)(z - q)^2 - p q / 2)}``
    where ``~`` marks the order-r truncated extension and ``z`` the
    stationary point of each node.  The prefactor root is principal
    and must be continuous across the grid; a detected jump raises a
    branch error (use a finer grid).
    """
    qs = np.asarray(phase_grid[0], dtype=float)
    ps = np.asarray(phase_grid[1], dtype=float)
    Q, P = np.meshgrid(qs, ps, indexing="ij")
    z = _z_grid(data, Q, P)
    w = 1 - 1j * data.ext_S0_second(z)
    if _branch_jump_mask(w).any():
        raise BranchError(
            "prefactor square root is discontinuous between adjacent grid "
            "nodes; refine the phase grid")
    amp = data.ext_R0(z) / np.sqrt(w)
    vals = (np.pi * hbar) ** (-0.25) * amp * np.exp(1j * _lift_phase(data, Q, P, z) / hbar)
    return ComplexField((qs, ps), vals, hbar)


def _lift_phase(data: WKBData, Q, P, z):
    """The phase of :func:`lift_wkb` at nodes ``(Q, P)`` with stationary points ``z``."""
    return data.ext_S0(z) - P * (z - Q) + 0.5j * (z - Q) ** 2 - 0.5 * P * Q


def _tangent(data: WKBData, alpha, e) -> tuple[np.ndarray, np.ndarray]:
    """Tangent ``(dq_t/dalpha, dp_t/dalpha)`` of the transported manifold
    at the samples ``alpha``, read from the frames of the batch ``e`` of
    their orbits: the flow Jacobian ``[[Re A, Im A], [Re B, Im B]]``
    applied to the initial tangent ``(1, S0''(alpha))``."""
    s2 = data.s0_second(alpha)
    A, B = e.A[:, 0, 0], e.B[:, 0, 0]
    return A.real + A.imag * s2, B.real + B.imag * s2


def _folds(dqda: np.ndarray) -> np.ndarray:
    """Where the projection ``alpha -> q_t`` has folded: ``dq_t/dalpha`` is
    not finite, or below 1e-9 of the largest ``|dq_t/dalpha|`` (at least 1)."""
    return ~np.isfinite(dqda) | (dqda < 1e-9 * np.fmax.reduce(np.abs(dqda), initial=1.0))


def _first_fold(data: WKBData, model: HamiltonianModel, alpha: np.ndarray,
                taus: np.ndarray, opts: FlowOptions | None):
    """Index of the first of ``taus`` at which the projection of the
    manifold samples ``alpha`` folds, and the sample of least
    ``|dq_t/dalpha|`` there; None if it never folds.  The orbit pass is
    lazy, so it stops at the fold."""
    states = _sample_orbits(model, alpha[:, None], data.s0_prime(alpha)[:, None], taus, opts)
    for k, e in enumerate(states):
        dqda = _tangent(data, alpha, e)[0]
        if _folds(dqda).any():
            return k, float(alpha[np.argmin(np.abs(dqda))])
    return None


def transport_manifold(data: WKBData, model: HamiltonianModel, t: float,
                       alpha_grid, opts: FlowOptions | None = None
                       ) -> LagrangianManifold:
    """Transport the manifold ``p = S0'(q)`` by the flow and carry the
    generating phase along each characteristic.

    ``S(q_t(alpha), t) = S0(alpha) + Act(alpha, t)``.  The projection
    ``alpha -> q_t(alpha)`` must stay monotone increasing; a fold
    (:func:`_folds`) raises a caustic error naming the earliest fold time
    and parameter, resolved to 80 samples of ``(0, t]``.
    """
    alpha = np.asarray(alpha_grid, dtype=float)
    if alpha.ndim != 1 or alpha.size < 2:
        raise ConfigurationError("alpha grid must be 1-D with >= 2 samples")
    e = flow_batch(model, alpha, data.s0_prime(alpha), t, opts)
    if _folds(_tangent(data, alpha, e)[0]).any():
        taus = np.linspace(0.0, t, 81)
        k, a_star = _first_fold(data, model, alpha, taus, opts) or (80, float(alpha[0]))
        raise CausticError(
            "manifold projection folds (vertical tangent); the transported "
            "phase is multivalued here",
            t_star=float(taus[k]), alpha_star=a_star)
    S = data.S0(alpha) + e.action
    return LagrangianManifold(alpha=alpha, q=e.q[:, 0], p=e.p[:, 0], phase=S, t=float(t))


def vertical_tangent_time(data: WKBData, model: HamiltonianModel,
                          alpha: float = 0.0, t_max: float = 2.0,
                          opts: FlowOptions | None = None) -> float | None:
    """Earliest time in (0, t_max] at which the manifold projection
    becomes vertical at the given parameter: the first zero of
    ``dq_t/dalpha``, bracketed by the first of 2000 samples at which it
    folds (:func:`_folds`), and refined by Chandrupatla's method on
    ``flow_batch`` endpoints.  Returns None if the window holds no fold."""
    from scipy.optimize.elementwise import find_root

    if not t_max > 0:
        raise ConfigurationError(f"t_max must be positive, got {t_max}")
    a = np.asarray([alpha], dtype=float)
    taus = np.linspace(0.0, t_max, 2001)
    fold = _first_fold(data, model, a, taus, opts)
    if fold is None:
        return None

    def g(tau):  # tau: the one live bracket's abscissa, shape (1,)
        return _tangent(data, a, flow_batch(model, a, data.s0_prime(a), tau[0], opts))[0]

    # flow_batch steps from 0 on its own grid, so its sign at a bracket end
    # may differ from the pass's; the zero is then that close to the end
    ends = taus[fold[0] - 1:fold[0] + 1]
    g_ends = [g(ends[i:i + 1])[0] for i in (0, 1)]
    if np.sign(g_ends[0]) == np.sign(g_ends[1]):
        return float(ends[np.argmin(np.abs(g_ends))])
    return float(find_root(g, (ends[:1], ends[1:]), tolerances=dict(xatol=1e-12)).x[0])


def _F_values(data: WKBData, q: float, p: float, eta: np.ndarray,
              xi: np.ndarray, e) -> np.ndarray:
    """The double-phase-space phase F(X, Y, t) at X = (q, p) for the
    sources Y = (eta, xi), from the endpoints ``e`` of their orbits: the
    lift's phase at Y plus the kernel's."""
    kernel = _Kernel(eta, xi, e).phase(np.array([q, p], dtype=float))
    return _lift_phase(data, eta, xi, _z_grid(data, eta, xi)) + kernel


def asymptotic_phase_Fsc(X: PhasePoint, t: float, data: WKBData,
                         model: HamiltonianModel,
                         Y: PhasePoint | None = None,
                         opts: FlowOptions | None = None) -> complex:
    """Double-phase-space asymptotic phase at X, sourced on the manifold.

    Unless a source ``Y`` on the initial manifold is supplied, the
    source parameter solves the orthogonality condition
    ``(X - X_t(alpha)) . dX_t/dalpha = 0`` (:func:`_project_alpha`); ties
    between competing local projections are broken by distance and
    flagged.  The imaginary part is nonnegative, vanishing exactly on the
    transported manifold.
    """
    if X.d != 1:
        raise ConfigurationError("asymptotic_phase_Fsc supports d = 1 only")
    if Y is None:
        alpha = _project_alpha(X, t, data, model, opts)
        Y = PhasePoint([alpha], [float(data.s0_prime(alpha))])
    else:
        xi_expected = float(data.s0_prime(float(Y.q[0])))
        if abs(float(Y.p[0]) - xi_expected) > 1e-8 * max(1.0, abs(xi_expected)):
            raise ProjectionError(
                f"Y = ({Y.q[0]}, {Y.p[0]}) is not on the initial manifold "
                f"p = S0'(q) (expected p = {xi_expected})")
    e = flow_batch(model, Y.q, Y.p, t, opts)
    return complex(_F_values(data, float(X.q[0]), float(X.p[0]), Y.q, Y.p, e)[0])


def _project_alpha(X, t, data, model, opts) -> float:
    """The source parameter of X: the root of ``g = (X - X_t) . T`` (``T``
    the transported tangent), sampled once at 321 parameters on
    ``[q - 8, q + 8]`` and refined by Chandrupatla's method in the sign
    change next to the sample whose image is nearest X, where
    ``g = -(d|X - X_t|^2/dalpha)/2`` falls through 0."""
    from scipy.optimize.elementwise import find_root

    q, p = float(X.q[0]), float(X.p[0])

    def g(alpha):  # the residual, and the squared distance from X to the images
        e = flow_batch(model, alpha, data.s0_prime(alpha), t, opts)
        (dq, dp), dx, dy = _tangent(data, alpha, e), q - e.q[:, 0], p - e.p[:, 0]
        return dx * dq + dy * dp, dx ** 2 + dy ** 2

    alpha = np.linspace(q - 8.0, q + 8.0, 321)
    gs, dist2 = g(alpha)
    j0 = int(np.argmin(dist2))
    interior = dist2[1:-1]
    mins = np.nonzero((interior < dist2[:-2]) & (interior <= dist2[2:]))[0] + 1
    if mins.size > 1:
        best = np.sort(dist2[mins])
        if best[1] < 4.0 * best[0]:
            _warn_at_caller(
                "projection onto the transported manifold is ambiguous "
                "(competing nearest points); keeping the closest", UserWarning)
    lo = j0 - 1 if gs[j0] < 0 else j0
    if not (0 <= lo < alpha.size - 1 and gs[lo] * gs[lo + 1] <= 0):
        raise ProjectionError(
            "the orthogonality residual does not change sign next to the "
            f"nearest sample alpha = {alpha[j0]:.6g}")
    return float(find_root(lambda a: g(a)[0], (alpha[lo:lo + 1], alpha[lo + 1:lo + 2]),
                           tolerances=dict(xatol=1e-15)).x[0])


def solution_on_manifold(X: PhasePoint, t: float, data: WKBData,
                         model: HamiltonianModel, hbar: float,
                         opts: FlowOptions | None = None) -> complex:
    """Asymptotic solution at a point of the transported manifold.

    Pulls X back to its source ``(eta, xi) = g^{-t} X`` on the initial
    manifold and evaluates ``(pi hbar)^(-d/4) R0(eta)
    exp{(i/hbar)(-p q/2 + S0(eta) + Act)} / sqrt(T_q - i T_p)``, where
    ``T = (dq_t/dalpha, dp_t/dalpha)`` is the tangent of the transported
    manifold at X.  This is the stationary-phase value in double phase
    space: at ``X = Y_t`` the Hessian of its phase is
    ``F'' = M^T Q M + Phi''`` (``M`` the real flow Jacobian, ``Q`` the
    doubled anisotropy, ``Phi''`` the lift phase's Hessian; every term with
    a second flow derivative carries ``X - Y_t``), and for symplectic ``M``
    ``det((A - iB)/2) (1 - i S0''(eta)) det F'' = -(T_q - i T_p)``, the
    phase-space form of the WKB transport law (Maslov & Fedoriuk 1981).  The
    root is ``exp(-log(T_q - i T_p)/2)``, the log starting principal at
    ``1 - i S0''(eta)`` and continued by the flow's branch-safe increments
    along one pass of the source's orbit: through 41 even times of
    ``[0, t]`` on closed forms, through every step of an integrated flow.
    """
    if X.d != 1:
        raise ConfigurationError("solution_on_manifold supports d = 1 only")
    if t < 0:
        raise ConfigurationError(f"t must be nonnegative, got {t}")
    opts = opts or FlowOptions()
    back = flow_batch(model, X.q, X.p, -t, opts)
    eta, xi = float(back.q[0, 0]), float(back.p[0, 0])
    xi_expected = float(data.s0_prime(eta))
    if abs(xi - xi_expected) > 1e-6 * max(1.0, abs(xi_expected)):
        raise ProjectionError(
            f"X does not lie on the transported manifold: its source "
            f"({eta:.6g}, {xi:.6g}) is off p = S0'(q) by "
            f"{abs(xi - xi_expected):.3e}")

    grid = (np.linspace(0.0, t, 41) if _method(model, opts) == "exact"
            else _step_grid(np.array([0.0, t]), opts.step)[0])
    us = []
    for e in _sample_orbits(model, back.q, back.p, grid, opts):
        dq, dp = _tangent(data, eta, e)
        us.append(dq[0] - 1j * dp[0])
    us = np.array(us)  # us[0] = 1 - i S0''(eta)
    log_u = np.log(us[0]) + _log_increment(us[:-1], us[1:]).sum()

    act = e.action[0]  # the last sample is t
    q, p = float(X.q[0]), float(X.p[0])
    amp = (np.pi * hbar) ** (-0.25) * float(data.R0(eta))
    phase = -0.5 * p * q + float(data.S0(eta)) + act
    return complex(amp * np.exp(1j * phase / hbar - 0.5 * log_u))


def gaussian_integral(M, v, hbar: float) -> complex:
    """Normalized Gaussian integral
    ``(2 pi hbar)^(-d/2) integral exp{(i v.x - x.Mx/2)/hbar} dx
    = (det M)^(-1/2) exp(-v.M^{-1}v / (2 hbar))`` on the principal
    branch; requires ``Re M`` positive definite."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    v = np.atleast_1d(np.asarray(v, dtype=complex))
    d = M.shape[0]
    if M.shape != (d, d) or v.shape != (d,):
        raise ConfigurationError(
            f"shape mismatch: M {M.shape}, v {v.shape}")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-10 * scale:
        raise DomainError("M must be complex symmetric")
    if np.linalg.eigvalsh(M.real).min() <= 0:
        raise DomainError("Re M must be positive definite")
    lam = np.linalg.eigvals(M)
    inv_sqrt_det = np.exp(-0.5 * np.sum(np.log(lam)))
    quad = v @ np.linalg.solve(M, v)
    return complex(inv_sqrt_det * np.exp(-quad / (2 * hbar)))

