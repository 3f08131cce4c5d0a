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

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np
from numpy.polynomial import Polynomial

from .errors import (BranchError, CausticError, ConfigurationError,
                     DomainError, ProjectionError)
from .flow import (FlowOptions, _default_times, _method, _sample_orbits,
                   flow_batch, symplectic_J)
from .models import HamiltonianModel, PhasePoint
from .propagator import _Kernel
from .transform import ComplexField

__all__ = [
    "GaussianPoly", "WKBData", "LagrangianManifold",
    "r_analytic_extension", "stationary_point_z", "lift_wkb",
    "transport_manifold", "vertical_tangent_time", "asymptotic_phase_Fsc",
    "solution_on_manifold", "gaussian_integral",
    "double_phase_characteristics",
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
    def _s0_stack(self):
        return _derivative_stack(self.S0, self.r)

    @cached_property
    def _s0pp_stack(self):
        return _derivative_stack(self.S0.deriv(2), self.r)

    @cached_property
    def _r0_stack(self):
        return _derivative_stack(self.R0, self.r)

    def s0_prime(self, x):
        return self._s0_stack[1](np.asarray(x, dtype=float))

    def s0_second(self, x):
        return self._s0pp_stack[0](np.asarray(x, dtype=float))

    def ext_S0(self, z):
        return _extend(self._s0_stack, z)

    def ext_S0_second(self, z):
        return _extend(self._s0pp_stack, z)

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


def _flow_alpha(data: WKBData, model: HamiltonianModel, t: float,
                alpha: np.ndarray, opts: FlowOptions | None):
    """Flow the manifold samples (alpha, S0'(alpha)) to time t.

    Returns (q_t, p_t, action, (dq_t/dalpha, dp_t/dalpha))."""
    e = flow_batch(model, alpha, data.s0_prime(alpha), t, opts)
    return e.q[:, 0], e.p[:, 0], e.action, _tangent(data, alpha, e)


def _earliest_fold(data, model, t, alpha, opts):
    """Scan 80 samples of (0, t] for the first time the projection folds;
    returns (t_star, alpha_star).  At tau = 0, dq/dalpha = 1."""
    taus = np.linspace(0.0, t, 81)
    states = _sample_orbits(model, alpha[:, None], data.s0_prime(alpha)[:, None],
                            taus, opts)
    for tau, e in zip(taus, states):
        dqda = _tangent(data, alpha, e)[0]
        scale = max(1.0, float(np.abs(dqda).max()))
        if (dqda < 1e-9 * scale).any():
            return float(tau), float(alpha[np.argmin(np.abs(dqda))])
    return float(t), float(alpha[0])


def transport_manifold(data: WKBData, model: HamiltonianModel, t: float,
                       alpha_grid, opts: FlowOptions | None = None
                       ) -> LagrangianManifold:
    """Transport the manifold ``p = S0'(q)`` by the flow and carry the
    generating phase along each characteristic.

    ``S(q_t(alpha), t) = S0(alpha) + Act(alpha, t)``.  The projection
    ``alpha -> q_t(alpha)`` must stay monotone; a fold (vanishing or
    sign-changing ``dq_t/dalpha``) raises a caustic error naming the
    earliest fold time and parameter.
    """
    alpha = np.asarray(alpha_grid, dtype=float)
    if alpha.ndim != 1 or alpha.size < 2:
        raise ConfigurationError("alpha grid must be 1-D with >= 2 samples")
    qt, pt, act, (dqda, _dpda) = _flow_alpha(data, model, t, alpha, opts)
    scale = max(1.0, float(np.abs(dqda).max()))
    if (dqda < 1e-9 * scale).any() or (np.sign(dqda) != np.sign(dqda[0])).any():
        t_star, a_star = _earliest_fold(data, model, t, alpha, opts)
        raise CausticError(
            "manifold projection folds (vertical tangent); the transported "
            "phase is multivalued here",
            t_star=t_star, alpha_star=a_star)
    S = data.S0(alpha) + act
    return LagrangianManifold(alpha=alpha, q=qt, p=pt, phase=S, t=float(t))


def vertical_tangent_time(data: WKBData, model: HamiltonianModel,
                          alpha: float = 0.0, t_max: float = 2.0,
                          opts: FlowOptions | None = None) -> float | None:
    """Earliest time in (0, t_max] at which the manifold projection
    becomes vertical at the given parameter: the first zero of
    ``dq_t/dalpha``.  Returns None if the window holds no fold."""
    from scipy.optimize import brentq

    a = np.asarray([alpha], dtype=float)
    taus = np.linspace(0.0, t_max, 2001)
    dqda = (_tangent(data, a, e)[0][0]
            for e in _sample_orbits(model, a[:, None], data.s0_prime(a)[:, None], taus, opts))
    k = next((k for k, v in enumerate(dqda) if not v > 0), None)  # the pass stops here
    if k is None:
        return None

    def g(tau: float) -> float:
        return float(_flow_alpha(data, model, tau, a, opts)[3][0][0])

    # flow_batch steps from 0 on its own grid, so its sign at a bracket end
    # may differ from the pass's; the zero is then that close to the end
    ends = taus[k - 1:k + 1]
    g_ends = [g(tau) for tau in ends]
    if np.sign(g_ends[0]) == np.sign(g_ends[1]):
        return float(ends[np.argmin(np.abs(g_ends))])
    return float(brentq(g, *ends, xtol=1e-12))


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
                         alpha_grid=None,
                         opts: FlowOptions | None = None) -> complex:
    """Double-phase-space asymptotic phase at X, sourced on the manifold.

    Unless a source ``Y`` on the initial manifold is supplied, the
    source parameter solves the orthogonality condition
    ``(X - X_t(alpha)) . dX_t/dalpha = 0`` by damped Newton seeded from
    the nearest sample of ``alpha_grid``; ties between competing local
    projections are broken by distance and flagged.  The imaginary part
    is nonnegative, vanishing exactly on the transported manifold.
    """
    if X.d != 1:
        raise ConfigurationError("asymptotic_phase_Fsc supports d = 1 only")
    if Y is None:
        alpha = _project_alpha(X, t, data, model, alpha_grid, opts)
        Y = PhasePoint([alpha], [float(data.s0_prime(alpha))])
    else:
        xi_expected = float(data.s0_prime(float(Y.q[0])))
        if abs(float(Y.p[0]) - xi_expected) > 1e-8 * max(1.0, abs(xi_expected)):
            raise ProjectionError(
                f"Y = ({Y.q[0]}, {Y.p[0]}) is not on the initial manifold "
                f"p = S0'(q) (expected p = {xi_expected})")
    e = flow_batch(model, Y.q, Y.p, t, opts)
    return complex(_F_values(data, float(X.q[0]), float(X.p[0]), Y.q, Y.p, e)[0])


def _project_alpha(X, t, data, model, alpha_grid, opts) -> float:
    if alpha_grid is None:
        c = float(X.q[0])
        alpha_grid = np.linspace(c - 8.0, c + 8.0, 321)
    alpha = np.asarray(alpha_grid, dtype=float)
    qt, pt, _act, _d = _flow_alpha(data, model, t, alpha, opts)
    dist2 = (qt - X.q[0]) ** 2 + (pt - X.p[0]) ** 2
    j0 = int(np.argmin(dist2))
    interior = dist2[1:-1]
    mins = np.nonzero((interior < dist2[:-2]) & (interior <= dist2[2:]))[0] + 1
    if mins.size > 1:
        best = np.sort(dist2[mins])
        if best[1] < 4.0 * best[0]:
            warnings.warn(
                "projection onto the transported manifold is ambiguous "
                "(competing nearest points); keeping the closest",
                UserWarning, stacklevel=3)

    def g(a: float) -> float:
        qa, pa, _act, (dq, dp) = _flow_alpha(data, model, t, np.asarray([a]), opts)
        return float((X.q[0] - qa[0]) * dq[0] + (X.p[0] - pa[0]) * dp[0])

    a = float(alpha[j0])
    h = float(alpha[1] - alpha[0])
    ga = g(a)
    for _ in range(60):
        if abs(ga) < 1e-12 * max(1.0, abs(a)):
            break
        d = 1e-6 * max(1.0, abs(a))
        slope = (g(a + d) - g(a - d)) / (2 * d)
        if slope == 0.0:
            break
        step = float(np.clip(-ga / slope, -2 * h, 2 * h))
        # damping: halve until |g| decreases; a stall near a fold
        # (where dg/dalpha ~ 0) is fine if the residual is already small
        for _k in range(30):
            gn = g(a + step)
            if abs(gn) < abs(ga):
                a, ga = a + step, gn
                break
            step /= 2
        else:
            break
    if abs(ga) > 1e-8 * max(1.0, abs(a)):
        raise ProjectionError(
            f"orthogonality solve did not converge (residual {abs(ga):.3e})")
    return a


def _sqrt_tracked_ratio(vals: np.ndarray) -> complex:
    """Continuous square root of ``vals[-1]/vals[0]`` along the path,
    equal to +1 at the start."""
    prev = 1.0 + 0.0j
    for k in range(1, len(vals)):
        r = np.sqrt(vals[k] / vals[0])
        if abs(-r - prev) < abs(r - prev):
            r = -r
        prev = r
    return prev


def solution_on_manifold(X: PhasePoint, t: float, data: WKBData,
                         model: HamiltonianModel, hbar: float,
                         opts: FlowOptions | None = None,
                         n_track: int = 41) -> complex:
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
    ``det((A - iB)/2) (1 - i S0''(eta)) det F'' = -(T_q - i T_p)``.  The
    root starts at the principal ``sqrt(1 - i S0''(eta))`` and is
    continued through ``n_track >= 2`` equally spaced times of ``[0, t]``
    (for an integrated flow, the steps nearest them), read from one pass
    of the source's orbit.
    """
    if X.d != 1:
        raise ConfigurationError("solution_on_manifold supports d = 1 only")
    if t < 0:
        raise ConfigurationError(f"t must be nonnegative, got {t}")
    if n_track < 2:
        raise ConfigurationError(f"n_track must be at least 2, got {n_track}")
    back = flow_batch(model, X.q, X.p, -t, FlowOptions(step=1e-3))
    eta, xi = float(back.q[0, 0]), float(back.p[0, 0])
    xi_expected = float(data.s0_prime(eta))
    if abs(xi - xi_expected) > 1e-6 * max(1.0, abs(xi_expected)):
        raise ProjectionError(
            f"X does not lie on the transported manifold: its source "
            f"({eta:.6g}, {xi:.6g}) is off p = S0'(q) by "
            f"{abs(xi - xi_expected):.3e}")
    w0 = 1 - 1j * float(data.s0_second(eta))

    # the root is tracked over n_track even times of [0, t]; an integrating
    # pass takes the steps of flow_batch to t and reads the nearest ones
    opts = opts or FlowOptions()
    grid = (np.linspace(0.0, t, n_track) if _method(model, opts) == "exact"
            else _default_times(t, opts.step))
    tracked = np.isin(np.arange(grid.size), np.rint(np.linspace(0, grid.size - 1, n_track)))
    us = []
    for e in compress(_sample_orbits(model, back.q, back.p, grid, opts), tracked):
        dq, dp = _tangent(data, eta, e)
        us.append(complex(dq[0] - 1j * dp[0]))
    ratio = _sqrt_tracked_ratio(us)  # us[0] = w0

    act = e.action[0]  # the last sample is t
    q, p = float(X.q[0]), float(X.p[0])
    amp = (np.pi * hbar) ** (-0.25) * float(data.R0(eta))
    phase = -0.5 * p * q + float(data.S0(eta)) + act
    return complex(amp * np.exp(1j * phase / hbar) / (np.sqrt(w0) * ratio))


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


def double_phase_characteristics(model: HamiltonianModel, X0: PhasePoint,
                                 t: float, opts: FlowOptions | None = None):
    """Doubled characteristics by reduction: the momentum-like variable
    stays locked to the orbit, ``P_t = J X_t / 2``, so the doubled
    integral of motion ``c(t) = X_t/2 + J P_t`` vanishes identically.
    Returns ``(X_t, P_t, c)``."""
    if t < 0:
        raise ConfigurationError(f"t must be nonnegative, got {t}")
    e = flow_batch(model, X0.q, X0.p, t, opts)
    Xt = PhasePoint(e.q[0], e.p[0])
    J = symplectic_J(model.dim)
    Pt = 0.5 * (J @ Xt.as_vector())
    c = 0.5 * Xt.as_vector() + J @ Pt
    return Xt, Pt, c
