"""Characteristic flow: Hamilton's equations, phase-space action, and
the variational frame in the Hamiltonian gauge.

The central object is the :class:`TrajectoryBundle` — a time-sampled
record of one orbit carrying the phase point ``X_t``, the complex
variational frame ``(A, B)`` with ``A(0) = I`` and ``B(0) = iI``, the
action integral, and a continuously branch-tracked ``log det A``.  The
anisotropy form ``Z = B A^{-1}`` lives in the Siegel upper half-space
and is always recovered algebraically from the linear frame, never
integrated through its own (caustic-singular) Riccati equation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (CausticError, ConfigurationError, DomainError,
                     GridRangeError, IntegrationError, ModelError)
from .models import HamiltonianModel, PhasePoint

__all__ = [
    "VariationalFrame", "SiegelMatrix", "TrajectoryBundle", "FlowOptions",
    "symplectic_J", "integrate_characteristics", "anisotropy_Z",
    "flow_jacobian", "amplitude_a", "ehrenfest_guard",
]


def symplectic_J(d: int) -> np.ndarray:
    """The standard symplectic matrix ``[[0, I], [-I, 0]]`` on R^{2d}."""
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = np.eye(d)
    J[d:, :d] = -np.eye(d)
    return J


@dataclass(frozen=True)
class VariationalFrame:
    """Complex variational forms ``(A, B)`` of one trajectory sample.

    In the Hamiltonian gauge, ``A = dq_t/dq + i dq_t/dp`` and
    ``B = dp_t/dq + i dp_t/dp``, so the real flow Jacobian is recovered
    from real and imaginary parts.
    """

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=complex))
        object.__setattr__(self, "B", np.asarray(self.B, dtype=complex))


@dataclass(frozen=True)
class SiegelMatrix:
    """Complex symmetric matrix with positive-definite imaginary part."""

    M: np.ndarray

    def __post_init__(self):
        M = np.atleast_2d(np.asarray(self.M, dtype=complex))
        if M.shape[0] != M.shape[1]:
            raise DomainError(f"SiegelMatrix must be square, got {M.shape}")
        scale = max(1.0, float(np.abs(M).max()))
        if np.abs(M - M.T).max() > 1e-10 * scale:
            raise DomainError("SiegelMatrix must be symmetric to 1e-10")
        if np.linalg.eigvalsh(M.imag).min() <= 0:
            raise DomainError("SiegelMatrix imaginary part must be positive definite")
        object.__setattr__(self, "M", M)

    @property
    def dim(self) -> int:
        return self.M.shape[0]


@dataclass(frozen=True)
class FlowOptions:
    """Integration options.

    method : {"rk4", "adaptive", "exact"} or None
        None selects ``exact`` when the model carries closed forms and
        ``rk4`` otherwise.
    step : float or None
        Target step for the fixed-step integrator and for the sample
        grid; the actual step is ``T / ceil(T / step)``.  Default 1e-3.
    rtol : float
        Relative tolerance of the adaptive embedded pair.
    hbar : float or None
        Enables the Ehrenfest guard when given.
    """

    method: str | None = None
    step: float | None = None
    rtol: float = 1e-10
    hbar: float | None = None

    def __post_init__(self):
        if self.method not in (None, "rk4", "adaptive", "exact"):
            raise ConfigurationError(
                f"flow.method: unknown method {self.method!r}; "
                "expected 'rk4', 'adaptive' or 'exact'")
        if self.step is not None and not self.step > 0:
            raise ConfigurationError(f"flow.step must be positive, got {self.step}")
        if not self.rtol > 0:
            raise ConfigurationError(f"flow.rtol must be positive, got {self.rtol}")
        if self.hbar is not None and not self.hbar > 0:
            raise ConfigurationError(f"hbar must be positive, got {self.hbar}")


@dataclass(frozen=True)
class TrajectoryBundle:
    """Time-sampled record of one characteristic orbit.

    ``logdetA`` is the continuously tracked complex logarithm of
    ``det A(t)`` (each increment's imaginary part below pi in
    magnitude), which fixes the branch of every derived square root.
    ``logdet_w`` tracks ``log det(A - iB)`` the same way for the kernel
    prefactor.
    """

    times: np.ndarray
    points: tuple
    frames: tuple
    action: np.ndarray
    logdetA: np.ndarray
    logdet_w: np.ndarray
    hbar: float | None = None

    @property
    def d(self) -> int:
        return self.points[0].d

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def index_of(self, t: float) -> int:
        """Index of the stored sample at time ``t``."""
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise GridRangeError(
                f"t={t} outside integrated range [{self.times[0]}, {self.times[-1]}]")
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise GridRangeError(
                f"t={t} is not a stored sample (nearest {self.times[i]}); "
                "integrate with a step that lands on the requested time")
        return i

    def frame(self, t: float) -> VariationalFrame:
        return self.frames[self.index_of(t)]

    def point(self, t: float) -> PhasePoint:
        return self.points[self.index_of(t)]


def _default_times(T: float, step: float | None) -> np.ndarray:
    if T == 0.0:
        return np.array([0.0])
    h = step if step is not None else 1e-3
    n = max(1, math.ceil(T / h))
    return np.linspace(0.0, T, n + 1)


def _log_increment(prev_det: complex, new_det: complex) -> complex:
    """Principal log of the determinant ratio (branch-safe increment)."""
    ratio = new_det / prev_det
    return complex(np.log(abs(ratio)), np.angle(ratio))


class _CharRHS:
    """Right-hand side of the joint (X, A, B, action) system."""

    def __init__(self, model: HamiltonianModel, H0: float):
        self.model = model
        self.H0 = H0
        self.d = model.dim

    def __call__(self, q, p, A, B):
        d = self.d
        X = PhasePoint(q.real, p.real)
        g = self.model.gradient(X)
        H2 = self.model.hessian(X)
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(H2))):
            raise ModelError(
                f"non-finite model derivative at q={X.q}, p={X.p}")
        Hq, Hp = g[:d], g[d:]
        Hqq, Hqp = H2[:d, :d], H2[:d, d:]
        Hpq, Hpp = H2[d:, :d], H2[d:, d:]
        dq = Hp.astype(complex)
        dp = -Hq.astype(complex)
        dA = Hpq @ A + Hpp @ B
        dB = -Hqq @ A - Hqp @ B
        dact = float(np.dot(p.real, Hp)) - self.H0
        return dq, dp, dA, dB, dact


def _integrate_rk4(model, X0, times):
    d = model.dim
    H0 = model.value(X0)
    rhs = _CharRHS(model, H0)
    q = X0.q.astype(complex)
    p = X0.p.astype(complex)
    A = np.eye(d, dtype=complex)
    B = 1.0j * np.eye(d, dtype=complex)
    act = 0.0
    points = [PhasePoint(q.real, p.real)]
    frames = [VariationalFrame(A, B)]
    actions = [0.0]
    logdetA = [0.0 + 0.0j]
    ldw0 = complex(np.log(np.linalg.det(A - 1.0j * B)))
    logdet_w = [ldw0]
    detA_prev = 1.0 + 0.0j
    detw_prev = np.linalg.det(A - 1.0j * B)
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        k1 = rhs(q, p, A, B)
        k2 = rhs(q + h / 2 * k1[0], p + h / 2 * k1[1],
                 A + h / 2 * k1[2], B + h / 2 * k1[3])
        k3 = rhs(q + h / 2 * k2[0], p + h / 2 * k2[1],
                 A + h / 2 * k2[2], B + h / 2 * k2[3])
        k4 = rhs(q + h * k3[0], p + h * k3[1], A + h * k3[2], B + h * k3[3])
        q = q + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        p = p + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        A = A + h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        B = B + h / 6 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
        act = act + h / 6 * (k1[4] + 2 * k2[4] + 2 * k3[4] + k4[4])
        points.append(PhasePoint(q.real, p.real))
        frames.append(VariationalFrame(A, B))
        actions.append(act)
        detA = np.linalg.det(A)
        detw = np.linalg.det(A - 1.0j * B)
        logdetA.append(logdetA[-1] + _log_increment(detA_prev, detA))
        logdet_w.append(logdet_w[-1] + _log_increment(detw_prev, detw))
        detA_prev, detw_prev = detA, detw
    return points, frames, actions, logdetA, logdet_w


def _integrate_adaptive(model, X0, times, rtol):
    from scipy.integrate import solve_ivp

    d = model.dim
    H0 = model.value(X0)
    rhs = _CharRHS(model, H0)
    nc = 2 * d + 2 * d * d  # complex entries: q, p, A, B

    def unpack(y):
        z = y[:2 * nc].view()  # real storage
        zc = z[:nc] + 1.0j * z[nc:]
        q = zc[:d]
        p = zc[d:2 * d]
        A = zc[2 * d:2 * d + d * d].reshape(d, d)
        B = zc[2 * d + d * d:].reshape(d, d)
        return q, p, A, B

    def f(t, y):
        q, p, A, B = unpack(y)
        dq, dp, dA, dB, dact = rhs(q, p, A, B)
        zc = np.concatenate([dq, dp, dA.ravel(), dB.ravel()])
        return np.concatenate([zc.real, zc.imag, [dact]])

    z0 = np.concatenate([X0.q.astype(complex), X0.p.astype(complex),
                         np.eye(d, dtype=complex).ravel(),
                         (1.0j * np.eye(d, dtype=complex)).ravel()])
    y0 = np.concatenate([z0.real, z0.imag, [0.0]])
    if times.size == 1:
        ys = y0[:, None]  # T = 0: the initial sample is the whole record
    else:
        sol = solve_ivp(f, (times[0], times[-1]), y0, method="DOP853",
                        t_eval=times, rtol=rtol, atol=rtol * 1e-2)
        if not sol.success:
            last = float(sol.t[-1]) if sol.t.size else None
            raise IntegrationError(
                f"adaptive integration failed: {sol.message}", last_valid_time=last)
        ys = sol.y
    points, frames, actions = [], [], []
    logdetA = [0.0 + 0.0j]
    logdet_w = []
    detA_prev = detw_prev = None
    for k in range(len(times)):
        q, p, A, B = unpack(ys[:, k])
        points.append(PhasePoint(q.real, p.real))
        frames.append(VariationalFrame(A, B))
        actions.append(float(ys[-1, k]))
        detA = np.linalg.det(A)
        detw = np.linalg.det(A - 1.0j * B)
        if k == 0:
            logdet_w.append(complex(np.log(detw)))
        else:
            logdetA.append(logdetA[-1] + _log_increment(detA_prev, detA))
            logdet_w.append(logdet_w[-1] + _log_increment(detw_prev, detw))
        detA_prev, detw_prev = detA, detw
    return points, frames, actions, logdetA, logdet_w


def _integrate_exact(model, X0, times):
    points, frames, actions, logdetA, logdet_w = [], [], [], [], []
    for t in times:
        points.append(model.exact_flow(X0, float(t)))
        A, B, ldA, ldw = model.frame_at(float(t))
        frames.append(VariationalFrame(A, B))
        actions.append(float(model.bulk_action(X0.q, X0.p, float(t)).sum()))
        logdetA.append(complex(ldA))
        logdet_w.append(complex(ldw))
    return points, frames, actions, logdetA, logdet_w


def integrate_characteristics(model: HamiltonianModel, X0: PhasePoint,
                              T: float, opts: FlowOptions | None = None
                              ) -> TrajectoryBundle:
    """Integrate the characteristic system of one orbit up to time T.

    Solves ``dX/dt = J grad H(X)`` together with the variational system
    ``dA/dt = H_pq A + H_pp B``, ``dB/dt = -H_qq A - H_qp B`` from the
    Hamiltonian-gauge initial frame ``(I, iI)``, and the action
    ``dAct/dt = p_t . dH/dp(X_t) - H(X_0)`` (equivalent to
    ``p dq - H dt`` for autonomous Hamiltonians).  ``log det A`` is
    advanced increment-by-increment with each increment's imaginary
    part kept inside (-pi, pi], which makes every derived square root
    branch-continuous through caustics.

    Models carrying closed forms short-circuit to them by default;
    pass ``FlowOptions(method="rk4")`` (fixed step, default 1e-3) or
    ``"adaptive"`` to force numerical integration.
    """
    opts = opts or FlowOptions()
    if T < 0:
        raise ConfigurationError(f"T must be nonnegative, got {T}")
    if model.dim != X0.d:
        raise ConfigurationError(
            f"model dimension {model.dim} != point dimension {X0.d}")
    method = opts.method
    if method is None:
        method = "exact" if model.frame_at is not None else "rk4"
    times = _default_times(float(T), opts.step)
    if method == "exact":
        if model.frame_at is None:
            raise ConfigurationError(
                f"model kind={model.kind!r} has no closed-form flow; "
                "use method='rk4' or 'adaptive'")
        parts = _integrate_exact(model, X0, times)
    elif method == "rk4":
        parts = _integrate_rk4(model, X0, times)
    elif method == "adaptive":
        parts = _integrate_adaptive(model, X0, times, opts.rtol)
    else:
        raise ConfigurationError(
            f"flow.method: unknown method {method!r}; "
            "expected rk4, adaptive, or exact")
    points, frames, actions, logdetA, logdet_w = parts
    return TrajectoryBundle(times=times, points=tuple(points),
                            frames=tuple(frames),
                            action=np.asarray(actions, dtype=float),
                            logdetA=np.asarray(logdetA, dtype=complex),
                            logdet_w=np.asarray(logdet_w, dtype=complex),
                            hbar=opts.hbar)


def anisotropy_Z(frame: VariationalFrame) -> SiegelMatrix:
    """Anisotropy form ``Z = B A^{-1}`` of a variational frame.

    ``Z`` is complex symmetric with positive-definite imaginary part;
    a singular ``A`` cannot occur in exact arithmetic (|det A| >= 1
    along the flow) and signals integrator drift.
    """
    A, B = frame.A, frame.B
    if abs(np.linalg.det(A)) < 1e-12:
        raise CausticError("variational form A is numerically singular "
                           "(integrator drift: |det A| >= 1 along exact flow)")
    Z = B @ np.linalg.inv(A)
    return SiegelMatrix((Z + Z.T) / 2.0)


def flow_jacobian(bundle: TrajectoryBundle, t: float) -> np.ndarray:
    """Real 2d x 2d Jacobian of the flow map at a stored time.

    Recovered from the complex frame: ``M = [[Re A, Im A], [Re B, Im B]]``
    in the Hamiltonian gauge; satisfies ``M^T J M = J``.
    """
    f = bundle.frame(t)
    return np.block([[f.A.real, f.A.imag], [f.B.real, f.B.imag]])


def amplitude_a(bundle: TrajectoryBundle, t: float) -> complex:
    """Branch-tracked amplitude ``a(t) = 1/sqrt(det A)`` via the stored
    continuous ``log det A``; ``a(0) = 1``."""
    return complex(np.exp(-0.5 * bundle.logdetA[bundle.index_of(t)]))


def ehrenfest_guard(bundle: TrajectoryBundle) -> list[str]:
    """Scan a bundle for linearized-flow growth past ``hbar^{-1/2}``.

    Returns one warning string per upward crossing of the threshold by
    the operator norm of the flow Jacobian (monotone growth yields a
    single entry at the first crossing).  Disabled — empty list — when
    the bundle carries no ``hbar``.  Never aborts.
    """
    if bundle.hbar is None:
        return []
    thresh = bundle.hbar ** -0.5
    warnings_out = []
    above = False
    for i, t in enumerate(bundle.times):
        f = bundle.frames[i]
        M = np.block([[f.A.real, f.A.imag], [f.B.real, f.B.imag]])
        nrm = np.linalg.norm(M, 2)
        if nrm > thresh and not above:
            warnings_out.append(
                f"linearized flow norm {nrm:.4g} exceeds hbar^-1/2 = "
                f"{thresh:.4g} at t = {t:.6g}; single-packet propagation "
                "is no longer controlled")
            above = True
        elif nrm <= thresh:
            above = False
    return warnings_out
