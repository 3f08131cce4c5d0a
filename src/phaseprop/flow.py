"""Characteristic flow: Hamilton's equations, phase-space action, and
the variational frame in the Hamiltonian gauge.

The central object is the :class:`TrajectoryBundle` — a time-sampled
record of one orbit carrying the phase point ``X_t``, the complex
variational frame ``(A, B)`` with ``A(0) = I`` and ``B(0) = iI``, the
action integral, and a continuously branch-tracked ``log det A``.  The
anisotropy form ``Z = B A^{-1}`` lives in the Siegel upper half-space
and is always recovered algebraically from the linear frame, never
integrated through its own (caustic-singular) Riccati equation.

``_sample_orbits`` carries N orbits at once through a grid of times in
one pass and is the one place that chooses between closed forms and
integration; :func:`flow_batch` is its endpoint view and the bundle its
per-step record of a batch of one.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

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
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DomainError(f"SiegelMatrix must be square, got {M.shape}")
        _check_siegel(M)
        object.__setattr__(self, "M", M)

    @property
    def dim(self) -> int:
        return self.M.shape[0]


def _check_siegel(M: np.ndarray) -> None:
    """Raise unless every matrix of ``M`` (one, or a stack) is symmetric
    with positive-definite imaginary part."""
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))
    if (np.abs(M - np.swapaxes(M, -1, -2)).max(axis=(-2, -1)) > 1e-10 * scale).any():
        raise DomainError("SiegelMatrix must be symmetric to 1e-10")
    if (np.linalg.eigvalsh(M.imag).min(axis=-1) <= 0).any():
        raise DomainError("SiegelMatrix imaginary part must be positive definite")


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


class FlowBatch(NamedTuple):
    """Endpoint data of N orbits at one time: ``q``, ``p`` of shape
    ``(N, d)``, the frames ``A``, ``B`` of shape ``(N, d, d)``, and the
    action and the branch-tracked ``logdetA`` and ``logdet_w``, each of
    shape ``(N,)``."""

    q: np.ndarray
    p: np.ndarray
    A: np.ndarray
    B: np.ndarray
    action: np.ndarray
    logdetA: np.ndarray
    logdet_w: np.ndarray


def _n_steps(d: float, step: float | None) -> int:
    """Equal steps that cover an interval of length ``|d|``: ``ceil(|d| / step)``
    (step default 1e-3), but one for an interval at most one step long up to a
    relative 1e-9, so that round-off never splits a step of the grid (on a
    20 000-step grid an interval exceeds its step by up to 2e-12)."""
    h = step if step is not None else 1e-3
    return 1 if 0 < abs(d) <= h * (1 + 1e-9) else math.ceil(abs(d) / h)


def _default_times(T: float, step: float | None) -> np.ndarray:
    """The step grid of ``[0, T]``: equal steps no longer than ``step``."""
    return np.linspace(0.0, T, _n_steps(T, step) + 1)


def _log_increment(prev_det, new_det):
    """Principal log of the determinant ratio (branch-safe increment)."""
    ratio = new_det / prev_det
    return np.log(np.abs(ratio)) + 1j * np.angle(ratio)


class _CharRHS:
    """Right-hand side of the joint (X, frame, action) system of a batch
    of orbits launched from the rows of ``q0``, ``p0``.  The frame is
    carried stacked, ``F = [A; B]``, so that ``dF/dt = J H'' F``."""

    def __init__(self, model: HamiltonianModel, q0, p0):
        self.model, self.q0, self.p0 = model, q0, p0
        self.H0 = model.bulk_value(q0, p0)

    def __call__(self, q, p, F):
        g = self.model.bulk_gradient(q, p)
        H2 = self.model.bulk_hessian(q, p)
        if not (np.isfinite(g).all() and np.isfinite(H2).all()):
            ok = np.isfinite(g).all(axis=1) & np.isfinite(H2).all(axis=(1, 2))
            j = int(np.argmin(ok))
            raise ModelError(
                f"non-finite model derivative at q={q[j]}, p={p[j]} on the "
                f"orbit from q={self.q0[j]}, p={self.p0[j]}")
        d = q.shape[1]
        Hp = g[:, d:]
        JH = np.concatenate([H2[:, d:], -H2[:, :d]], axis=1)
        return Hp, -g[:, :d], JH @ F, (p * Hp).sum(axis=1) - self.H0


def _initial_frame(n: int, d: int) -> np.ndarray:
    """``n`` copies of the Hamiltonian-gauge frame ``[A; B] = [I; iI]``."""
    return np.broadcast_to(np.concatenate([np.eye(d), 1.0j * np.eye(d)]),
                           (n, 2 * d, d))


def _rk4(model, q, p, times):
    """States ``(q, p, [A; B], action)`` at each of ``times``, every
    orbit of the batch stepped together by classical RK4."""
    rhs = _CharRHS(model, q, p)
    state = (q, p, _initial_frame(*q.shape), np.zeros(len(q)))
    yield state
    for k in range(len(times) - 1):
        h = times[k + 1] - times[k]
        k1 = rhs(*state[:3])
        k2 = rhs(*(y + h / 2 * dy for y, dy in zip(state, k1[:3])))
        k3 = rhs(*(y + h / 2 * dy for y, dy in zip(state, k2[:3])))
        k4 = rhs(*(y + h * dy for y, dy in zip(state, k3[:3])))
        state = tuple(y + h / 6 * (a + 2 * b + 2 * c + e)
                      for y, a, b, c, e in zip(state, k1, k2, k3, k4))
        yield state


def _adaptive(model, q0, p0, times, rtol):
    """States ``(q, p, [A; B], action)`` at each of ``times`` of one orbit
    (a batch of one), from one lazily stepped DOP853 solve: each step's
    samples are read from its dense output, as ``solve_ivp`` reads them."""
    from scipy.integrate import DOP853

    d = q0.shape[1]
    nc = 2 * d + 2 * d * d  # complex entries: q, p, A, B

    def unpack(y):  # real storage (..., 2 nc + 1) -> q, p, [A; B], action
        zc = y[..., :nc] + 1.0j * y[..., nc:2 * nc]  # copies, as does the action,
        return (zc[..., :d].real, zc[..., d:2 * d].real,  # so no state holds a step
                zc[..., 2 * d:].reshape(-1, 2 * d, d), y[..., -1].copy())

    rhs = _CharRHS(model, q0, p0)

    def f(t, y):
        dq, dp, dF, dact = rhs(*unpack(y[None])[:3])
        zc = np.concatenate([dq[0], dp[0], dF.ravel()])
        return np.concatenate([zc.real, zc.imag, dact])

    z0 = np.concatenate([q0[0], p0[0], _initial_frame(1, d).ravel()])
    y0 = np.concatenate([z0.real, z0.imag, [0.0]])
    solver = DOP853(f, float(times[0]), y0, float(times[-1]),
                    rtol=rtol, atol=rtol * 1e-2)
    signed = solver.direction * times  # increasing
    k = 0
    while k < times.size:
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(
                f"adaptive integration failed: {message}",
                last_valid_time=float(times[k - 1]) if k else None)
        stop = np.searchsorted(signed, solver.direction * solver.t, side="right")
        if stop > k:
            for y in solver.dense_output()(times[k:stop]).T:
                yield unpack(y[None])
            k = stop


def _tracked(states):
    """Batched states with ``log det A`` and ``log det(A - iB)`` attached,
    each continued from the previous sample by a branch-safe increment."""
    for k, (q, p, F, act) in enumerate(states):
        d = q.shape[1]
        A, B = F[:, :d], F[:, d:]
        detA, detw = np.linalg.det(A), np.linalg.det(A - 1.0j * B)
        if k == 0:
            ldA, ldw = np.zeros(len(q), dtype=complex), np.log(detw)
        else:
            ldA = ldA + _log_increment(prevA, detA)
            ldw = ldw + _log_increment(prevw, detw)
        prevA, prevw = detA, detw
        yield FlowBatch(q, p, A, B, act, ldA, ldw)


def _closed_form(model, q0, p0, t: float) -> FlowBatch:
    """Closed-form endpoints; the frame does not depend on the source."""
    qt, pt = model.bulk_flow(q0, p0, t)
    A, B, ldA, ldw = model.frame_at(t)
    n = len(q0)
    return FlowBatch(qt, pt, A[None].repeat(n, axis=0), B[None].repeat(n, axis=0),
                     model.bulk_action(q0, p0, t).sum(axis=1),
                     np.full(n, complex(ldA)), np.full(n, complex(ldw)))


def _method(model: HamiltonianModel, opts: FlowOptions) -> str:
    if opts.method is None:
        return "exact" if model.frame_at is not None else "rk4"
    if opts.method == "exact" and model.frame_at is None:
        raise ConfigurationError(
            f"model kind={model.kind!r} has no closed-form flow; "
            "use method='rk4' or 'adaptive'")
    return opts.method


def _sample_orbits(model: HamiltonianModel, Q, P, times,
                   opts: FlowOptions | None = None):
    """Yield the batched :class:`FlowBatch` states, at each of the signed
    ``times`` (monotone, starting at 0), of the orbits from the rows of
    ``Q``, ``P``.

    The one place that chooses between closed forms and integration.
    ``exact`` evaluates the closed forms at each time.  Otherwise each
    interval of ``times`` gets ``ceil(|interval| / step)`` equal steps and
    one pass carries the batch through all of them, tracking the log-dets
    at every step: ``rk4`` steps all N orbits together, ``adaptive`` makes
    one DOP853 solve per orbit (an RMS error norm over a joint solve would
    loosen each orbit's tolerance by up to sqrt(N)).  The pass is lazy, so
    a caller that stops early integrates no further.
    """
    opts = opts or FlowOptions()
    method = _method(model, opts)
    if method == "exact":
        for t in times:
            yield _closed_form(model, Q, P, float(t))
        return
    pieces, ends = [times[:1]], [0]
    for a, b in zip(times[:-1], times[1:]):
        n = _n_steps(b - a, opts.step)
        pieces.append(np.linspace(a, b, n + 1)[1:])
        ends.append(ends[-1] + n)
    grid = np.concatenate(pieces)
    if method == "rk4":
        runs = [_rk4(model, Q, P, grid)]
    else:  # one orbit after another: one orbit's solve is held at a time
        runs = [_adaptive(model, Q[j:j + 1], P[j:j + 1], grid, opts.rtol)
                for j in range(len(Q))]
    hits = Counter(ends)
    runs = [(s for k, s in enumerate(_tracked(run)) for _ in range(hits[k])) for run in runs]
    done = [list(run) for run in runs[:-1]]  # the last run stays lazy
    for k, last in enumerate(runs[-1]):
        yield (FlowBatch(*map(np.concatenate, zip(*(run[k] for run in done), last)))
               if done else last)


def flow_batch(model: HamiltonianModel, Q, P, t: float,
               opts: FlowOptions | None = None) -> FlowBatch:
    """Endpoints at the signed time ``t`` of the orbits from the rows of
    ``Q`` and ``P`` (shape ``(N, d)``): the ``(0, t)`` view of
    :func:`_sample_orbits`, so an integrated batch takes the steps of
    :func:`integrate_characteristics` and keeps only the current state.
    """
    Q = np.asarray(Q, dtype=float).reshape(-1, model.dim)
    P = np.asarray(P, dtype=float).reshape(-1, model.dim)
    _start, end = _sample_orbits(model, Q, P, np.array([0.0, float(t)]), opts)
    return end


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
    times = _default_times(float(T), opts.step)
    states = list(_sample_orbits(model, X0.q[None], X0.p[None], times, opts))
    return TrajectoryBundle(
        times=times,
        points=tuple(PhasePoint(s.q[0], s.p[0]) for s in states),
        frames=tuple(VariationalFrame(s.A[0], s.B[0]) for s in states),
        action=np.array([s.action[0] for s in states], dtype=float),
        logdetA=np.array([s.logdetA[0] for s in states], dtype=complex),
        logdet_w=np.array([s.logdet_w[0] for s in states], dtype=complex),
        hbar=opts.hbar)


def _anisotropy(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``Z = B A^{-1}``, symmetrised, of one frame or a stack of frames,
    with the caustic and Siegel checks over the whole stack."""
    if (np.abs(np.linalg.det(A)) < 1e-12).any():
        raise CausticError("variational form A is numerically singular "
                           "(integrator drift: |det A| >= 1 along exact flow)")
    Z = B @ np.linalg.inv(A)
    Z = (Z + np.swapaxes(Z, -1, -2)) / 2.0
    _check_siegel(Z)
    return Z


def anisotropy_Z(frame: VariationalFrame) -> SiegelMatrix:
    """Anisotropy form ``Z = B A^{-1}`` of a variational frame.

    ``Z`` is complex symmetric with positive-definite imaginary part;
    a singular ``A`` cannot occur in exact arithmetic (|det A| >= 1
    along the flow) and signals integrator drift.
    """
    return SiegelMatrix(_anisotropy(frame.A, frame.B))


def _real_jacobian(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``[[Re A, Im A], [Re B, Im B]]`` of one frame or a stack."""
    return np.concatenate([np.concatenate([A.real, A.imag], axis=-1),
                           np.concatenate([B.real, B.imag], axis=-1)], axis=-2)


def flow_jacobian(bundle: TrajectoryBundle, t: float) -> np.ndarray:
    """Real 2d x 2d Jacobian of the flow map at a stored time.

    Recovered from the complex frame: ``M = [[Re A, Im A], [Re B, Im B]]``
    in the Hamiltonian gauge; satisfies ``M^T J M = J``.
    """
    f = bundle.frame(t)
    return _real_jacobian(f.A, f.B)


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
    A = np.array([f.A for f in bundle.frames])
    B = np.array([f.B for f in bundle.frames])
    norms = np.linalg.norm(_real_jacobian(A, B), 2, axis=(-2, -1))
    warnings_out = []
    above = False
    for t, nrm in zip(bundle.times, norms):
        if nrm > thresh and not above:
            warnings_out.append(
                f"linearized flow norm {nrm:.4g} exceeds hbar^-1/2 = "
                f"{thresh:.4g} at t = {t:.6g}; single-packet propagation "
                "is no longer controlled")
            above = True
        elif nrm <= thresh:
            above = False
    return warnings_out
