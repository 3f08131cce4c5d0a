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
one pass, by closed forms or integration as ``_method`` alone chooses;
:func:`flow_batch` is its endpoint view and the bundle its per-step
record of a batch of one.  The frame and action equations are linear
along an orbit that does not depend on them, so the rk4 pass
(:func:`_rk4`) steps the orbit points alone, then gives each run of up
to 64 steps its frames, action and log-dets in one vectorized pass;
adaptive DOP853 steps the joint system (:class:`_CharRHS`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
        grid; the actual step is ``T / ceil(T / step)``, up to a relative
        1e-9 (:func:`_n_steps`).  Default 1e-3.
    rtol : float
        Relative tolerance of the adaptive embedded pair (the absolute one
        is ``rtol / 100``); every orbit of a batch is held to it on its own.
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
        for name, value in (("flow.step", self.step), ("flow.rtol", self.rtol),
                            ("hbar", self.hbar)):
            if value is not None and not 0 < value < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class TrajectoryBundle:
    """Time-sampled record of one characteristic orbit.

    ``q``, ``p`` (shape ``(n, d)``) and the frames ``A``, ``B`` (shape
    ``(n, d, d)``) are stacked over the ``n`` samples; ``points`` and
    ``frames`` are their per-sample :class:`PhasePoint` and
    :class:`VariationalFrame` views, built when first read.
    ``logdetA`` is the continuously tracked complex logarithm of
    ``det A(t)`` (each increment's imaginary part below pi in
    magnitude), which fixes the branch of every derived square root.
    ``logdet_w`` tracks ``log det(A - iB)`` the same way for the kernel
    prefactor.
    """

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    A: np.ndarray
    B: np.ndarray
    action: np.ndarray
    logdetA: np.ndarray
    logdet_w: np.ndarray
    hbar: float | None = None

    @cached_property
    def points(self) -> tuple:
        return tuple(map(PhasePoint, self.q, self.p))

    @cached_property
    def frames(self) -> tuple:
        return tuple(map(VariationalFrame, self.A, self.B))

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
                + _landing_step(t, self.T, len(self.times) - 1))
        return i

    def frame(self, t: float) -> VariationalFrame:
        return self.frames[self.index_of(t)]

    def point(self, t: float) -> PhasePoint:
        return self.points[self.index_of(t)]


def _landing_step(t: float, T: float, n: int) -> str:
    """Advice naming the step ``T / k`` of the fewest equal steps ``k``, from
    ``n`` (no coarser than an ``n``-step grid of ``[0, T]``) to a million,
    that puts a sample on ``t`` within the tolerance of ``index_of``."""
    most = 10 ** 6
    k = np.arange(max(n, 1), most + 1)
    k = k[np.abs(np.round(t * k / T) * T / k - t) <= 1e-9 * max(1.0, abs(t))]
    if not k.size:
        return f"no step T / k with k <= {most} lands on it; integrate to T = {t} instead"
    return f"integrate with step T / {k[0]} = {T / k[0]:.12g} to land on it"


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
    (step default 1e-3) up to a relative 1e-9, so that round-off never adds a
    step: a step ``T / k`` gives ``k`` steps, and an interval of a grid one
    step (on a 20 000-step grid it exceeds its step by up to 2e-12)."""
    h = step if step is not None else 1e-3
    return math.ceil(abs(d) / h * (1 - 1e-9))


def _default_times(T: float, step: float | None) -> np.ndarray:
    """The step grid of ``[0, T]``: equal steps no longer than ``step``."""
    return np.linspace(0.0, T, _n_steps(T, step) + 1)


def _log_increment(prev_det, new_det):
    """Principal log of the determinant ratio (branch-safe increment)."""
    ratio = new_det / prev_det
    return np.log(np.abs(ratio)) + 1j * np.arctan2(ratio.imag, ratio.real)


def _pack(q, p) -> np.ndarray:
    """Packed states of orbits from the rows of ``q``, ``p`` at t = 0: one
    real row per orbit holding ``q``, ``p``, the Hamiltonian-gauge frame
    ``F = [A; B] = [I; iI]`` as interleaved (re, im) pairs, and the action 0."""
    n, d = q.shape
    y = np.zeros((n, 2 * d + 4 * d * d + 1))
    y[:, :d], y[:, d:2 * d] = q, p
    y[:, 2 * d:-1] = np.concatenate([np.eye(d), 1.0j * np.eye(d)]).view(float).ravel()
    return y


def _unpack(y, d: int):
    """Views ``(q, p, [A; B], action)`` of packed states; the interleaved
    frame is a complex view, so nothing is copied."""
    return (y[:, :d], y[:, d:2 * d],
            y[:, 2 * d:-1].view(complex).reshape(len(y), 2 * d, d), y[:, -1])


class _CharRHS:
    """The characteristic equations of a batch of orbits launched from the
    rows of ``q0``, ``p0``: ``dX/dt = g J^T``, ``dF/dt = (J H'') F`` for the
    frame ``F = [A; B]`` and ``dAct/dt = p . H_p - H(X_0)``, with ``g``, ``H''``
    the model's gradient and Hessian at ``X``.  ``_rk4`` reads the parts; a
    call is the joint right-hand side on packed states (:func:`_pack`), where
    a real matrix acts on the interleaved (re, im) frame as on the complex
    one, so the frame's rate is one real product."""

    def __init__(self, model: HamiltonianModel, q0, p0):
        self.derivatives, self.q0, self.p0 = model.bulk_derivatives, q0, p0
        self.H0 = model.bulk_value(q0, p0)
        self.d = q0.shape[1]
        self.JT = symplectic_J(self.d).T

    def generator(self, H2, axis: int = -2):
        """``J H''`` of a stack of Hessians whose rows run along ``axis``:
        the p rows over the negated q rows."""
        d, rows = self.d, (slice(None),) * (axis % H2.ndim)  # the axes before the rows
        return np.concatenate([H2[rows + (slice(d, None),)], -H2[rows + (slice(d),)]], axis=axis)

    def action_rate(self, p, gp, axis: int = -1):
        """``p . H_p - H(X_0)`` along ``axis``."""
        return np.vecdot(p, gp, axis=axis) - self.H0

    def require_finite(self, q, p, g, H2):
        """Raise :class:`ModelError` naming the point and the orbit of the
        first row of a stage whose derivatives are not finite."""
        ok = np.isfinite(g).all(axis=1) & np.isfinite(H2).all(axis=(1, 2))
        if not ok.all():
            j = int(np.argmin(ok))
            raise ModelError(
                f"non-finite model derivative at q={q[j]}, p={p[j]} on the "
                f"orbit from q={self.q0[j]}, p={self.p0[j]}")

    def __call__(self, y):
        n, d = len(y), self.d
        q, p = y[:, :d], y[:, d:2 * d]
        with np.errstate(invalid="ignore"):  # a non-finite derivative raises below
            g, H2 = self.derivatives(q, p)
        dy = np.empty_like(y)
        dy[:, :2 * d] = g @ self.JT
        dy[:, 2 * d:-1] = (self.generator(H2) @ y[:, 2 * d:-1].reshape(n, 2 * d, 2 * d)
                           ).reshape(n, 4 * d * d)
        dy[:, -1] = self.action_rate(p, g[:, d:])
        if not np.isfinite(dy).all():  # any non-finite derivative reaches dy
            self.require_finite(q, p, g, H2)
        return dy


# a run of rk4 steps holds at most _RUN_STEPS steps, and its stacked stage
# Hessians about _RUN_BYTES
_RUN_STEPS, _RUN_BYTES = 64, 1 << 20


def _rk4(model, q, p, times):
    """The states at ``times`` of the orbits from the rows of ``q``, ``p``,
    stepped by classical RK4, in runs: :class:`FlowBatch` es whose fields
    have a leading axis over consecutive states, state 0 alone first.

    The frame system is linear along an orbit that does not depend on the
    frame, and the action rate depends on the orbit alone.  So the stage
    loop (:func:`_orbit_steps`) steps the orbit points ``X`` only, for a
    run of up to :data:`_RUN_STEPS` steps (fewer on large batches, so its
    stacked stage Hessians stay near :data:`_RUN_BYTES`).  The run then
    gets its frames, action and log-dets in one pass over all its steps
    and orbits: each step's RK4 update of the frame is a propagator,
    ``F_{n+1} = P_n F_n``, so the run's frames are ``P_n ... P_0 F``
    (:func:`_propagators`); the action adds the RK4 increments and the
    log-dets the branch-safe increments of the run's determinants, each a
    cumulative sum.  ``X`` and the action are the
    joint system's RK4 (:class:`_CharRHS`) bit for bit; the frames and
    log-dets differ by round-off.  A non-finite derivative in a run first
    yields the states before its step, then raises :class:`ModelError`."""
    rhs, (n, d) = _CharRHS(model, q, p), q.shape
    y = _pack(q, p)
    x, F, act = y[:, :2 * d], _unpack(y, d)[2].view(float), y[:, -1]
    ld = np.log(_dets(F.view(complex)))
    yield _run(x[None], F[None], act[None], ld[:, None])
    steps = np.diff(times)
    size = min(max(_RUN_BYTES // (32 * max(n, 1) * (2 * d) ** 2), 1), _RUN_STEPS)
    for start in range(0, steps.size, size):
        h = steps[start:start + size]
        with np.errstate(invalid="ignore"):  # a non-finite stage raises below
            xs, stages = _orbit_steps(rhs, x, h)
        X, G, H = map(_orbits_last, zip(*stages))
        m, bad = h.size, None
        if not (np.isfinite(G).all() and np.isfinite(H).all()):
            ok = (np.isfinite(G).all(axis=0) & np.isfinite(H).all(axis=(0, 1))).all(axis=-1)
            bad = int(np.argmin(ok.ravel()))  # the first failing stage, as step * 4 + stage
            m = bad // 4
        if m:
            h, xs = h[:m, None], np.concatenate(xs[1:m + 1]).reshape(m, n, 2 * d)
            P = _propagators(rhs.generator(H[:, :, :m], axis=0), h)
            Fs = np.empty((m + 1,) + F.shape)
            Fs[0] = F
            F0 = np.ascontiguousarray(np.moveaxis(F, 0, -1))[:, :, None]
            Fs[1:] = np.moveaxis(_mul(P, F0), (0, 1), (-2, -1))  # F_{n+1} = P_n ... P_0 F
            r = rhs.action_rate(X[d:, :m], G[d:, :m], axis=0)
            acts = np.cumsum(np.concatenate(
                [act[None], h / 6 * (r[:, 0] + 2 * r[:, 1] + 2 * r[:, 2] + r[:, 3])]), axis=0)
            dets = _dets(Fs.view(complex))
            lds = np.cumsum(np.concatenate(
                [ld[:, None], _log_increment(dets[:, :-1], dets[:, 1:])], axis=1), axis=1)
            x, F, act, ld = xs[-1], Fs[-1], acts[-1], lds[:, -1]
            yield _run(xs, Fs[1:], acts[1:], lds[:, 1:])
        if bad is not None:
            X, G, H = stages[bad]
            rhs.require_finite(X[:, :d], X[:, d:], G, H)


def _orbit_steps(rhs, x, h):
    """RK4 steps ``h`` of the orbit points ``x`` alone, ``X' = g J^T``:
    the points after each step (``x`` first), and each stage's point and
    derivatives ``(X, g, H'')``."""
    d, xs, stages, hJ = rhs.d, [x], [], h[:, None, None] * rhs.JT
    for J2, J1, J6 in zip(hJ / 2, hJ, hJ / 6):  # J^T times h/2, h and h/6
        stage = x
        for cJ in (J2, J2, J1, None):
            g, H2 = rhs.derivatives(stage[:, :d], stage[:, d:])
            stages.append((stage, g, H2))
            if cJ is not None:
                stage = x + g @ cJ
        (_, g1, _), (_, g2, _), (_, g3, _), (_, g4, _) = stages[-4:]
        x = x + (g1 + 2 * g2 + 2 * g3 + g4) @ J6
        xs.append(x)
    return xs, stages


def _orbits_last(arrays):
    """A run's stage arrays, each of shape ``(N, ...)``, joined in one
    C-ordered array of shape ``(..., steps, 4, N)``, where stacked 2d x 2d
    products over the steps, stages and orbits are long vector operations."""
    a, axes = arrays[0], (*range(1, arrays[0].ndim), 0)
    out = np.empty(a.shape[1:] + (len(arrays) * len(a),))
    np.concatenate([v.transpose(axes) for v in arrays], axis=-1, out=out)
    return out.reshape(a.shape[1:] + (len(arrays) // 4, 4, len(a)))


def _mul(a, b):
    """Products of the matrices of two stacks whose matrix axes come first."""
    return np.einsum("ij...,jk...->ik...", a, b)


def _propagators(L, h):
    """The frame propagators of RK4 steps ``h`` (shape ``(steps, 1)``) from
    the generators ``Li = J H''`` of their stages (shape ``(2d, 2d, steps,
    4, N)``): ``P = I + h/6 (L1 + 2 L2 S1 + 2 L3 S2 + L4 S3)`` with
    ``S1 = I + h/2 L1``, ``S2 = I + h/2 L2 S1``, ``S3 = I + h L3 S2``, so
    that RK4 takes ``F`` to ``P F``; then their running products
    ``P_n ... P_0``, in ``log2(steps)`` passes."""
    L1, L2, L3, L4 = np.moveaxis(L, 3, 0)
    I = np.eye(len(L))[..., None, None]
    M2 = _mul(L2, I + h / 2 * L1)
    M3 = _mul(L3, I + h / 2 * M2)
    M4 = _mul(L4, I + h * M3)
    P = I + h / 6 * (L1 + 2 * M2 + 2 * M3 + M4)
    k = 1
    while k < len(h):
        P[:, :, k:] = _mul(P[:, :, k:], P[:, :, :-k])
        k *= 2
    return P


def _run(X, F, act, ld) -> FlowBatch:
    """The :class:`FlowBatch` of a run from its stacked orbit points, real
    frames, action and log-dets."""
    d, F = X.shape[-1] // 2, F.view(complex)
    return FlowBatch(X[..., :d], X[..., d:], F[..., :d, :], F[..., d:, :], act, ld[0], ld[1])


def _dets(F):
    """``det A`` and ``det(A - iB)`` of a stack of frames ``F = [A; B]``,
    stacked along a new first axis."""
    d = F.shape[-1]
    A, B = F[..., :d, :], F[..., d:, :]
    AW = np.empty((2,) + A.shape, dtype=complex)
    AW[0] = A
    np.subtract(A, 1.0j * B, out=AW[1])
    return AW[..., 0, 0] if d == 1 else np.linalg.det(AW)


def _adaptive(model, q, p, times, rtol):
    """States ``(q, p, [A; B], action)`` at each of ``times``, every orbit
    of the batch stepped together by one lazily stepped DOP853 solve on the
    packed states: each step's samples are read from its dense output, as
    ``solve_ivp`` reads them, then its end with no action, so that the
    log-dets track every step.

    Each orbit (row) gets DOP853's own error norm over its own components,
    and a step's norm is their largest: a step is accepted only when every
    orbit passes the test of its one-orbit solve, so no orbit's tolerance
    loosens (a joint RMS norm would loosen it by up to sqrt(N))."""
    from scipy.integrate import DOP853

    class RowwiseDOP853(DOP853):
        def _estimate_error_norm(self, K, h, scale):  # DOP853's, row by row
            e5 = ((K.T @ self.E5 / scale).reshape(shape) ** 2).sum(axis=1)
            e3 = ((K.T @ self.E3 / scale).reshape(shape) ** 2).sum(axis=1)
            denom = np.where(e5 + e3 > 0, e5 + 0.01 * e3, 1.0) * (K.shape[1] // len(q))
            return float(np.max(np.abs(h) * e5 / np.sqrt(denom)))

    rhs, d, shape = _CharRHS(model, q, p), q.shape[1], (len(q), -1)
    solver = RowwiseDOP853(lambda t, y: rhs(y.reshape(shape)).ravel(), float(times[0]),
                           _pack(q, p).ravel(), float(times[-1]), rtol=rtol, atol=rtol * 1e-2)
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
            for y in np.ascontiguousarray(solver.dense_output()(times[k:stop]).T):
                yield _unpack(y.reshape(shape), d)
            k = stop
        if k < times.size:
            yield _unpack(solver.y.reshape(shape), d)[:3] + (None,)


def _tracked(states):
    """The states of :func:`_adaptive` with ``log det A`` and
    ``log det(A - iB)`` attached.  A state without action is a step's end: it
    continues the tracking from the last step by a branch-safe increment and
    is not yielded.  A state with action is a sample between steps: it takes
    one increment from the last step and the tracking does not pass through
    it, so the log-dets do not depend on which times are sampled."""
    for k, (q, p, F, act) in enumerate(states):
        d = q.shape[1]
        dets = _dets(F)
        ld = np.log(dets) if k == 0 else last_ld + _log_increment(last_det, dets)
        if k == 0 or act is None:
            last_ld, last_det = ld, dets
        if act is not None:
            yield FlowBatch(q, p, F[:, :d], F[:, d:], act, ld[0], ld[1])


def _closed_form(model, q0, p0, times):
    """Closed-form states at each of ``times``, from one stacked call per hook."""
    t, shape = times[:, None, None], times.shape + q0.shape[:1]
    A, B, ldA, ldw = (np.broadcast_to(F[:, None], shape + F.shape[1:])
                      for F in model.frame_at(times))
    yield from map(FlowBatch._make, zip(*model.bulk_flow(q0, p0, t), A, B,
                                        model.bulk_action(q0, p0, t), ldA, ldw))


def _method(model: HamiltonianModel, opts: FlowOptions) -> str:
    """The one choice between closed forms (``"exact"``) and integration."""
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
    ``times`` (monotone, starting at 0 when integrated), of the orbits from
    the rows of ``Q``, ``P``.

    ``exact`` (as :func:`_method` picks) evaluates the closed forms at all
    times in one stacked call.  Integration carries all N orbits in one
    lazy pass, so a caller that stops early integrates no further, and
    tracks the log-dets at every step.  ``rk4`` gives each interval of
    ``times`` :func:`_n_steps` equal steps, taken in runs of up to
    :data:`_RUN_STEPS` (:func:`_rk4`): a sample is yielded once its run is
    done, so a caller that stops early has integrated at most to the end of
    that run.  ``adaptive`` (:func:`_adaptive`) holds each orbit to ``rtol``
    and reads its dense output at ``times`` only.
    """
    opts = opts or FlowOptions()
    method = _method(model, opts)
    if method == "exact":
        yield from _closed_form(model, Q, P, np.asarray(times, dtype=float))
        return
    if method == "adaptive":
        yield from _tracked(_adaptive(model, Q, P, times, opts.rtol))
        return
    pieces, ends = [times[:1]], [0]
    for a, b in zip(times[:-1], times[1:]):
        n = _n_steps(b - a, opts.step)
        pieces.append(np.linspace(a, b, n + 1)[1:])
        ends.append(ends[-1] + n)
    i, stop = 0, 0
    for run in _rk4(model, Q, P, np.concatenate(pieces)):
        start, stop = stop, stop + len(run.action)  # the run's states
        while i < len(ends) and ends[i] < stop:
            yield FlowBatch._make(f[ends[i] - start] for f in run)
            i += 1


def flow_batch(model: HamiltonianModel, Q, P, t: float,
               opts: FlowOptions | None = None) -> FlowBatch:
    """Endpoints at the signed time ``t`` of the orbits from the rows of
    ``Q`` and ``P`` (shape ``(N, d)``): the last state of
    :func:`_sample_orbits` over ``(0, t)``, so an integrated batch takes the
    steps of :func:`integrate_characteristics` and keeps only the current
    state, or over ``t`` alone on closed forms.
    """
    Q = np.asarray(Q, dtype=float).reshape(-1, model.dim)
    P = np.asarray(P, dtype=float).reshape(-1, model.dim)
    times = [t] if _method(model, opts or FlowOptions()) == "exact" else [0.0, t]
    *_, end = _sample_orbits(model, Q, P, np.array(times, dtype=float), opts)
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
    # each field of the batch of one, stacked over the samples
    q, p, A, B, action, logdetA, logdet_w = (
        np.concatenate(field, dtype=dtype) for field, dtype in zip(
            zip(*_sample_orbits(model, X0.q[None], X0.p[None], times, opts)),
            (float, float, complex, complex, float, complex, complex)))
    return TrajectoryBundle(times, q, p, A, B, action, logdetA, logdet_w, hbar=opts.hbar)


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
    the operator norm of the flow Jacobian at the bundle's samples
    (monotone growth yields a single entry at the first crossing).
    Disabled — empty list — when the bundle carries no ``hbar``.  Never
    aborts.  ``apply_propagator`` and ``position_space_solution`` read
    the same crossings from their own orbit pass when they integrate.
    """
    if bundle.hbar is None:
        return []
    norms = np.linalg.norm(_real_jacobian(bundle.A, bundle.B), 2, axis=(-2, -1))
    return _ehrenfest_crossings(bundle.times, norms, bundle.hbar)


def _ehrenfest_crossings(times, norms, hbar: float) -> list[str]:
    """One warning string per upward crossing of ``hbar^{-1/2}`` by the
    flow Jacobian's ``norms`` at ``times``: the first sample above the
    threshold, then the first above it again after one at or below it."""
    thresh = hbar ** -0.5
    warnings_out = []
    above = False
    for t, nrm in zip(times, norms):
        if nrm > thresh and not above:
            warnings_out.append(
                f"linearized flow norm {nrm:.4g} exceeds hbar^-1/2 = "
                f"{thresh:.4g} at t = {t:.6g}; single-packet propagation "
                "is no longer controlled")
            above = True
        elif nrm <= thresh:
            above = False
    return warnings_out
