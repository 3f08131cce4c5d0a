"""Characteristic flow: Hamilton's equations, phase-space action, and
the variational frame in the Hamiltonian gauge.

The central object is the :class:`TrajectoryBundle` — a time-sampled
record of one orbit carrying the phase point ``X_t``, the complex
variational frame ``(A, B)`` with ``A(0) = I`` and ``B(0) = iI``, the
action integral, and a continuously branch-tracked ``log det A``.  The
anisotropy form ``Z = B A^{-1}`` lives in the Siegel upper half-space
and is always recovered algebraically from the linear frame, never
integrated through its own (caustic-singular) Riccati equation.

``_sample_orbits`` carries N orbits at once through a grid of times in one
pass, by closed forms or integration as ``_method`` alone chooses; it gives
:func:`flow_batch`'s endpoints, a bundle's samples and, in one pass, all of
a grid propagator's times.  The frame and action equations are linear along
an orbit that does not depend on them, so the rk4 pass (:func:`_rk4`) steps
the orbit points alone, then gives each run of steps its frames, action and
log-dets in one vectorized pass: a first run of at most 64 steps, then runs
as long as a memory budget allows; adaptive DOP853 steps the joint system
(:class:`_CharRHS`).  Both read ``f = J grad H`` and ``Df = J H''`` from the
model's ``bulk_field`` and never apply ``J``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
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
    return _symplectic(d).copy()


@cache
def _symplectic(d: int) -> np.ndarray:
    """:func:`symplectic_J`, built once per dimension and read-only."""
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = np.eye(d)
    J[d:, :d] = -np.eye(d)
    J.flags.writeable = False
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
    with positive-definite imaginary part.  The test reads the lower
    triangle, as ``eigvalsh`` does.  A 1 x 1 or 2 x 2 imaginary part is
    positive definite exactly when its leading minors are positive, so those
    stacks skip the LAPACK call, whose wrapper costs more than the arithmetic."""
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))
    if (np.abs(M - np.swapaxes(M, -1, -2)).max(axis=(-2, -1)) > 1e-10 * scale).any():
        raise DomainError("SiegelMatrix must be symmetric to 1e-10")
    Y, n = M.imag, M.shape[-1]
    if n == 1:
        bad = Y[..., 0, 0] <= 0
    elif n == 2:
        a = Y[..., 0, 0]
        bad = (a <= 0) | (a * Y[..., 1, 1] - Y[..., 1, 0] * Y[..., 1, 0] <= 0)
    else:
        bad = np.linalg.eigvalsh(Y).min(axis=-1) <= 0
    if bad.any():
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


def _n_steps(d, step: float | None):
    """Equal steps that cover an interval of length ``|d|`` (or each of an
    array of them): ``ceil(|d| / step)`` (step default 1e-3) up to a relative
    1e-9, so that round-off never adds a step: a step ``T / k`` gives ``k``
    steps, and an interval of a grid one step (on a 20 000-step grid it
    exceeds its step by up to 2e-12)."""
    h = step if step is not None else 1e-3
    return np.ceil(np.abs(d) / h * (1 - 1e-9)).astype(int)


def _step_grid(times: np.ndarray, step: float | None):
    """The rk4 step grid through the samples ``times``, and the index of each
    sample in it, in one pass: interval ``k`` takes ``n`` = :func:`_n_steps`
    equal steps, whose nodes ``j ((b - a) / n) + a`` end on ``b`` itself, as
    ``np.linspace(a, b, n + 1)`` places them."""
    d = times[1:] - times[:-1]
    n = _n_steps(d, step)
    ends = np.concatenate([[0], n.cumsum()])
    k = np.arange(n.size).repeat(n)  # the interval of each node after the first
    grid = np.empty(ends[-1] + 1)
    grid[1:] = (np.arange(1, grid.size) - ends[k]) * (d / np.maximum(n, 1))[k] + times[k]
    grid[ends] = times
    return grid, ends.tolist()


def _log_increment(prev_det, new_det):
    """Principal log of the determinant ratio (branch-safe increment)."""
    ratio = new_det / prev_det
    return np.log(np.abs(ratio)) + 1j * np.arctan2(ratio.imag, ratio.real)


def _pack(q, p) -> np.ndarray:
    """Packed states of orbits from the rows of ``q``, ``p`` at t = 0: one
    real row per orbit holding ``q``, ``p``, the Hamiltonian-gauge frame
    ``F = [A; B] = [I; iI]`` as interleaved (re, im) pairs, and the action 0.
    Row ``i`` of the frame's real ``2d x 2d`` view starts ``2d i`` in, so
    ``Re A_ii`` and ``Im B_ii`` sit ``2d + 2`` apart, from 0 and ``2d^2 + 1``."""
    n, d = q.shape
    y = np.zeros((n, 2 * d + 4 * d * d + 1))
    y[:, :d], y[:, d:2 * d] = q, p
    y[:, 2 * d:2 * d + 2 * d * d:2 * d + 2] = 1.0  # Re A = I
    y[:, 2 * d + 2 * d * d + 1:-1:2 * d + 2] = 1.0  # Im B = I
    return y


def _unpack(y, d: int):
    """Views ``(q, p, [A; B], action)`` of packed states; the interleaved
    frame is a complex view, so nothing is copied."""
    return (y[:, :d], y[:, d:2 * d],
            y[:, 2 * d:-1].view(complex).reshape(len(y), 2 * d, d), y[:, -1])


class _CharRHS:
    """The characteristic equations of a batch of orbits launched from the
    rows of ``q0``, ``p0``: ``dX/dt = f``, ``dF/dt = Df F`` for the frame
    ``F = [A; B]`` and ``dAct/dt = p . H_p - H(X_0)``, with ``f = (H_p,
    -H_q)`` and ``Df`` the model's ``bulk_field`` row at ``X``.  ``_rk4``
    reads the parts; a call is the joint right-hand side on packed states
    (:func:`_pack`), where a real matrix acts on the interleaved (re, im)
    frame as on the complex one, so the frame's rate is one real product."""

    def __init__(self, model: HamiltonianModel, q0, p0):
        self.field, self.q0, self.p0 = model.bulk_field, q0, p0
        self.H0 = model.bulk_value(np.concatenate([q0, p0], axis=1))
        self.d = q0.shape[1]

    def action_rate(self, p, Hp, axis: int = -1):
        """``p . H_p - H(X_0)`` along ``axis``."""
        return np.vecdot(p, Hp, axis=axis) - self.H0

    def require_finite(self, X, v):
        """Raise :class:`ModelError` naming the point and the orbit of the
        first row of a stage at ``X`` whose field rows ``v`` are not finite."""
        ok = np.isfinite(v).all(axis=1)
        if not ok.all():
            j, d = int(np.argmin(ok)), self.d
            raise ModelError(
                f"non-finite model derivative at q={X[j, :d]}, p={X[j, d:]} on the "
                f"orbit from q={self.q0[j]}, p={self.p0[j]}")

    def __call__(self, y):
        n, d = len(y), self.d
        with np.errstate(invalid="ignore"):  # a non-finite derivative raises below
            v = self.field(y[:, :2 * d])
        dy = np.empty_like(y)
        dy[:, :2 * d] = v[:, :2 * d]
        dy[:, 2 * d:-1] = (v[:, 2 * d:].reshape(n, 2 * d, 2 * d)
                           @ y[:, 2 * d:-1].reshape(n, 2 * d, 2 * d)).reshape(n, 4 * d * d)
        dy[:, -1] = self.action_rate(y[:, d:2 * d], v[:, :d])
        if not np.isfinite(dy).all():  # any non-finite derivative reaches dy
            self.require_finite(y[:, :2 * d], v)
        return dy


# the first run of rk4 steps holds at most _RUN_STEPS steps, and every run's
# stage arrays about _RUN_BYTES
_RUN_STEPS, _RUN_BYTES = 64, 4 << 20


def _rk4(model, q, p, times):
    """The states at ``times`` of the orbits from the rows of ``q``, ``p``,
    stepped by classical RK4, in runs: :class:`FlowBatch` es whose fields
    have a leading axis over consecutive states, state 0 alone first.

    The frame system is linear along an orbit that does not depend on the
    frame, and the action rate depends on the orbit alone.  So the stage
    loop (:func:`_orbit_steps`) steps the orbit points ``X`` only, for a
    run of as many steps as keep its stage arrays near :data:`_RUN_BYTES`:
    each stage's ``X`` and field row ``(f, Df)``, held twice, as the loop
    returns them and joined orbits-last (:func:`_orbits_last`).  The first
    run takes at most :data:`_RUN_STEPS` steps, so a caller that stops at
    an early sample integrates no further; a later run spreads the work it
    costs beyond its steps over as many steps as the budget allows.  Each
    run then gets its frames, action and log-dets in one pass over all its
    steps and orbits: each step's RK4 update of the frame is a propagator,
    ``F_{n+1} = P_n F_n``, read from the stages' ``Df``, so the run's
    frames are ``P_n ... P_0 F`` (:func:`_propagators`); the action adds the
    RK4 increments and the log-dets the branch-safe increments of the run's
    determinants, each a cumulative sum.  ``X`` and the action are the joint
    system's RK4 (:class:`_CharRHS`) bit for bit; the frames and log-dets
    differ by round-off.  A non-finite field row in a run first yields the
    states before its step, then raises :class:`ModelError`."""
    rhs, (n, d) = _CharRHS(model, q, p), q.shape
    y = _pack(q, p)
    x, F, act = y[:, :2 * d], _unpack(y, d)[2].view(float), y[:, -1]
    ld = np.log(_dets(F.view(complex)))
    yield _run(x[None], F[None], act[None], ld[:, None])
    steps = np.diff(times)
    # 4 stages of X (2d) and field row (2d + 4d^2) doubles, twice, per step and orbit
    size = max(_RUN_BYTES // (256 * d * (d + 1) * max(n, 1)), 1)
    start, stop = 0, min(size, _RUN_STEPS)
    while start < steps.size:
        h, start, stop = steps[start:stop], stop, stop + size
        with np.errstate(invalid="ignore"):  # a non-finite stage raises below
            xs, stages = _orbit_steps(rhs.field, x, h)
        X, V = map(_orbits_last, zip(*stages))  # V holds f, then Df row by row
        m, bad = h.size, None
        if not np.isfinite(V).all():
            bad = int(np.argmin(np.isfinite(V).all(axis=(0, -1)).ravel()))  # step * 4 + stage
            m = bad // 4
        if m:
            h, xs = h[:m, None], np.concatenate(xs[1:m + 1]).reshape(m, n, 2 * d)
            P = _propagators(V[2 * d:].reshape((2 * d, 2 * d) + V.shape[1:])[:, :, :m], h)
            Fs = np.empty((m + 1,) + F.shape)
            Fs[0] = F
            F0 = np.ascontiguousarray(np.moveaxis(F, 0, -1))[:, :, None]
            Fs[1:] = np.moveaxis(_mul(P, F0), (0, 1), (-2, -1))  # F_{n+1} = P_n ... P_0 F
            r = rhs.action_rate(X[d:, :m], V[:d, :m], axis=0)
            acts = np.cumsum(np.concatenate(
                [act[None], h / 6 * (r[:, 0] + 2 * r[:, 1] + 2 * r[:, 2] + r[:, 3])]), axis=0)
            dets = _dets(Fs.view(complex))
            lds = np.cumsum(np.concatenate(
                [ld[:, None], _log_increment(dets[:, :-1], dets[:, 1:])], axis=1), axis=1)
            x, F, act, ld = xs[-1], Fs[-1], acts[-1], lds[:, -1]
            yield _run(xs, Fs[1:], acts[1:], lds[:, 1:])
        if bad is not None:
            rhs.require_finite(*stages[bad])


def _orbit_steps(field, x, h):
    """RK4 steps ``h`` of the orbit points ``x`` alone, ``X' = f``: the
    points after each step (``x`` first), and each stage's point and field
    row ``(X, v)``, whose first ``2d`` entries are the velocity ``f``; the step
    fractions are Python floats, which multiply an array faster than numpy's."""
    xs, stages, k = [x], [], x.shape[1]
    for h2, h1, h6 in zip((h / 2).tolist(), h.tolist(), (h / 6).tolist()):
        v1 = field(x)
        f1 = v1[:, :k]
        x2 = x + h2 * f1
        v2 = field(x2)
        f2 = v2[:, :k]
        x3 = x + h2 * f2
        v3 = field(x3)
        f3 = v3[:, :k]
        x4 = x + h1 * f3
        v4 = field(x4)
        stages += (x, v1), (x2, v2), (x3, v3), (x4, v4)
        x = x + h6 * (f1 + 2 * f2 + 2 * f3 + v4[:, :k])
        xs.append(x)
    return xs, stages


def _orbits_last(arrays):
    """A run's stage arrays, each of shape ``(N, ...)``, joined in one
    C-ordered array of shape ``(..., steps, 4, N)``, where stacked 2d x 2d
    products over the steps, stages and orbits are long vector operations.
    They are copied once, into the orbits-first view of that array."""
    a = arrays[0]
    out = np.empty(a.shape[1:] + (len(arrays) * len(a),))
    np.concatenate(arrays, out=out.transpose(a.ndim - 1, *range(a.ndim - 1)))
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
    """The :class:`FlowBatch` states at each of ``times``, every orbit of the
    batch stepped together by one lazily stepped DOP853 solve on the packed
    states: each step's samples are read from its dense output, as
    ``solve_ivp`` reads them.  The log-dets start at the first sample and
    continue from step end to step end by branch-safe increments; a sample
    takes one increment from the last step's end, so they do not depend on
    which times are sampled.

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

    def advance(F):
        """Log-dets and dets of the frames ``F``, one increment on from ``track``."""
        dets = _dets(F)
        return (np.log(dets) if track is None
                else track[0] + _log_increment(track[1], dets)), dets

    rhs, d, shape = _CharRHS(model, q, p), q.shape[1], (len(q), -1)
    if not len(q):  # no orbit to step, and DOP853 cannot size an empty state
        qk, pk, F, act = _unpack(_pack(q, p), d)
        none = np.empty(0, dtype=complex)
        for _ in times:
            yield FlowBatch(qk, pk, F[:, :d], F[:, d:], act, none, none)
        return
    solver = RowwiseDOP853(lambda t, y: rhs(y.reshape(shape)).ravel(), float(times[0]),
                           _pack(q, p).ravel(), float(times[-1]), rtol=rtol, atol=rtol * 1e-2)
    signed = solver.direction * times  # increasing
    k, track = 0, None
    while k < times.size:
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(
                f"adaptive integration failed: {message}",
                last_valid_time=float(times[k - 1]) if k else None)
        stop = np.searchsorted(signed, solver.direction * solver.t, side="right")
        if stop > k:
            for y in np.ascontiguousarray(solver.dense_output()(times[k:stop]).T):
                qk, pk, F, act = _unpack(y.reshape(shape), d)
                ld, dets = advance(F)
                track = track or (ld, dets)
                yield FlowBatch(qk, pk, F[:, :d], F[:, d:], act, ld[0], ld[1])
            k = stop
        if k < times.size:
            track = advance(_unpack(solver.y.reshape(shape), d)[2])


def _closed_form(model, q0, p0, times):
    """Closed-form states at each of ``times``, from one stacked call per hook;
    the frames and log-dets, which no orbit changes, are broadcast over the
    orbits, each stacked pair in one view."""
    t, n = times[:, None, None], len(q0)
    frames, lds = model.frame_at(times)
    A, B = np.broadcast_to(frames[:, :, None], frames.shape[:2] + (n,) + frames.shape[2:])
    ldA, ldw = np.broadcast_to(lds[..., None], lds.shape + (n,))
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
    ``times`` :func:`_n_steps` equal steps, taken in runs (:func:`_rk4`): a
    sample is yielded once its run is done, so a caller that stops early has
    integrated at most to the end of that run, and a caller that stops
    within the first :data:`_RUN_STEPS` steps no further than those.
    ``adaptive`` (:func:`_adaptive`) holds each orbit to ``rtol`` and reads
    its dense output at ``times`` only.
    """
    opts = opts or FlowOptions()
    method = _method(model, opts)
    if method == "exact":
        yield from _closed_form(model, Q, P, np.asarray(times, dtype=float))
        return
    if method == "adaptive":
        yield from _adaptive(model, Q, P, times, opts.rtol)
        return
    grid, ends = _step_grid(times, opts.step)
    i, stop = 0, 0
    for run in _rk4(model, Q, P, grid):
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
    opts = opts or FlowOptions()
    times = [t] if _method(model, opts) == "exact" else [0.0, t]
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
    times, _ = _step_grid(np.array([0.0, T]), opts.step)
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
    aborts.  The grid propagators read the same crossings on ``[0, t]``
    for each of their times from their one orbit pass when they integrate.
    """
    if bundle.hbar is None:
        return []
    return _ehrenfest_crossings(bundle.times, bundle.A, bundle.B, bundle.hbar)


def _ehrenfest_crossings(times, A, B, hbar: float) -> list[str]:
    """One warning string per upward crossing of ``hbar^{-1/2}`` by the
    operator norm of the flow Jacobian of the frames ``A``, ``B`` at
    ``times``: the first sample above the threshold, then the first above
    it again after one at or below it."""
    norms = np.linalg.norm(_real_jacobian(A, B), 2, axis=(-2, -1))
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
