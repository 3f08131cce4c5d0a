"""Hamiltonian models on phase space.

Defines the phase-space point and Hamiltonian-evaluator types together
with the built-in integrable models (free motion, constant field, and
the harmonic trap) and a generic polynomial model for exercising the
non-quadratic code paths.

The mass convention throughout is ``H = |p|^2 + V(q)`` (no 1/2 factor);
all closed-form flows, actions, and variational frames below depend on
it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError

__all__ = ["PhasePoint", "HamiltonianModel", "builtin_model", "polynomial_model"]

BUILTIN_KINDS = ("free", "linear", "harmonic")


@dataclass(frozen=True)
class PhasePoint:
    """A point ``X = (q, p)`` of 2d-dimensional phase space.

    Parameters
    ----------
    q, p : array_like
        Position and momentum coordinates of equal length ``d >= 1``.
        Scalars are promoted to length-1 vectors.
    """

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.ndim != 1 or p.ndim != 1 or q.size != p.size or q.size < 1:
            raise ConfigurationError(
                "PhasePoint requires q and p of equal length d >= 1, got "
                f"shapes {q.shape} and {p.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ConfigurationError("PhasePoint coordinates must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def d(self) -> int:
        return self.q.size

    def as_vector(self) -> np.ndarray:
        """Return the concatenated coordinate vector ``(q, p)``."""
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_vector(cls, v) -> "PhasePoint":
        v = np.asarray(v, dtype=float)
        d = v.size // 2
        return cls(v[:d], v[d:])


@dataclass(frozen=True)
class HamiltonianModel:
    """Evaluator bundle for a smooth Hamiltonian ``H(q, p)``.

    Fields
    ------
    dim : int
        Number of position dimensions ``d``.
    value, gradient, hessian : callables of a :class:`PhasePoint`
        ``H``, ``(dH/dq, dH/dp)`` as a 2d-vector, and the symmetric
        2d x 2d second-derivative matrix in ``(q, p)`` block order.
    exact_flow : callable ``(X, t) -> PhasePoint``, optional
        Closed-form Hamiltonian flow, attached for the built-ins.
    kind : str, optional
        Built-in kind tag (``free``/``linear``/``harmonic``) or
        ``polynomial``.

    The remaining fields are private hooks.  ``bulk_value``,
    ``bulk_gradient`` and ``bulk_hessian`` take stacks ``q``, ``p`` of
    shape ``(N, d)`` and return shapes ``(N,)``, ``(N, 2d)`` and
    ``(N, 2d, 2d)``; the flow module steps batches of orbits with them.
    The factories write each derivative once, stacked, and the point
    callables are its one-point views; a model given point callables
    only gets stacks that call them row by row.  For the quadratic
    built-ins, ``bulk_flow``/``bulk_action`` (flow and action over
    coordinate arrays) and ``frame_at`` (the base-point-independent
    frame) carry the closed forms of the ``exact`` method;
    ``exact_flow`` and ``inverse_flow`` are point views of
    ``bulk_flow`` at ``t`` and ``-t``.
    """

    dim: int
    value: Callable[[PhasePoint], float]
    gradient: Callable[[PhasePoint], np.ndarray]
    hessian: Callable[[PhasePoint], np.ndarray]
    exact_flow: Callable[[PhasePoint, float], PhasePoint] | None = None
    kind: str | None = None
    # closed-form hooks (present only when exact_flow is); not part of
    # the public surface
    bulk_flow: Callable | None = field(default=None, repr=False)
    bulk_action: Callable | None = field(default=None, repr=False)
    frame_at: Callable | None = field(default=None, repr=False)
    inverse_flow: Callable | None = field(default=None, repr=False)
    # stacked derivatives; not part of the public surface
    bulk_value: Callable | None = field(default=None, repr=False)
    bulk_gradient: Callable | None = field(default=None, repr=False)
    bulk_hessian: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("value", "gradient", "hessian"):
            if getattr(self, "bulk_" + name) is None:
                object.__setattr__(self, "bulk_" + name,
                                   _row_by_row(getattr(self, name)))

    def action(self, X: PhasePoint, t: float) -> float:
        """Closed-form phase-space action, when available."""
        if self.bulk_action is None:
            raise ConfigurationError(
                f"model kind={self.kind!r} carries no closed-form action")
        return float(self.bulk_action(X.q, X.p, t).sum())


def _row_by_row(point_fn):
    """Stacked form of a point callable, evaluated one row at a time."""
    def stacked(q, p):
        return np.array([point_fn(PhasePoint(a, b)) for a, b in zip(q, p)])
    return stacked


def _from_stacks(dim, bulk_value, bulk_gradient, bulk_hessian, **hooks):
    """Model whose point callables are one-point views of its stacks."""
    def value(X):
        return float(bulk_value(X.q[None], X.p[None])[0])

    def gradient(X):
        return bulk_gradient(X.q[None], X.p[None])[0]

    def hessian(X):
        return bulk_hessian(X.q[None], X.p[None])[0]

    return HamiltonianModel(dim=dim, value=value, gradient=gradient,
                            hessian=hessian, bulk_value=bulk_value,
                            bulk_gradient=bulk_gradient,
                            bulk_hessian=bulk_hessian, **hooks)


# Each built-in is H = |p|^2 + sum_i V(q_i) with constant V''.  Its pieces:
# V, V', V'', and the closed-form flow, action and frame.

def _free_pieces(d):
    def bulk_flow(q, p, t):
        return q + 2.0 * t * p, p + 0.0 * q

    def bulk_action(q, p, t):
        return p ** 2 * t

    def frame_at(t):
        A = 1.0 + 2.0j * t
        return (A * np.eye(d), 1.0j * np.eye(d),
                d * np.log(A), d * np.log(A + 1.0))  # A - iB = 2 + 2it

    return np.zeros_like, np.zeros_like, 0.0, bulk_flow, bulk_action, frame_at


def _linear_pieces(d):
    def bulk_flow(q, p, t):
        return q + 2.0 * t * p - t ** 2, p - t

    def bulk_action(q, p, t):
        return (p ** 2 - q) * t - 2.0 * p * t ** 2 + 2.0 * t ** 3 / 3.0

    def frame_at(t):
        A = 1.0 + 2.0j * t
        return (A * np.eye(d), 1.0j * np.eye(d),
                d * np.log(A), d * np.log(A + 1.0))

    return (lambda q: q), np.ones_like, 0.0, bulk_flow, bulk_action, frame_at


def _harmonic_pieces(d):
    def bulk_flow(q, p, t):
        c, s = np.cos(2.0 * t), np.sin(2.0 * t)
        return c * q + s * p, c * p - s * q

    def bulk_action(q, p, t):
        return (0.25 * (p ** 2 - q ** 2) * np.sin(4.0 * t)
                + 0.5 * p * q * (np.cos(4.0 * t) - 1.0))

    def frame_at(t):
        # A = e^{2it} I, B = i e^{2it} I; both logs continued from 0
        w = np.exp(2.0j * t)
        return (w * np.eye(d), 1.0j * w * np.eye(d),
                d * 2.0j * t, d * (np.log(2.0) + 2.0j * t))

    return ((lambda q: q * q), (lambda q: 2.0 * q), 2.0,
            bulk_flow, bulk_action, frame_at)


def builtin_model(kind: str, d: int = 1) -> HamiltonianModel:
    """Return one of the built-in integrable models.

    Parameters
    ----------
    kind : {"free", "linear", "harmonic"}
        ``free``: H = |p|^2, flow (q + 2tp, p).
        ``linear``: H = |p|^2 + sum(q), flow (q + 2tp - t^2, p - t).
        ``harmonic``: H = |p|^2 + |q|^2, flow = rotation with entries
        cos 2t, sin 2t.
    d : int
        Dimension; built-ins are coordinate-wise sums, so any d >= 1.

    All three carry exact flows, actions, base-point-independent
    variational frames (their Hessians are constant), and inverse
    flows.
    """
    if kind not in BUILTIN_KINDS:
        raise ConfigurationError(
            f"model.kind: unknown kind {kind!r}; expected one of {BUILTIN_KINDS}")
    if d < 1:
        raise ConfigurationError(f"model dimension must be >= 1, got {d}")
    pieces = {"free": _free_pieces, "linear": _linear_pieces,
              "harmonic": _harmonic_pieces}[kind](d)
    V, dV, ddV, bulk_flow, bulk_action, frame_at = pieces
    hess = np.diag(np.concatenate([np.full(d, ddV), np.full(d, 2.0)]))

    def bulk_value(q, p):
        return (p * p).sum(axis=-1) + V(q).sum(axis=-1)

    def bulk_gradient(q, p):
        return np.concatenate([dV(q), 2.0 * p], axis=-1)

    def bulk_hessian(q, p):
        return np.broadcast_to(hess, q.shape[:-1] + hess.shape)

    def flow(X, t):
        return PhasePoint(*bulk_flow(X.q, X.p, t))

    def inverse_flow(X, t):
        return PhasePoint(*bulk_flow(X.q, X.p, -t))

    return _from_stacks(d, bulk_value, bulk_gradient, bulk_hessian,
                        exact_flow=flow, kind=kind, bulk_flow=bulk_flow,
                        bulk_action=bulk_action, frame_at=frame_at,
                        inverse_flow=inverse_flow)


def polynomial_model(coeffs: Mapping[tuple[int, int], float],
                     d: int = 1) -> HamiltonianModel:
    """Hamiltonian from polynomial coefficients, ``d = 1`` only.

    Parameters
    ----------
    coeffs : mapping ``(i, j) -> c``
        Term ``c * q**i * p**j``; total degree ``i + j`` at most 4
        (keeps the derivative stacks bounded).

    Derivatives are computed exactly from the coefficients.  No exact
    flow is attached; the flow module integrates these numerically.
    """
    if d != 1:
        raise ConfigurationError("polynomial_model is implemented for d=1")
    terms = []
    for (i, j), c in coeffs.items():
        i, j, c = int(i), int(j), float(c)
        if i < 0 or j < 0:
            raise ConfigurationError(f"model.coeffs: negative exponent ({i},{j})")
        if i + j > 4:
            raise ConfigurationError(
                f"model.coeffs: total degree {i + j} of term ({i},{j}) exceeds 4")
        if not np.isfinite(c):
            raise ConfigurationError(f"model.coeffs: non-finite coefficient at ({i},{j})")
        if c != 0.0:
            terms.append((i, j, c))

    def bulk_value(q, p):
        q, p = q[..., 0], p[..., 0]
        return sum((c * q ** i * p ** j for i, j, c in terms), np.zeros(q.shape))

    def bulk_gradient(q, p):
        q, p = q[..., 0], p[..., 0]
        g = np.empty(q.shape + (2,))
        g[..., 0] = sum(c * i * q ** (i - 1) * p ** j for i, j, c in terms if i > 0)
        g[..., 1] = sum(c * j * q ** i * p ** (j - 1) for i, j, c in terms if j > 0)
        return g

    def bulk_hessian(q, p):
        q, p = q[..., 0], p[..., 0]
        H = np.empty(q.shape + (2, 2))
        H[..., 0, 0] = sum(c * i * (i - 1) * q ** (i - 2) * p ** j
                           for i, j, c in terms if i > 1)
        H[..., 1, 1] = sum(c * j * (j - 1) * q ** i * p ** (j - 2)
                           for i, j, c in terms if j > 1)
        H[..., 0, 1] = H[..., 1, 0] = sum(c * i * j * q ** (i - 1) * p ** (j - 1)
                                          for i, j, c in terms if i > 0 and j > 0)
        return H

    return _from_stacks(1, bulk_value, bulk_gradient, bulk_hessian,
                        kind="polynomial")
