"""Hamiltonian models on phase space.

Defines the phase-space point and Hamiltonian-evaluator types together
with the built-in integrable models (free motion, constant field, and
the harmonic trap) and a generic polynomial model for exercising the
non-quadratic code paths.  Every model of degree at most 2 carries the
closed forms of one quadratic model (:func:`_quadratic`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigurationError

__all__ = ["PhasePoint", "HamiltonianModel", "builtin_model", "polynomial_model"]


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
        Closed-form Hamiltonian flow, attached to every quadratic model.
    kind : str, optional
        Built-in kind tag (``free``/``linear``/``harmonic``) or
        ``polynomial``.

    The remaining fields are private hooks.  ``bulk_value`` and
    ``bulk_derivatives`` take stacks ``q``, ``p`` of shape ``(N, d)``;
    ``bulk_value`` returns shape ``(N,)`` and ``bulk_derivatives`` the
    pair ``(g, H'')`` of shapes ``(N, 2d)`` and ``(N, 2d, 2d)``, fused
    because the flow module, their one caller, steps batches of orbits
    with both at the same points.  The factories write each derivative
    once, stacked, and the point callables are its one-point views; a
    model given point callables only gets stacks that call them row by
    row.  Quadratic models carry the closed forms of the ``exact`` method,
    read by the flow module alone and broadcast over a stack of times:
    ``bulk_flow``/``bulk_action`` (flow and action of coordinate arrays)
    and ``frame_at`` (the base-point-independent frame and its log-dets);
    ``exact_flow`` and ``inverse_flow`` are point views of ``bulk_flow``.
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
    bulk_derivatives: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.bulk_value is None:
            object.__setattr__(self, "bulk_value", _row_by_row(self.value))
        if self.bulk_derivatives is None:
            gradient, hessian = _row_by_row(self.gradient), _row_by_row(self.hessian)
            object.__setattr__(self, "bulk_derivatives",
                               lambda q, p: (gradient(q, p), hessian(q, p)))

    def action(self, X: PhasePoint, t: float) -> float:
        """Closed-form phase-space action, when available."""
        if self.bulk_action is None:
            raise ConfigurationError(
                f"model kind={self.kind!r} carries no closed-form action")
        return float(self.bulk_action(X.q, X.p, t))


def _row_by_row(point_fn):
    """Stacked form of a point callable, evaluated one row at a time."""
    def stacked(q, p):
        return np.array([point_fn(PhasePoint(a, b)) for a, b in zip(q, p)])
    return stacked


def _from_stacks(dim, bulk_value, bulk_derivatives, **hooks):
    """Model whose point callables are one-point views of its stacks."""
    def value(X):
        return float(bulk_value(X.q[None], X.p[None])[0])

    def gradient(X):
        return bulk_derivatives(X.q[None], X.p[None])[0][0]

    def hessian(X):
        return bulk_derivatives(X.q[None], X.p[None])[1][0]

    return HamiltonianModel(dim=dim, value=value, gradient=gradient,
                            hessian=hessian, bulk_value=bulk_value,
                            bulk_derivatives=bulk_derivatives, **hooks)


# The built-ins |p|^2, |p|^2 + sum(q) and |p|^2 + |q|^2 as (S, b) of _quadratic
_BUILTINS = {"free": ([[0, 0], [0, 2]], [0, 0]), "linear": ([[0, 0], [0, 2]], [1, 0]),
             "harmonic": ([[2, 0], [0, 2]], [0, 0])}
# Tn = (t - Sn)/w^2 = t^3 sum_k (-w^2 t^2)^k / (2k + 3)!, summed where |w t| < 1
_TN = [1.0 / math.factorial(2 * k + 3) for k in range(10)]
_ONE_TWO = np.array([1.0, 2.0])  # C's weights in a and v


def _quadratic(S, b, h0: float, d: int, kind: str) -> HamiltonianModel:
    """The model ``H = sum_i (z_i.S z_i/2 + b.z_i) + h0`` over the pairs
    ``z_i = (q_i, p_i)``, with its closed forms.

    ``M = J S`` is traceless, so ``M^2 = -det(S) I`` and ``E = e^{tM} =
    C I + Sn M`` with ``C = cos wt``, ``Sn = sin(wt)/w``, ``w^2 = det S``
    (cosh and sinh when ``det S < 0``, 1 and t when it is 0).  The orbit is
    ``z_t = E z + (Sn I + Cn M) J b``, where ``Cn = 2 Sn(t/2)^2`` integrates
    ``Sn`` and ``Tn`` integrates ``Cn``.  By Euler's relation
    ``p.H_p - H = d(q.p)/dt / 2 - b.z/2 - h0`` the action is
    ``(q_t.p_t - q.p)/2``, taken from the moves ``z_t - z`` (their matrix
    ``E - I = -det(S) Cn I + Sn M`` does not cancel at small t), less half
    of ``b`` dotted with the integral of the orbit, less ``h0 t``.
    ``A = a I`` and ``A - iB = v I`` with ``a = E_qq + i E_qp`` and
    ``v = 2C + i tr(S) Sn``; only for ``det S > 0`` do they cross the
    negative real axis, at odd multiples of the half-period ``pi / w``, so
    their logs continue by ``i pi sign(S_pp)`` per half-period.
    """
    ((s00, s01), (s10, s11)), (b0, b1) = S, b
    m00, m01, m10, m11 = s10, s11, -s00, -s01  # M = J S
    det = s00 * s11 - s01 * s10
    mjb0, mjb1 = m00 * b1 - m01 * b0, m10 * b1 - m11 * b0  # M J b, J b = (b1, -b0)
    w = math.sqrt(abs(det))
    cos, sin = (np.cos, np.sin) if det > 0 else (np.cosh, np.sinh)
    eye = np.eye(d)
    hess = np.kron(np.array(S, dtype=float), eye)
    slopes = np.array([complex(m00, m01), 1j * (s00 + s11)])  # of a and v in Sn

    def trig(t):
        """``C`` and ``Sn`` at the times ``t``; ``Cn(t) = 2 Sn(t/2)^2``."""
        if det == 0:
            return np.ones_like(t), t
        return cos(w * t), sin(w * t) / w

    def affine(q, p, diag, x, y):
        """``(diag I + x M) z + (x I + y M) J b``."""
        qt, pt = (diag + x * m00) * q + x * m01 * p, x * m10 * q + (diag + x * m11) * p
        if b0 or b1:
            return qt + (x * b1 + y * mjb0), pt + (y * mjb1 - x * b0)
        return qt, pt

    def bulk_value(q, p):
        return (0.5 * (s00 * q * q + 2.0 * s01 * q * p + s11 * p * p)
                + b0 * q + b1 * p).sum(axis=-1) + h0

    def bulk_derivatives(q, p):
        g = np.concatenate([s00 * q + s01 * p + b0, s10 * q + s11 * p + b1], axis=-1)
        return g, np.broadcast_to(hess, q.shape[:-1] + hess.shape)

    def bulk_flow(q, p, t):
        return affine(q, p, *trig(t), 2.0 * trig(0.5 * t)[1] ** 2 if b0 or b1 else 0.0)

    def bulk_action(q, p, t):
        """Summed over the coordinates; ``t`` broadcasts against ``q``."""
        ch, sh = trig(0.5 * t)  # C and Sn at t/2
        Sn, Cn = 2.0 * ch * sh, 2.0 * sh * sh
        dq, dp = affine(q, p, -det * Cn, Sn, Cn)  # z_t - z
        terms = 0.5 * (dq * (p + dp) + q * dp)
        if b0 or b1:
            Tn = t ** 3 * np.polynomial.polynomial.polyval(-det * t * t, _TN)
            if det:
                Tn = np.where(abs(det) * t * t < 1.0, Tn, (t - Sn) / det)
            iq, ip = affine(q, p, Sn, Cn, Tn)  # the integral of the orbit
            terms = terms - 0.5 * (b0 * iq + b1 * ip)
        return (terms.sum(axis=-1, keepdims=True) - h0 * t)[..., 0]

    def frame_at(t):
        """``(A, B, log det A, log det(A - iB))`` at the times ``t``."""
        C, Sn = trig(t)
        av = np.multiply.outer(_ONE_TWO, C) + np.multiply.outer(slopes, Sn)  # a, v
        A = av[0, ..., None, None] * eye
        B = (Sn * complex(m10, m11) + 1j * C)[..., None, None] * eye  # E_pq + i E_pp
        if det > 0:  # the nearest half-turn n
            n = np.rint(t * (w / np.pi))
            av = np.log(av * (-1.0) ** n) + complex(0.0, math.copysign(np.pi, s11)) * n
        else:
            av = np.log(av)
        return (A, B, *(d * av))

    return _from_stacks(d, bulk_value, bulk_derivatives, kind=kind,
                        exact_flow=lambda X, t: PhasePoint(*bulk_flow(X.q, X.p, t)),
                        inverse_flow=lambda X, t: PhasePoint(*bulk_flow(X.q, X.p, -t)),
                        bulk_flow=bulk_flow, bulk_action=bulk_action, frame_at=frame_at)


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

    Each is a quadratic model (:func:`_quadratic`) with its closed forms.
    """
    if kind not in _BUILTINS:
        raise ConfigurationError(
            f"model.kind: unknown kind {kind!r}; expected one of {tuple(_BUILTINS)}")
    if d < 1:
        raise ConfigurationError(f"model dimension must be >= 1, got {d}")
    return _quadratic(*_BUILTINS[kind], 0.0, d, kind)


# Derivative orders (in q, in p) of the columns of a compiled polynomial:
# H, H_q, H_p, H_qq, H_qp, H_pq, H_pp.
_JET_ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (1, 1), (0, 2))


def polynomial_model(coeffs: Mapping[tuple[int, int], float],
                     d: int = 1) -> HamiltonianModel:
    """Hamiltonian from polynomial coefficients, ``d = 1`` only.

    Parameters
    ----------
    coeffs : mapping ``(i, j) -> c``
        Term ``c * q**i * p**j``; total degree ``i + j`` at most 4
        (keeps the derivative stacks bounded).

    Derivatives are computed exactly from the coefficients, which are
    compiled once into a matrix over the monomials ``q**a * p**b`` (a, b
    <= 4) that ``H`` or a derivative of it uses.  A monomial's row holds
    its coefficient in ``H``, ``dH/dq``, ``dH/dp`` and the four entries
    of the Hessian, so the value, gradient and Hessian of a stack come
    from one product of its monomial table with that matrix.  The
    table's powers are built by multiplying (``x**3 = x**2 * x``,
    ``x**4 = x**2 * x**2``), which at a few hundred points costs a tenth
    of a general ``pow``.  The flow module integrates these numerically;
    total degree at most 2 gives the quadratic model (:func:`_quadratic`).
    """
    if d != 1:
        raise ConfigurationError("polynomial_model is implemented for d=1")
    rows: dict[tuple[int, int], np.ndarray] = {}
    for (i, j), c in coeffs.items():
        i, j, c = int(i), int(j), float(c)
        if i < 0 or j < 0:
            raise ConfigurationError(f"model.coeffs: negative exponent ({i},{j})")
        if i + j > 4:
            raise ConfigurationError(
                f"model.coeffs: total degree {i + j} of term ({i},{j}) exceeds 4")
        if not np.isfinite(c):
            raise ConfigurationError(f"model.coeffs: non-finite coefficient at ({i},{j})")
        if c == 0.0:
            continue
        for col, (m, n) in enumerate(_JET_ORDERS):
            if i >= m and j >= n:  # d^m/dq^m d^n/dp^n of c q^i p^j
                rows.setdefault((i - m, j - n), np.zeros(len(_JET_ORDERS)))[col] += (
                    c * math.perm(i, m) * math.perm(j, n))
    qexp, pexp = (np.array([m[k] for m in rows], dtype=int) for k in (0, 1))
    coef = np.array(list(rows.values())).reshape(len(rows), len(_JET_ORDERS))

    # an overflowed power times a zero coefficient gives NaN, not a warning:
    # the flow reports non-finite derivatives as a ModelError.  The flow's
    # stage loops enter that error state once for all their calls, so the
    # jet itself does not; the value and the point callables enter it here.
    def jet(q, p):  # columns of _JET_ORDERS
        x = np.empty((5, 2, len(q)))  # x[k] = (q**k, p**k)
        x[0] = 1.0
        x[1, 0], x[1, 1] = q[:, 0], p[:, 0]
        np.multiply(x[1], x[1], out=x[2])
        np.multiply(x[1:3], x[2], out=x[3:])  # x**3 = x * x**2, x**4 = x**2 * x**2
        return (x[qexp, 0] * x[pexp, 1]).T @ coef

    @np.errstate(invalid="ignore")
    def bulk_value(q, p):
        return jet(q, p)[:, 0]

    def bulk_derivatives(q, p):
        out = jet(q, p)
        return out[:, 1:3], out[:, 3:].reshape(len(out), 2, 2)

    if all(i + j <= 2 for i, j in rows):  # H'', grad H and H at 0 fix a quadratic
        zero = np.zeros((1, 1))
        (g,), (S,) = bulk_derivatives(zero, zero)
        return _quadratic(S, g, float(bulk_value(zero, zero)[0]), 1, "polynomial")
    model = _from_stacks(1, bulk_value, bulk_derivatives, kind="polynomial")
    return replace(model, gradient=np.errstate(invalid="ignore")(model.gradient),
                   hessian=np.errstate(invalid="ignore")(model.hessian))
