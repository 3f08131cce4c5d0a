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
    ``bulk_field`` take a stack ``X`` of points, one row ``(q, p)`` each
    (shape ``(N, 2d)``), the rows the flow module steps; ``bulk_value``
    returns shape ``(N,)`` and ``bulk_field`` one row per point of what the
    flow reads: the vector field ``f = J grad H = (H_p, -H_q)``, then its
    Jacobian ``Df = J H''`` (rows ``(H_pq, H_pp)``, ``(-H_qq, -H_qp)``) row
    by row, shape ``(N, 2d + 4d^2)``.  The factories write each stack once,
    and the point callables are its one-point views, which undo ``J``
    exactly; a model given point callables only gets stacks that call them
    row by row.  Quadratic models carry the closed forms of the ``exact``
    method, read by the flow module alone and broadcast over a stack of
    times: ``bulk_flow``/``bulk_action`` (flow and action of coordinate
    arrays) and ``frame_at`` (the base-point-independent frame ``(A, B)``
    and its two log-dets, each pair stacked); ``exact_flow`` and
    ``inverse_flow`` are point views of ``bulk_flow``.
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
    # stacked value and vector field; not part of the public surface
    bulk_value: Callable | None = field(default=None, repr=False)
    bulk_field: Callable | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.bulk_value is None:
            object.__setattr__(self, "bulk_value", _row_by_row(self.value))
        if self.bulk_field is None:
            g, h, d = self.gradient, self.hessian, self.dim
            object.__setattr__(self, "bulk_field", _row_by_row(
                lambda X: np.concatenate([_J(g(X), d), _J(h(X), d).ravel()])))

    def action(self, X: PhasePoint, t: float) -> float:
        """Closed-form phase-space action, when available."""
        if self.bulk_action is None:
            raise ConfigurationError(
                f"model kind={self.kind!r} carries no closed-form action")
        return float(self.bulk_action(X.q, X.p, t))


def _row_by_row(point_fn):
    """Stacked form of a point callable, evaluated one row at a time."""
    def stacked(X):
        return np.array([point_fn(PhasePoint.from_vector(x)) for x in X])
    return stacked


def _J(a, d: int) -> np.ndarray:
    """``J a`` of a 2d-vector or 2d x 2d matrix ``a``, exact; ``-J a`` undoes it."""
    return np.concatenate([a[d:], np.negative(a[:d])])


def _from_stacks(dim, bulk_value, bulk_field, **hooks):
    """Model whose point callables are one-point views of its stacks."""
    def value(X):
        return float(bulk_value(X.as_vector()[None])[0])

    def gradient(X):
        return -_J(bulk_field(X.as_vector()[None])[0, :2 * dim], dim)

    def hessian(X):
        return -_J(bulk_field(X.as_vector()[None])[0, 2 * dim:].reshape(2 * dim, -1), dim)

    return HamiltonianModel(dim=dim, value=value, gradient=gradient,
                            hessian=hessian, bulk_value=bulk_value,
                            bulk_field=bulk_field, **hooks)


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
    jacobian = _J(np.kron(np.array(S, dtype=float), eye), d).ravel()  # Df = J H''
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

    def bulk_value(X):
        q, p = X[:, :d], X[:, d:]
        return (0.5 * (s00 * q * q + 2.0 * s01 * q * p + s11 * p * p)
                + b0 * q + b1 * p).sum(axis=-1) + h0

    def bulk_field(X):
        q, p = X[:, :d], X[:, d:]
        return np.concatenate([s10 * q + s11 * p + b1, -(s00 * q + s01 * p + b0),
                               np.broadcast_to(jacobian, (len(X), jacobian.size))], axis=1)

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
        """The frames ``A``, ``B`` and the log-dets ``log det A``,
        ``log det(A - iB)`` at the times ``t``, each pair stacked on a new
        first axis."""
        C, Sn = trig(t)
        av = np.multiply.outer(_ONE_TWO, C) + np.multiply.outer(slopes, Sn)  # a, v
        ab = np.stack([av[0], Sn * complex(m10, m11) + 1j * C])  # a, E_pq + i E_pp
        if det > 0:  # the nearest half-turn n
            n = np.rint(t * (w / np.pi))
            av = np.log(av * (-1.0) ** n) + complex(0.0, math.copysign(np.pi, s11)) * n
        else:
            av = np.log(av)
        return ab[..., None, None] * eye, d * av

    return _from_stacks(d, bulk_value, bulk_field, kind=kind,
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
# the largest batch whose jet raises each coordinate to its exponents by pow
_FEW_POINTS = 4


def polynomial_model(coeffs: Mapping[tuple[int, int], float]) -> HamiltonianModel:
    """Hamiltonian from polynomial coefficients, in one dimension.

    Parameters
    ----------
    coeffs : mapping ``(i, j) -> c``
        Term ``c * q**i * p**j``; total degree ``i + j`` at most 4
        (keeps the derivative stacks bounded).

    Derivatives are computed exactly from the coefficients, which are
    compiled once into a matrix over the monomials ``q**a * p**b`` (a, b
    <= 4) that ``H`` or a derivative of it uses.  A monomial's row holds
    its coefficient in ``H``, then in the field row ``(H_p, -H_q)``,
    ``J H''`` (a signed permutation, exact), so the value and the field of
    a stack each come from one product of its monomial table with that
    matrix.  The batch size picks how the table is built.  Up to
    :data:`_FEW_POINTS` points, as in a one-orbit rk4 stage, numpy's
    per-call overhead sets the cost, so the table is ``q**a * p**b`` by
    ``pow`` over the monomials' exponents: 6 numpy calls.  Larger batches
    pay for ``pow``'s cost per element, so their powers are built by
    multiplying (``x**3 = x**2 * x``, ``x**4 = x**2 * x**2``) and gathered
    by ``take``: 18 calls.
    Timed with ``timeit`` on ``p**2 + q**4`` (6 monomials; 2-core x86 host,
    numpy 2.4): 4.0 against 5.8 us at one point, 130 against 10 us at 291
    points, and about equal at 5 to 8 points.  The two round a power
    differently, within an ulp.  The flow module integrates these
    numerically; total degree at most 2 gives the quadratic model
    (:func:`_quadratic`).
    """
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
    if all(i + j <= 2 for i, j in rows):  # H, grad H and H'' at 0 fix a quadratic
        h0, b0, b1, *S = rows.get((0, 0), np.zeros(len(_JET_ORDERS)))
        return _quadratic((S[:2], S[2:]), (b0, b1), float(h0), 1, "polynomial")
    # the exponents (a, b) of the monomials q**a * p**b, and their rows in
    # the flattened power table of jet
    qexp, pexp = np.array(list(rows), dtype=float).T
    qrow, prow = (2 * qexp).astype(int), (2 * pexp + 1).astype(int)
    # H, f = (H_p, -H_q), J H'' as signed columns, C-ordered by take: BLAS rounds
    # a one-point product by layout and column place (ndarray.dot: @ at half the cost)
    coef = np.array([*rows.values()]).take([0, 2, 1, 5, 6, 3, 4], 1) * [1, 1, -1, 1, 1, -1, -1]

    # an overflowed power times a zero coefficient gives NaN, not a warning:
    # the flow reports a non-finite field as a ModelError.  The flow's
    # stage loops enter that error state once for all their calls, so the
    # jet itself does not; the value and the point callables enter it here.
    def jet(X):  # H, then the field row
        if len(X) <= _FEW_POINTS:
            return (X[:, :1] ** qexp * X[:, 1:] ** pexp).dot(coef)
        x = np.empty((5, 2, len(X)))  # x[k] = (q**k, p**k)
        x[0] = 1.0
        x[1] = X.T
        np.multiply(x[1], x[1], out=x[2])
        np.multiply(x[1:3], x[2], out=x[3:])  # x**3 = x * x**2, x**4 = x**2 * x**2
        x = x.reshape(10, len(X))  # row 2k is q**k, row 2k + 1 is p**k
        return (x.take(qrow, 0) * x.take(prow, 0)).T.dot(coef)

    @np.errstate(invalid="ignore")
    def bulk_value(X):
        return jet(X)[:, 0]

    def bulk_field(X):
        return jet(X)[:, 1:]

    model = _from_stacks(1, bulk_value, bulk_field, kind="polynomial")
    return replace(model, gradient=np.errstate(invalid="ignore")(model.gradient),
                   hessian=np.errstate(invalid="ignore")(model.hessian))
