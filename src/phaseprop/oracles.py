"""Closed-form reference solutions for the built-in linear-flow models.

Every quantity the package computes numerically — position-space states,
phase-space states, propagator kernels, transported manifolds, generating
actions, and short-time position kernels — has an exact counterpart for the
``free``, ``linear``, and ``harmonic`` models.  This module provides those
closed forms so the numerical pipeline can be validated end to end.

Where a published display of one of these formulas disagrees with the value
required by the propagation identities, the adopted (validated) form is
implemented here and the discrepancy is recorded in ``deviations.json``
(see :func:`load_deviations`) rather than silently patched.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Sequence

import numpy as np

from .errors import CausticError, ConfigurationError, _warn_at_caller
from .models import PhasePoint
from .transform import ComplexField

__all__ = [
    "initial_position_state",
    "initial_phase_state",
    "exact_position_solution",
    "exact_phase_solution",
    "exact_phase_field",
    "exact_kernel",
    "exact_manifold",
    "exact_action_S",
    "exact_van_vleck",
    "harmonic_vertical_time",
    "load_deviations",
]

KINDS = ("free", "linear", "harmonic")


def _require_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ConfigurationError(
            f"unknown reference model kind {kind!r}; expected one of {KINDS}"
        )


# ---------------------------------------------------------------------------
# reference initial data
# ---------------------------------------------------------------------------

def initial_position_state(x, hbar: float):
    """Reference WKB initial state pi^{-1/4} exp(-x^2/2 + i x^2 / (2 hbar)).

    Amplitude R0(x) = pi^{-1/4} e^{-x^2/2} is L^2-normalized and the phase is
    S0(x) = x^2/2, so the state is exactly representable as WKB data.
    """
    x = np.asarray(x, dtype=float)
    return np.pi ** -0.25 * np.exp(-0.5 * x * x + 0.5j * x * x / hbar)


def initial_phase_state(q, p, hbar: float):
    """Closed form of the wave-packet transform of the reference WKB state.

    The Gaussian quadrature of the transform evaluates exactly; the result is

        hbar^{-1/4} (pi (1 - i + hbar))^{-1/2}
            * exp((-q^2 + i p q) / (2 hbar) + (q - i p)^2 / (2 hbar (1 - i + hbar)))

    The cross term in the first exponent enters with ``+ i p q``; flipping its
    sign breaks the transform identity (see ``deviations.json``).
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    pref = hbar ** -0.25 * (np.pi * (1 - 1j + hbar)) ** -0.5
    return pref * np.exp(
        (-q * q + 1j * p * q) / (2 * hbar)
        + (q - 1j * p) ** 2 / (2 * hbar * (1 - 1j + hbar))
    )


# ---------------------------------------------------------------------------
# classical flow data (closed forms)
# ---------------------------------------------------------------------------

def _flow_pieces(kind: str, eta, xi, t: float):
    """Return (eta_t, xi_t, action, A, B) for one model at time ``t``.

    ``eta``/``xi`` may be scalars or arrays (broadcast together); ``A``/``B``
    are the scalar entries of the (diagonal) variational frame.
    """
    eta = np.asarray(eta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if kind == "free":
        eta_t = eta + 2 * t * xi
        xi_t = xi + 0 * eta
        act = xi * xi * t
        A = 1 + 2j * t
        B = 1j
    elif kind == "linear":
        eta_t = eta + 2 * t * xi - t * t
        xi_t = xi - t
        act = (xi * xi - eta) * t - 2 * xi * t * t + (2.0 / 3.0) * t ** 3
        A = 1 + 2j * t
        B = 1j
    else:  # harmonic
        c, s = np.cos(2 * t), np.sin(2 * t)
        eta_t = eta * c + xi * s
        xi_t = xi * c - eta * s
        act = 0.25 * (xi * xi - eta * eta) * np.sin(4 * t) + 0.5 * eta * xi * (
            np.cos(4 * t) - 1
        )
        A = np.exp(2j * t)
        B = 1j * np.exp(2j * t)
    return eta_t, xi_t, act, A, B


def _sqrt_w(kind: str, t: float) -> complex:
    """Continuous square root of (A - iB)(t) along the flow, from sqrt(2) at t=0."""
    if kind == "harmonic":
        # A - iB = 2 e^{2it}: the continuous root winds with half the speed.
        return np.sqrt(2.0) * np.exp(1j * t)
    # A - iB = 2 + 2it has positive real part, so the principal root is
    # already the continuous one.
    return complex(np.emath.sqrt(2 + 2j * t))


# ---------------------------------------------------------------------------
# exact position-space solutions
# ---------------------------------------------------------------------------

def _tracked_inverse_sqrt(values: np.ndarray) -> complex:
    """1/sqrt of ``values[-1]`` continued continuously along ``values``.

    ``values`` is a dense complex path starting at a point whose principal
    root is the correct branch; each subsequent root is the principal root or
    its negative, whichever is closer to the previous one.
    """
    root = complex(np.emath.sqrt(values[0]))
    for val in values[1:]:
        cand = complex(np.emath.sqrt(val))
        if abs(cand - root) > abs(cand + root):
            cand = -cand
        root = cand
    return 1.0 / root


def exact_position_solution(kind: str, x, t: float, hbar: float):
    """Exact position-space solution psi(x, t) for the reference initial state.

    The free and linear denominators 1 + 2(1 + i*hbar)t stay in the right half
    plane, so their principal inverse square roots are continuous in t.  The
    harmonic denominator cos(2t) + (1 + i*hbar) sin(2t) winds around the
    origin; its inverse square root is branch-tracked along a dense time path
    so that, e.g., one full period picks up the physical overall sign flip.
    """
    _require_kind(kind)
    x = np.asarray(x, dtype=float)
    c0 = 1 + 1j * hbar
    if kind == "free":
        den = 1 + 2 * c0 * t
        return np.pi ** -0.25 * den ** -0.5 * np.exp(0.5j * c0 * x * x / (hbar * den))
    if kind == "linear":
        den = 1 + 2 * c0 * t
        return (
            np.pi ** -0.25
            * den ** -0.5
            * np.exp(
                0.5j * c0 * (x + t * t) ** 2 / (hbar * den)
                - 1j / hbar * (t ** 3 / 3 + t * x)
            )
        )
    # harmonic: branch-track den^{-1/2} along [0, t]
    n_track = max(65, int(np.ceil(abs(t) * 32 / min(hbar, 1.0))) + 1)
    taus = np.linspace(0.0, t, n_track)
    dens = np.cos(2 * taus) + c0 * np.sin(2 * taus)
    inv_root = _tracked_inverse_sqrt(dens)
    c, s = np.cos(2 * t), np.sin(2 * t)
    den = c + c0 * s
    return np.pi ** -0.25 * inv_root * np.exp(0.5j * x * x * (c0 * c - s) / (hbar * den))


# ---------------------------------------------------------------------------
# exact phase-space solutions
# ---------------------------------------------------------------------------

def _phase_solution_values(kind: str, q, p, t: float, hbar: float):
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    c0 = 1 + 1j * hbar
    if kind == "free":
        D = 1 - 1j + 2 * t + (1 + 2j * t) * hbar
        pref = hbar ** -0.25 * (np.pi * D) ** -0.5
        return pref * np.exp(
            0.5j / hbar * (q - 1j * p) * (c0 * q - (1 + 2 * c0 * t) * p) / D
        )
    if kind == "linear":
        D = 1 - 1j + 2 * t + (1 + 2j * t) * hbar
        pref = hbar ** -0.25 * (np.pi * D) ** -0.5
        N = (
            3 * (1j * p * p - (1 + 1j) * p * q + hbar * p * q + q * q + 1j * hbar * q * q)
            - 6 * (-1j * p - 1j * p * p + hbar * p * p + q + p * q + 1j * hbar * p * q) * t
            + 3 * (1j + 2j * p - 2 * hbar * p - 2 * q - 2j * hbar * q) * t * t
            + 2 * (-1 + 1j - hbar) * t ** 3
            - (1 + 1j * hbar) * t ** 4
        )
        return pref * np.exp(1j * N / (6 * hbar * D))
    # harmonic
    c, s = np.cos(2 * t), np.sin(2 * t)
    pref = np.exp(-1j * t) * hbar ** -0.25 * (np.pi * (1 - 1j + hbar)) ** -0.5
    num = (q - 1j * p) * (c * (c0 * q - p) - s * (q + c0 * p))
    return pref * np.exp(1j * num / (2 * hbar * (c + 1j * s) * (1 - 1j + hbar)))


def _warn_if_display_singular(kind: str, t: float) -> None:
    """Warn when the harmonic display's trigonometric ratios are singular
    at ``t`` (``sin 2t = 0``, ``t != 0``)."""
    if kind == "harmonic" and abs(np.sin(2 * t)) < 1e-12 and t != 0.0:
        _warn_at_caller(
            "harmonic display parameterization is singular at this time; "
            "returning the algebraically continued value", UserWarning)


def exact_phase_solution(kind: str, X: PhasePoint, t: float, hbar: float) -> complex:
    """Exact phase-space solution Psi(q, p, t) for the reference initial state.

    For the harmonic model the commonly displayed parameterization uses
    trigonometric ratios that are singular when sin(2t) = 0; the form
    implemented here is the algebraic continuation, which is regular there.
    Evaluation at such a time emits a warning and returns the continued value.
    """
    _require_kind(kind)
    if X.d != 1:
        raise ConfigurationError("reference solutions are one-dimensional")
    _warn_if_display_singular(kind, t)
    val = _phase_solution_values(kind, X.q[0], X.p[0], t, hbar)
    return complex(val)


def exact_phase_field(
    kind: str,
    axes: Sequence[np.ndarray],
    t: float,
    hbar: float,
) -> ComplexField:
    """Exact phase-space solution sampled on a (q, p) tensor grid; warns at
    the singular display times as :func:`exact_phase_solution` does."""
    _require_kind(kind)
    _warn_if_display_singular(kind, t)
    q_axis = np.asarray(axes[0], dtype=float)
    p_axis = np.asarray(axes[1], dtype=float)
    Q, P = np.meshgrid(q_axis, p_axis, indexing="ij")
    vals = _phase_solution_values(kind, Q, P, t, hbar)
    return ComplexField(axes=(q_axis, p_axis), values=vals, hbar=hbar)


# ---------------------------------------------------------------------------
# exact propagator kernel
# ---------------------------------------------------------------------------

def exact_kernel(kind: str, X: PhasePoint, Y: PhasePoint, t: float, hbar: float) -> complex:
    """Exact phase-space propagator kernel K(X, Y, t) for one model.

    Evaluated from the general kernel formula with the model's closed-form
    flow, action, and frame.  At t = 0 this reduces exactly to the reproducing
    (Bergmann) kernel.  The published per-model kernel displays group their
    boundary phases differently and break the t = 0 identity; see
    ``deviations.json``.
    """
    _require_kind(kind)
    if X.d != 1 or Y.d != 1:
        raise ConfigurationError("reference kernels are one-dimensional")
    eta, xi = float(Y.q[0]), float(Y.p[0])
    q, p = float(X.q[0]), float(X.p[0])
    eta_t, xi_t, act, A, B = _flow_pieces(kind, eta, xi, t)
    eta_t, xi_t, act = float(eta_t), float(xi_t), float(act)

    Z = B / A
    r = 1.0 / (1.0 - 1j * Z)
    Q11 = 1j * (1 - r)
    Q12 = 0.5 - r
    Q22 = 1j * r
    vq, vp = q - eta_t, p - xi_t
    quad = 0.5 * (Q11 * vq * vq + 2 * Q12 * vq * vp + Q22 * vp * vp)
    phase = act + 0.5 * (xi * eta - xi_t * eta_t) + 0.5 * (q * xi_t - p * eta_t) + quad
    pref = np.sqrt(2.0) / (2 * np.pi * hbar) / _sqrt_w(kind, t)
    return complex(pref * np.exp(1j * phase / hbar))


# ---------------------------------------------------------------------------
# transported manifolds and generating actions
# ---------------------------------------------------------------------------

def harmonic_vertical_time(n: int = 1) -> float:
    """n-th time at which the harmonic transported manifold becomes vertical.

    The slope denominator (cos 2t + sin 2t)^2 vanishes first at 3*pi/8 and
    then every pi/2; equivalently t_n = pi*n/2 - pi/8 for n = 1, 2, ...
    """
    if n < 1:
        raise ConfigurationError("vertical-time index must be a positive integer")
    return np.pi * n / 2 - np.pi / 8


def exact_manifold(kind: str, t: float) -> tuple[float, float]:
    """Slope and offset of the transported manifold line p = slope*q + offset."""
    _require_kind(kind)
    if kind == "free":
        return 1.0 / (1 + 2 * t), 0.0
    if kind == "linear":
        return 1.0 / (1 + 2 * t), -t * (t + 1) / (1 + 2 * t)
    den = (np.cos(2 * t) + np.sin(2 * t)) ** 2
    if abs(den) < 1e-12:
        raise CausticError(
            "transported manifold is vertical at this time", t_star=float(t)
        )
    return float(np.cos(4 * t) / den), 0.0


def exact_action_S(kind: str, x, t: float):
    """Generating action S(x, t) of the transported manifold (p = dS/dx)."""
    _require_kind(kind)
    x = np.asarray(x, dtype=float)
    if kind == "free":
        return x * x / (2 * (1 + 2 * t))
    if kind == "linear":
        return (x * x - 2 * t * (1 + t) * x - (2 + t) * t ** 3 / 3) / (2 * (1 + 2 * t))
    den = (np.cos(2 * t) + np.sin(2 * t)) ** 2
    if abs(den) < 1e-12:
        raise CausticError(
            "generating action is singular at a vertical-manifold time",
            t_star=float(t),
        )
    return 0.5 * np.cos(4 * t) * x * x / den


# ---------------------------------------------------------------------------
# exact position-space (van Vleck) kernels
# ---------------------------------------------------------------------------

def exact_van_vleck(kind: str, x: float, y: float, t: float, hbar: float) -> complex:
    """Exact position-space propagator kernel for one model at t > 0.

    free:     (4 pi i hbar t)^{-1/2} exp(i (x-y)^2 / (4 hbar t))
    linear:   the same Gaussian with the drift shift x - y + t^2 and the
              boundary phase -(t x + t^3/3)/hbar
    harmonic: the oscillator kernel with Maslov-corrected branch, valid away
              from focal times (multiples of pi/2, where it raises).
    """
    _require_kind(kind)
    if t <= 0:
        raise ConfigurationError("reference position kernels require t > 0")
    if kind == "free":
        return complex(
            (4j * np.pi * hbar * t) ** -0.5 * np.exp(1j * (x - y) ** 2 / (4 * hbar * t))
        )
    if kind == "linear":
        return complex(
            (4j * np.pi * hbar * t) ** -0.5
            * np.exp(
                1j / hbar * ((x - y + t * t) ** 2 / (4 * t) - t * x - t ** 3 / 3)
            )
        )
    c, s = np.cos(2 * t), np.sin(2 * t)
    if abs(s) < 1e-10:
        k = int(np.rint(2 * t / np.pi))
        raise CausticError(
            "position kernel is focal at this time",
            t_star=float(np.pi * max(k, 1) / 2),
        )
    nu = int(np.floor(2 * t / np.pi))  # focal crossings in (0, t]
    amp = (2 * np.pi * hbar * abs(s)) ** -0.5
    phase = ((x * x + y * y) * c - 2 * x * y) / (2 * hbar * s)
    return complex(amp * np.exp(1j * phase - 0.25j * np.pi - 0.5j * np.pi * nu))


# ---------------------------------------------------------------------------
# registry of display deviations
# ---------------------------------------------------------------------------

def load_deviations() -> list[dict]:
    """Load the machine-readable registry of display discrepancies.

    Each entry records a closed-form display whose literal transcription
    disagrees with the value required by the propagation identities, together
    with the adopted corrected form and the measured size of the defect.
    """
    text = resources.files(__package__).joinpath("deviations.json").read_text()
    data = json.loads(text)
    if not isinstance(data, list):
        raise ConfigurationError("deviations registry must be a JSON list")
    return data
